package main

// Temporal view maintenance: keeping a valid-time history table in a
// TIP-enabled database synchronised with a stream of changes to a
// non-temporal source. Each key has at most one *open* row (its
// validity ends at NOW, so it keeps growing without maintenance); a
// change closes the open row at the change time and opens a new one.

import (
	"fmt"
	"strings"

	"tip/internal/core"
	"tip/internal/engine"
	"tip/internal/exec"
	"tip/internal/temporal"
	"tip/internal/types"
)

// Maintainer keeps one history view synchronised.
type Maintainer struct {
	sess  *engine.Session
	blade *core.Blade
	view  string
	keys  []string
	attrs []string
}

// NewMaintainer creates the history view table (key columns, attribute columns,
// and a `valid Element` timestamp) and returns its maintainer. Column
// specs are "name TYPE" SQL fragments.
func NewMaintainer(sess *engine.Session, b *core.Blade, view string, keySpecs, attrSpecs []string) (*Maintainer, error) {
	if len(keySpecs) == 0 {
		return nil, fmt.Errorf("tvm: at least one key column required")
	}
	cols := append(append([]string{}, keySpecs...), attrSpecs...)
	ddl := fmt.Sprintf("CREATE TABLE %s (%s, valid Element NOT NULL)", view, strings.Join(cols, ", "))
	if _, err := sess.Exec(ddl, nil); err != nil {
		return nil, err
	}
	m := &Maintainer{sess: sess, blade: b, view: view}
	for _, spec := range keySpecs {
		m.keys = append(m.keys, strings.Fields(spec)[0])
	}
	for _, spec := range attrSpecs {
		m.attrs = append(m.attrs, strings.Fields(spec)[0])
	}
	return m, nil
}

// View returns the history table name.
func (m *Maintainer) View() string { return m.view }

// keyPredicate builds "k1 = :k0 AND k2 = :k1 ..." and its parameters.
func (m *Maintainer) keyPredicate(key []types.Value) (string, map[string]types.Value, error) {
	if len(key) != len(m.keys) {
		return "", nil, fmt.Errorf("tvm: key has %d values, want %d", len(key), len(m.keys))
	}
	var preds []string
	params := make(map[string]types.Value, len(key))
	for i, col := range m.keys {
		name := fmt.Sprintf("k%d", i)
		preds = append(preds, fmt.Sprintf("%s = :%s", col, name))
		params[name] = key[i]
	}
	return strings.Join(preds, " AND "), params, nil
}

// openRows returns the open history rows for key (validity still ends
// at NOW).
func (m *Maintainer) openRows(key []types.Value) (*exec.Result, error) {
	pred, params, err := m.keyPredicate(key)
	if err != nil {
		return nil, err
	}
	q := fmt.Sprintf("SELECT valid FROM %s WHERE %s AND isopen(valid)", m.view, pred)
	return m.sess.Exec(q, params)
}

// closeAt replaces NOW-relative ends in e with the concrete chronon
// `end`, dropping periods that would become empty.
func closeAt(e temporal.Element, end temporal.Chronon) (temporal.Element, error) {
	var closed []temporal.Period
	for _, p := range e.Periods() {
		if !p.End.Relative() {
			closed = append(closed, p)
			continue
		}
		start := p.Start
		if c, ok := start.Chronon(); ok && c > end {
			continue // the open period started after the close time
		}
		closed = append(closed, temporal.Period{Start: start, End: temporal.AbsInstant(end)})
	}
	return temporal.MakeElement(closed...)
}

// Close ends key's open history at time t: the open row's validity
// becomes determinate, ending the chronon before t. It is a no-op when
// no open row exists.
func (m *Maintainer) Close(t temporal.Chronon, key []types.Value) error {
	open, err := m.openRows(key)
	if err != nil {
		return err
	}
	if len(open.Rows) == 0 {
		return nil
	}
	end, err := t.AddSpan(-temporal.Second)
	if err != nil {
		return err
	}
	pred, params, err := m.keyPredicate(key)
	if err != nil {
		return err
	}
	for _, row := range open.Rows {
		closed, err := closeAt(row[0].Obj().(temporal.Element), end)
		if err != nil {
			return err
		}
		if closed.IsEmpty() {
			// The whole row's history vanished (opened and closed at
			// the same instant): delete it rather than store {}.
			q := fmt.Sprintf("DELETE FROM %s WHERE %s AND isopen(valid)", m.view, pred)
			if _, err := m.sess.Exec(q, params); err != nil {
				return err
			}
			continue
		}
		params["closed"] = m.blade.ElementValue(closed)
		q := fmt.Sprintf("UPDATE %s SET valid = :closed WHERE %s AND isopen(valid)", m.view, pred)
		if _, err := m.sess.Exec(q, params); err != nil {
			return err
		}
	}
	return nil
}

// Set records that key holds attrs from time t on: it closes any open
// row (the previous state's validity ends at t-1s) and opens a new row
// valid [t, NOW]. This is the maintenance step for both source inserts
// and source updates.
func (m *Maintainer) Set(t temporal.Chronon, key, attrs []types.Value) error {
	if len(attrs) != len(m.attrs) {
		return fmt.Errorf("tvm: %d attribute values, want %d", len(attrs), len(m.attrs))
	}
	if err := m.Close(t, key); err != nil {
		return err
	}
	open := temporal.Period{Start: temporal.AbsInstant(t), End: temporal.Now}.Element()
	cols := append(append([]string{}, m.keys...), m.attrs...)
	holes := make([]string, 0, len(cols)+1)
	params := make(map[string]types.Value, len(cols)+1)
	for i, v := range append(append([]types.Value{}, key...), attrs...) {
		name := fmt.Sprintf("v%d", i)
		holes = append(holes, ":"+name)
		params[name] = v
	}
	holes = append(holes, ":valid")
	params["valid"] = m.blade.ElementValue(open)
	q := fmt.Sprintf("INSERT INTO %s (%s, valid) VALUES (%s)",
		m.view, strings.Join(cols, ", "), strings.Join(holes, ", "))
	_, err := m.sess.Exec(q, params)
	return err
}

// Delete records that key left the source at time t: its open row is
// closed and nothing reopens.
func (m *Maintainer) Delete(t temporal.Chronon, key []types.Value) error {
	return m.Close(t, key)
}

// AsOf returns the view's rows valid at time t (key and attribute
// columns).
func (m *Maintainer) AsOf(t temporal.Chronon) (*exec.Result, error) {
	cols := strings.Join(append(append([]string{}, m.keys...), m.attrs...), ", ")
	q := fmt.Sprintf("SELECT %s FROM %s WHERE contains(valid, :t) ORDER BY %s",
		cols, m.view, strings.Join(m.keys, ", "))
	return m.sess.Exec(q, map[string]types.Value{"t": m.blade.ChrononValue(t)})
}

// History returns every row for key with its validity, oldest first.
func (m *Maintainer) History(key []types.Value) (*exec.Result, error) {
	pred, params, err := m.keyPredicate(key)
	if err != nil {
		return nil, err
	}
	cols := strings.Join(append(append([]string{}, m.keys...), m.attrs...), ", ")
	q := fmt.Sprintf("SELECT %s, valid FROM %s WHERE %s ORDER BY start(valid)",
		cols, m.view, pred)
	return m.sess.Exec(q, params)
}

// Validate checks the maintenance invariants: per key, at most one open
// row, and no two rows whose validities overlap (a key has one state at
// a time). It returns a description of the first violation found.
func (m *Maintainer) Validate() error {
	cols := strings.Join(m.keys, ", ")
	res, err := m.sess.Exec(fmt.Sprintf(
		"SELECT %s, COUNT(*) FROM %s WHERE isopen(valid) GROUP BY %s HAVING COUNT(*) > 1",
		cols, m.view, cols), nil)
	if err != nil {
		return err
	}
	if len(res.Rows) > 0 {
		return fmt.Errorf("tvm: key %s has %s open rows", res.Rows[0][0].Format(),
			res.Rows[0][len(res.Rows[0])-1].Format())
	}
	// Overlap check via a self-join on the key columns.
	var joinPred []string
	for _, k := range m.keys {
		joinPred = append(joinPred, fmt.Sprintf("a.%s = b.%s", k, k))
	}
	q := fmt.Sprintf(`SELECT a.%s FROM %s a, %s b
		WHERE %s AND start(a.valid) < start(b.valid) AND overlaps(a.valid, b.valid)`,
		m.keys[0], m.view, m.view, strings.Join(joinPred, " AND "))
	res, err = m.sess.Exec(q, nil)
	if err != nil {
		return err
	}
	if len(res.Rows) > 0 {
		return fmt.Errorf("tvm: key %s has overlapping history rows", res.Rows[0][0].Format())
	}
	return nil
}
