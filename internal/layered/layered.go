// Package layered implements the stratum architecture the paper's §5
// contrasts TIP with: temporal support layered *on top of* a conventional
// SQL engine (the TimeDB/Tiger approach) rather than built into it.
//
// The stratum stores a temporal table flat: the Element timestamp becomes
// one row per period with BIGINT (vstart, vend) columns holding closed
// second intervals, and temporal operations are *translated* into
// standard SQL over that encoding. The translations are the classic ones
// from the literature — in particular coalescing via the
// Böhlen/Snodgrass self-join with nested NOT EXISTS — and they are
// deliberately what a real stratum would emit, so experiments E2/E3/E5
// can measure the paper's argument: the generated SQL is large, deeply
// nested, and hard for the backend to execute efficiently, while the
// in-engine TIP routines stay short and fast.
//
// NOW-relative ends are encoded with a "forever" sentinel (the maximum
// chronon), the standard stratum trick; unlike TIP the encoding cannot
// represent general NOW-relative instants or sets of periods per value.
package layered

import (
	"fmt"
	"strings"

	"tip/internal/engine"
	"tip/internal/exec"
	"tip/internal/temporal"
	"tip/internal/types"
)

// Forever is the sentinel second count a stratum uses for a NOW-relative
// (open) period end.
var Forever = int64(temporal.MaxChronon)

// Stratum translates temporal operations into plain SQL for one engine
// session.
type Stratum struct {
	sess *engine.Session
}

// New wraps an engine session.
func New(sess *engine.Session) *Stratum { return &Stratum{sess: sess} }

// Session exposes the underlying session (for direct queries in tests
// and benchmarks).
func (st *Stratum) Session() *engine.Session { return st.sess }

// CreateTemporalTable creates the flat encoding of a temporal table:
// the given data columns plus (vstart, vend) BIGINT columns.
func (st *Stratum) CreateTemporalTable(name string, cols string) error {
	ddl := fmt.Sprintf("CREATE TABLE %s (%s, vstart BIGINT NOT NULL, vend BIGINT NOT NULL)", name, cols)
	_, err := st.sess.Exec(ddl, nil)
	return err
}

// Insert stores one logical tuple: the data values once per period of
// its element timestamp. NOW-relative starts clamp to the minimum
// chronon, NOW-relative ends to Forever.
func (st *Stratum) Insert(table string, columns []string, data []types.Value, valid temporal.Element) error {
	colList := strings.Join(columns, ", ")
	sql := fmt.Sprintf("INSERT INTO %s (%s, vstart, vend) VALUES (%s, :vstart, :vend)",
		table, colList, placeholders(columns))
	params := make(map[string]types.Value, len(data)+2)
	for i, c := range columns {
		params["p"+c] = data[i]
	}
	for _, p := range valid.Periods() {
		lo := int64(temporal.MinChronon)
		if c, ok := p.Start.Chronon(); ok {
			lo = int64(c)
		}
		hi := Forever
		if c, ok := p.End.Chronon(); ok {
			hi = int64(c)
		}
		params["vstart"] = types.NewInt(lo)
		params["vend"] = types.NewInt(hi)
		if _, err := st.sess.Exec(sql, params); err != nil {
			return err
		}
	}
	return nil
}

func placeholders(columns []string) string {
	out := make([]string, len(columns))
	for i, c := range columns {
		out[i] = ":p" + c
	}
	return strings.Join(out, ", ")
}

// CoalesceSQL generates the classic stratum translation of temporal
// coalescing over one grouping column: the Böhlen/Snodgrass self-join
// that finds maximal periods with doubly nested NOT EXISTS subqueries.
// Adjacent closed intervals (vend + 1 = next vstart) merge, matching
// TIP's discrete-chronon semantics.
//
// This is the query shape the paper's §5 warns about: a stratum must
// emit it because the backend has no temporal routines; TIP instead
// evaluates length(group_union(valid)) natively.
func CoalesceSQL(table, key string) string {
	return fmt.Sprintf(`
SELECT DISTINCT f.%[2]s AS %[2]s, f.vstart AS vstart, l.vend AS vend
FROM %[1]s f, %[1]s l
WHERE f.%[2]s = l.%[2]s AND f.vstart <= l.vend
AND NOT EXISTS (
    SELECT 1 FROM %[1]s m
    WHERE m.%[2]s = f.%[2]s
      AND f.vstart < m.vstart AND m.vstart <= l.vend + 1
      AND NOT EXISTS (
          SELECT 1 FROM %[1]s m2
          WHERE m2.%[2]s = f.%[2]s
            AND m2.vstart < m.vstart AND m.vstart <= m2.vend + 1))
AND NOT EXISTS (
    SELECT 1 FROM %[1]s m3
    WHERE m3.%[2]s = f.%[2]s
      AND ((m3.vstart < f.vstart AND f.vstart <= m3.vend + 1)
        OR (m3.vstart <= l.vend + 1 AND l.vend < m3.vend)))`,
		table, key)
}

// TotalDurationSQL generates the stratum translation of "total coalesced
// duration per key" — the paper's Q4 — by summing the lengths of the
// coalesced periods.
func TotalDurationSQL(table, key string) string {
	return fmt.Sprintf(`
SELECT c.%[2]s, SUM(c.vend - c.vstart) AS total
FROM (%[1]s) c
GROUP BY c.%[2]s`, CoalesceSQL(table, key), key)
}

// OverlapJoinSQL generates the stratum translation of the paper's Q3
// temporal self-join: which pairs of rows (filtered by the two
// predicates) overlap in time, and on which interval. Each overlapping
// period pair yields one output row with the clipped interval — a
// stratum returns period fragments, not coalesced Elements, so a second
// coalescing pass would be needed for true set semantics.
func OverlapJoinSQL(table, key, pred1, pred2 string) string {
	return fmt.Sprintf(`
SELECT p1.%[2]s AS %[2]s,
       greatest(p1.vstart, p2.vstart) AS ostart,
       least(p1.vend, p2.vend) AS oend
FROM %[1]s p1, %[1]s p2
WHERE %[3]s AND %[4]s
  AND p1.%[2]s = p2.%[2]s
  AND p1.vstart <= p2.vend AND p2.vstart <= p1.vend`,
		table, key, pred1, pred2)
}

// WindowSQL generates a temporal selection: rows whose period overlaps
// [lo, hi] (closed seconds).
func WindowSQL(table string, lo, hi int64) string {
	return fmt.Sprintf("SELECT * FROM %s WHERE vstart <= %d AND %d <= vend", table, hi, lo)
}

// Coalesce runs the generated coalescing query.
func (st *Stratum) Coalesce(table, key string) (*exec.Result, error) {
	return st.sess.Exec(CoalesceSQL(table, key), nil)
}

// TotalDuration runs the generated total-duration query.
func (st *Stratum) TotalDuration(table, key string) (*exec.Result, error) {
	return st.sess.Exec(TotalDurationSQL(table, key), nil)
}

// OverlapJoin runs the generated overlap self-join.
func (st *Stratum) OverlapJoin(table, key, pred1, pred2 string) (*exec.Result, error) {
	return st.sess.Exec(OverlapJoinSQL(table, key, pred1, pred2), nil)
}

// Complexity measures the size of a generated query for experiment E5:
// character count, rough token count, number of table references (FROM
// items) and subquery nesting depth.
type Complexity struct {
	Chars     int
	Tokens    int
	TableRefs int
	Depth     int
}

// MeasureSQL computes the complexity metrics of a SQL string.
func MeasureSQL(sql string) Complexity {
	c := Complexity{Chars: len(sql)}
	c.Tokens = len(strings.Fields(sql))
	upper := strings.ToUpper(stripLiterals(sql))
	// Table references: each FROM introduces one plus one per
	// top-level comma inside its clause; counting FROM keywords and
	// commas between identifiers is close enough for a size metric, so
	// count FROM occurrences and the aliases after them.
	c.TableRefs = strings.Count(upper, " FROM ") + strings.Count(upper, "\nFROM ")
	for _, frag := range strings.Split(upper, "FROM ")[1:] {
		clause := frag
		for _, stop := range []string{"\n", " WHERE ", " GROUP ", " ORDER ", ")"} {
			if i := strings.Index(clause, stop); i >= 0 {
				clause = clause[:i]
			}
		}
		c.TableRefs += strings.Count(clause, ",")
	}
	depth, maxDepth := 0, 0
	for _, r := range stripLiterals(sql) {
		switch r {
		case '(':
			depth++
			if depth > maxDepth {
				maxDepth = depth
			}
		case ')':
			depth--
		}
	}
	c.Depth = maxDepth
	return c
}

// stripLiterals blanks out single-quoted string literals so their
// contents (commas, parentheses) do not distort the structural metrics.
func stripLiterals(sql string) string {
	out := []byte(sql)
	in := false
	for i := 0; i < len(out); i++ {
		switch {
		case out[i] == '\'':
			in = !in
		case in:
			out[i] = '_'
		}
	}
	return string(out)
}
