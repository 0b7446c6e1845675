package exec

import (
	"fmt"
	"slices"

	"tip/internal/sql/ast"
	"tip/internal/types"
)

// outputTail is the end of every SELECT, plain or compound: DISTINCT,
// ORDER BY (through the bounded top-K heap when a LIMIT applies) and
// OFFSET/LIMIT over the output rows. A plain select's expression sort
// keys ride in hidden columns after its width output columns, so every
// sort key is a column of the row; finish trims the hidden ones off.
type outputTail struct {
	distinct                    bool
	width                       int
	keys                        []sortKey
	exprs                       []cexpr // expression keys, evaluated into columns width...
	limit, offset               cexpr
	stDistinct, stSort, stLimit *OpStats
}

type sortKey struct {
	col  int
	desc bool
}

// newTail starts the tail of sel and writes its EXPLAIN lines. A plain
// select calls it before binding its select list, so the lines keep
// their place ahead of any subquery's; distinct is false for a compound
// select, whose DISTINCT belongs to its first operand.
func (b *binder) newTail(sel *ast.Select, distinct bool) *outputTail {
	t := &outputTail{distinct: distinct}
	if b.explain == nil {
		return t
	}
	if distinct {
		t.stDistinct = b.note("distinct")
	}
	if len(sel.OrderBy) > 0 {
		if sel.Limit != nil && !distinct {
			t.stSort = b.note("sort: %d key(s) (top-k when limit+offset <= %d)", len(sel.OrderBy), topKMaxRows)
		} else {
			t.stSort = b.note("sort: %d key(s)", len(sel.OrderBy))
		}
	}
	if sel.Limit != nil || sel.Offset != nil {
		t.stLimit = b.note("limit/offset")
	}
	return t
}

// bind binds sel's ORDER BY keys against the output schema out: a
// position or an unqualified output column name reads that column, any
// other key is an expression bound in scope. A compound select passes
// no scope, so its keys must name output columns. LIMIT and OFFSET bind
// against the outer chain only.
func (t *outputTail) bind(b *binder, sel *ast.Select, out Schema, scope, parent *bindScope) (err error) {
	t.width = len(out)
	for _, o := range sel.OrderBy {
		key := sortKey{col: -1, desc: o.Desc}
		switch n := o.Expr.(type) {
		case *ast.IntLit:
			if n.V < 1 || int(n.V) > len(out) {
				return fmt.Errorf("exec: ORDER BY position %d out of range", n.V)
			}
			key.col = int(n.V) - 1
		case *ast.ColumnRef:
			if n.Table == "" {
				if pos, err := out.Resolve("", n.Column); err == nil {
					key.col = pos
				}
			}
		}
		if key.col < 0 {
			switch {
			case scope == nil:
				return fmt.Errorf("exec: compound ORDER BY must name an output column or position")
			case t.distinct:
				return fmt.Errorf("exec: ORDER BY %s must name an output column under DISTINCT", exprString(o.Expr))
			}
			ce, _, err := b.bind(o.Expr, scope)
			if err != nil {
				return err
			}
			key.col = t.width + len(t.exprs)
			t.exprs = append(t.exprs, ce)
		}
		t.keys = append(t.keys, key)
	}
	if sel.Limit != nil {
		if t.limit, _, err = b.bind(sel.Limit, parentOnly(parent)); err != nil {
			return err
		}
	}
	if sel.Offset != nil {
		if t.offset, _, err = b.bind(sel.Offset, parentOnly(parent)); err != nil {
			return err
		}
	}
	return nil
}

// rowWidth is the width of a row the tail takes: the output columns and
// the hidden expression keys.
func (t *outputTail) rowWidth() int { return t.width + len(t.exprs) }

// evalKeys evaluates the expression sort keys into the hidden columns
// of r, with the row r was projected from on top of the scope stack.
func (t *outputTail) evalKeys(rt *runtime, r Row) error {
	for i, ce := range t.exprs {
		v, err := ce(rt)
		if err != nil {
			return err
		}
		r[t.width+i] = v
	}
	return nil
}

// compare orders two rows by the sort keys: negative means a sorts
// before b.
func (t *outputTail) compare(rt *runtime, a, b Row) (int, error) {
	for _, k := range t.keys {
		c, err := orderCompare(rt, a[k.col], b[k.col])
		if err != nil {
			return 0, err
		}
		if k.desc {
			c = -c
		}
		if c != 0 {
			return c, nil
		}
	}
	return 0, nil
}

// heap returns the bounded top-K collector when the select sorts and
// limits without deduplicating and LIMIT+OFFSET is at most topKMaxRows;
// nil otherwise. LIMIT and OFFSET read only the outer chain, so
// evaluating them up front sees the scope stack finish will.
func (t *outputTail) heap(rt *runtime) (*topkHeap, error) {
	if len(t.keys) == 0 || t.limit == nil || t.distinct {
		return nil, nil
	}
	lim, off, err := t.counts(rt)
	if err != nil || lim > topKMaxRows || off > topKMaxRows-lim { // no lim+off: it can overflow
		return nil, err
	}
	if rt.env.PlanChoice != nil {
		rt.env.PlanChoice("sort.topk")
	}
	return newTopK(rt, lim+off, func(a, b Row) (int, error) { return t.compare(rt, a, b) }), nil
}

// counts evaluates OFFSET (0 when absent) and LIMIT (-1 when absent).
func (t *outputTail) counts(rt *runtime) (lim, off int, err error) {
	if t.offset != nil {
		if off, err = evalCount(rt, t.offset, "OFFSET"); err != nil {
			return 0, 0, err
		}
	}
	lim = -1
	if t.limit != nil {
		if lim, err = evalCount(rt, t.limit, "LIMIT"); err != nil {
			return 0, 0, err
		}
	}
	return lim, off, nil
}

// run ends a select whose rows are already materialised (a compound
// select's): the set-operation parts are combined either way, but a
// small LIMIT still skips the full sort and bounds the surviving
// buffer.
func (t *outputTail) run(rt *runtime, rows []Row) ([]Row, error) {
	tk, err := t.heap(rt)
	if err != nil {
		return nil, err
	}
	if tk == nil {
		return t.finish(rt, nil, rows)
	}
	for _, r := range rows {
		if err := rt.checkCancel(); err != nil {
			return nil, err
		}
		if err := tk.offer(r); err != nil {
			return nil, err
		}
	}
	return t.finish(rt, tk, nil)
}

// finish ends the select over its output rows, or over the heap's
// survivors when tk collected them instead: DISTINCT through dedup, the
// stable sort, then OFFSET/LIMIT, and the hidden key columns trimmed.
func (t *outputTail) finish(rt *runtime, tk *topkHeap, rows []Row) ([]Row, error) {
	if tk != nil {
		start := t.stSort.start()
		ents, err := tk.finish()
		if err != nil {
			return nil, err
		}
		rt.charge(int64(len(ents)) * rowHeaderSize)
		rows = make([]Row, len(ents))
		for i := range ents {
			rows[i] = ents[i].row
		}
		t.stSort.record(start, len(rows))
	} else {
		if t.distinct {
			start := t.stDistinct.start()
			var err error
			if rows, err = dedup(rt, rows); err != nil {
				return nil, err
			}
			t.stDistinct.record(start, len(rows))
		}
		if len(t.keys) > 0 {
			start := t.stSort.start()
			if err := t.sort(rt, rows); err != nil {
				return nil, err
			}
			t.stSort.record(start, len(rows))
		}
	}

	if t.limit != nil || t.offset != nil {
		start := t.stLimit.start()
		lim, off, err := t.counts(rt)
		if err != nil {
			return nil, err
		}
		rows = rows[min(off, len(rows)):]
		if lim >= 0 && lim < len(rows) {
			rows = rows[:lim]
		}
		t.stLimit.record(start, len(rows))
	}
	if len(t.exprs) > 0 {
		for i, r := range rows {
			rows[i] = r[:t.width:t.width]
		}
	}
	return rows, nil
}

// sort orders rows stably by the sort keys.
func (t *outputTail) sort(rt *runtime, rows []Row) error {
	var sortErr error
	slices.SortStableFunc(rows, func(a, b Row) int {
		if sortErr == nil {
			sortErr = rt.checkCancel()
		}
		if sortErr != nil {
			return 0
		}
		c, err := t.compare(rt, a, b)
		sortErr = err
		return c
	})
	return sortErr
}

// orderCompare orders values with NULLs sorting last (ascending).
func orderCompare(rt *runtime, a, b types.Value) (int, error) {
	switch {
	case a.Null && b.Null:
		return 0, nil
	case a.Null:
		return 1, nil
	case b.Null:
		return -1, nil
	}
	return a.Compare(b, rt.env.Now)
}

func evalCount(rt *runtime, ce cexpr, what string) (int, error) {
	v, err := ce(rt)
	if err != nil {
		return 0, err
	}
	if v.Null || v.T.Kind != types.KindInt || v.Int() < 0 {
		return 0, fmt.Errorf("exec: %s requires a non-negative integer", what)
	}
	return int(v.Int()), nil
}
