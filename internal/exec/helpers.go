package exec

import (
	"fmt"
	"slices"

	"tip/internal/sql/ast"
	"tip/internal/types"
)

// EvalConst evaluates an expression with no row context (literals, params,
// casts, routine calls over those) — used for INSERT values, SET NOW and
// similar statement positions.
func EvalConst(env *Env, e ast.Expr) (types.Value, error) {
	b := &binder{env: env}
	ce, _, err := b.bind(e, nil)
	if err != nil {
		return types.Value{}, err
	}
	return ce(&runtime{env: env})
}

// Explain binds a SELECT without running it and returns the planner's
// decisions — scan methods, join strategies, aggregation and sorting —
// one note per row. No plan runs, so it reports no PlanChoice.
func Explain(env *Env, sel *ast.Select) (*Result, error) {
	quiet := *env
	quiet.PlanChoice = nil
	b := &binder{env: &quiet, explain: &explainLog{}}
	if _, err := b.bindSelect(sel, nil); err != nil {
		return nil, err
	}
	res := &Result{Cols: []string{"plan"}}
	for _, n := range b.explain.notes {
		res.Rows = append(res.Rows, Row{types.NewString(n.text)})
	}
	res.Types = []*types.Type{types.TString}
	return res, nil
}

// RowExpr is a compiled expression evaluated against one row of a single
// table, used by the engine for UPDATE SET expressions.
type RowExpr func(env *Env, row Row) (types.Value, error)

// CompileRowExpr compiles e against the columns of table.
func CompileRowExpr(env *Env, table string, e ast.Expr) (RowExpr, error) {
	b := &binder{env: env}
	src, err := b.bindSource(ast.TableRef{Table: table}, nil)
	if err != nil {
		return nil, err
	}
	ce, _, err := b.bind(e, &bindScope{schema: src.schema})
	if err != nil {
		return nil, err
	}
	return func(env *Env, row Row) (types.Value, error) {
		rt := &runtime{env: env}
		rt.push(row)
		return ce(rt)
	}, nil
}

// MatchingRows returns, in id order, the ids of the rows of table that
// satisfy where (every row when where is nil) in the version the
// statement pinned. It binds where as a single-table SELECT's WHERE, so
// UPDATE and DELETE probe the same hash or period index, and walks the
// same candidates (tableScan.candidates). Id order keeps a DELETE's freed
// slots in the same order whichever index found them. It polls cancel
// once more with every id in hand: the caller's writer opens next, and
// from there its statement applies whole or not at all.
func MatchingRows(env *Env, table string, where ast.Expr) ([]int, error) {
	b := &binder{env: env}
	src, err := b.bindSource(ast.TableRef{Table: table}, nil)
	if err != nil {
		return nil, err
	}
	if err := b.bindScan(src, splitConjuncts(where), nil, nil, nil); err != nil {
		return nil, err
	}
	rt := &runtime{env: env}
	defer rt.flushMem()
	defer src.table.release()
	c, err := src.table.candidates(rt)
	if err != nil {
		return nil, err
	}
	var ids []int
	for c.next(rt) {
		ids = append(ids, c.id)
	}
	if c.err != nil {
		return nil, c.err
	}
	slices.Sort(ids)
	return ids, env.CancelErr()
}

// FormatResult renders a result as an aligned text table, used by the SQL
// shell and the examples.
func FormatResult(r *Result) string {
	if len(r.Cols) == 0 {
		if r.Affected > 0 {
			return fmt.Sprintf("(%d rows affected)\n", r.Affected)
		}
		return "OK\n"
	}
	widths := make([]int, len(r.Cols))
	for i, c := range r.Cols {
		widths[i] = len(c)
	}
	cells := make([][]string, len(r.Rows))
	for ri, row := range r.Rows {
		cells[ri] = make([]string, len(row))
		for ci, v := range row {
			s := v.Format()
			cells[ri][ci] = s
			if len(s) > widths[ci] {
				widths[ci] = len(s)
			}
		}
	}
	var b []byte
	appendRow := func(vals []string) {
		for i, s := range vals {
			if i > 0 {
				b = append(b, ' ', '|', ' ')
			}
			b = append(b, s...)
			for n := widths[i] - len(s); n > 0; n-- {
				b = append(b, ' ')
			}
		}
		b = append(b, '\n')
	}
	appendRow(r.Cols)
	for i, w := range widths {
		if i > 0 {
			b = append(b, '-', '+', '-')
		}
		for n := 0; n < w; n++ {
			b = append(b, '-')
		}
	}
	b = append(b, '\n')
	for _, row := range cells {
		appendRow(row)
	}
	b = append(b, []byte(fmt.Sprintf("(%d rows)\n", len(r.Rows)))...)
	return string(b)
}
