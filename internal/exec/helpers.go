package exec

import (
	"fmt"

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
// one note per row.
func Explain(env *Env, sel *ast.Select) (*Result, error) {
	b := &binder{env: env, explain: &explainLog{}}
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

// CompileRowExpr compiles e against the schema of one table binding.
func CompileRowExpr(env *Env, schema Schema, e ast.Expr) (RowExpr, error) {
	b := &binder{env: env}
	ce, _, err := b.bind(e, &bindScope{schema: schema})
	if err != nil {
		return nil, err
	}
	return func(env *Env, row Row) (types.Value, error) {
		rt := &runtime{env: env}
		rt.push(row)
		return ce(rt)
	}, nil
}

// RowPred is a compiled UPDATE or DELETE WHERE clause: whether it is TRUE
// of one row of a single table. It reuses one runtime, so it serves one
// statement on one goroutine.
type RowPred func(row Row) (bool, error)

// CompileRowPred compiles a WHERE clause against the schema of one table
// binding into filters, as a SELECT's WHERE binds (bindFilters).
func CompileRowPred(env *Env, schema Schema, e ast.Expr) (RowPred, error) {
	b := &binder{env: env}
	fs, err := b.bindFilters(splitConjuncts(e), &bindScope{schema: schema})
	if err != nil {
		return nil, err
	}
	rt := &runtime{env: env}
	return func(row Row) (bool, error) { return evalFilters(rt, fs, row) }, nil
}

// TableSchema builds the executor schema of a stored table.
func TableSchema(t *Table) Schema {
	schema := make(Schema, len(t.Meta.Columns))
	for i, c := range t.Meta.Columns {
		schema[i] = ColMeta{Table: t.Meta.Name, Name: c.Name, Type: c.Type}
	}
	return schema
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
