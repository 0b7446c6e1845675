package exec

import (
	"slices"
	"strings"

	"tip/internal/sql/ast"
)

// StatementTables reports the tables a statement binds — every table it
// reads or writes, lower-cased and deduplicated — and the one table a
// DML statement writes ("" for any other statement). The walk is purely
// syntactic (it descends into subqueries, EXISTS, IN and derived
// tables), so it can run before binding — the engine uses it to decide
// which table lock a statement needs and which versions it pins before
// touching any shared state. Unknown tables are reported too;
// resolution errors surface later, during binding. DDL, SHOW TABLES and
// transaction control bind no table rows and report nothing.
func StatementTables(stmt ast.Statement) (tables []string, write string) {
	c := &tableCollector{}
	switch st := stmt.(type) {
	case *ast.Select:
		c.selectStmt(st)
	case *ast.Insert:
		write = st.Table
		c.selectStmt(st.Query)
		for _, row := range st.Rows {
			for _, e := range row {
				c.expr(e)
			}
		}
	case *ast.Update:
		write = st.Table
		c.expr(st.Where)
		for _, a := range st.Set {
			c.expr(a.Value)
		}
	case *ast.Delete:
		write = st.Table
		c.expr(st.Where)
	case *ast.Explain:
		c.selectStmt(st.Query)
	case *ast.Describe:
		c.add(st.Table)
	case *ast.SetNow:
		c.expr(st.Value)
	}
	if write != "" {
		write = strings.ToLower(write)
		c.add(write)
	}
	return c.tables, write
}

// tableCollector accumulates table references from a statement tree.
// A statement names a handful of tables, so a scan dedups them.
type tableCollector struct {
	tables []string
}

func (c *tableCollector) add(table string) {
	if t := strings.ToLower(table); !slices.Contains(c.tables, t) {
		c.tables = append(c.tables, t)
	}
}

func (c *tableCollector) selectStmt(sel *ast.Select) {
	if sel == nil {
		return
	}
	for _, ref := range sel.From {
		if ref.Subquery != nil {
			c.selectStmt(ref.Subquery)
		} else {
			c.add(ref.Table)
		}
		c.expr(ref.On)
	}
	for _, item := range sel.Items {
		c.expr(item.Expr)
	}
	c.expr(sel.Where)
	for _, e := range sel.GroupBy {
		c.expr(e)
	}
	c.expr(sel.Having)
	for _, p := range sel.SetOps {
		c.selectStmt(p.Sel)
	}
	for _, o := range sel.OrderBy {
		c.expr(o.Expr)
	}
	c.expr(sel.Limit)
	c.expr(sel.Offset)
}

// expr walks an expression, descending into the subqueries walkExpr
// deliberately stops at (walkExpr still visits the subquery node itself,
// so the visitor recurses from there).
func (c *tableCollector) expr(e ast.Expr) {
	if e == nil {
		return
	}
	walkExpr(e, func(x ast.Expr) bool {
		switch sub := x.(type) {
		case *ast.Subquery:
			c.selectStmt(sub.Query)
		case *ast.Exists:
			c.selectStmt(sub.Subquery)
		case *ast.InList:
			c.selectStmt(sub.Subquery)
		}
		return true
	})
}
