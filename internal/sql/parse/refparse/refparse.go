// Package refparse freezes the pre-Pratt recursive-descent SQL parser
// as the differential-parity oracle for the zero-allocation front end:
// tests and fuzz targets (parse.FuzzParseParity, TestParseParity)
// compare the production parser's AST against this one statement by
// statement. It is test/bench infrastructure only — nothing on the
// engine's execution path imports it.
//
// The code is a byte-for-byte copy of the eager, allocation-heavy
// parser this PR replaced (token slice via scan.All, string keyword
// compares, node-per-alloc AST), driven by the shared lexer so the
// token stream — including the malformed-exponent fix — is identical
// and any divergence isolates the parser rewrite.
package refparse

import (
	"fmt"
	"strconv"
	"strings"

	"tip/internal/sql/ast"
	"tip/internal/sql/scan"
)

// Parse parses a single SQL statement (an optional trailing ';' is
// allowed).
func Parse(sql string) (ast.Statement, error) {
	p, err := newParser(sql)
	if err != nil {
		return nil, err
	}
	st, err := p.statement()
	if err != nil {
		return nil, err
	}
	p.acceptSymbol(";")
	if !p.at(scan.EOF) {
		return nil, p.errf("unexpected %s after statement", p.cur())
	}
	return st, nil
}

// ParseScript parses a ';'-separated sequence of statements.
func ParseScript(sql string) ([]ast.Statement, error) {
	parts, err := ParseScriptParts(sql)
	if err != nil {
		return nil, err
	}
	out := make([]ast.Statement, len(parts))
	for i, p := range parts {
		out[i] = p.Stmt
	}
	return out, nil
}

// ScriptPart is one statement of a script together with its source
// text (terminator and surrounding whitespace stripped), so callers
// that record statements — the engine's WAL — can log each one in a
// replayable single-statement form.
type ScriptPart struct {
	Stmt ast.Statement
	SQL  string
}

// ParseScriptParts parses a ';'-separated sequence of statements,
// returning each with the slice of the input it was parsed from.
func ParseScriptParts(sql string) ([]ScriptPart, error) {
	p, err := newParser(sql)
	if err != nil {
		return nil, err
	}
	var out []ScriptPart
	for {
		for p.acceptSymbol(";") {
		}
		if p.at(scan.EOF) {
			return out, nil
		}
		start := p.cur().Pos
		st, err := p.statement()
		if err != nil {
			return nil, err
		}
		// The current token is the terminator (';' or EOF); its offset
		// bounds the statement's text.
		text := strings.TrimSpace(p.src[start:p.cur().Pos])
		out = append(out, ScriptPart{Stmt: st, SQL: text})
		if !p.acceptSymbol(";") && !p.at(scan.EOF) {
			return nil, p.errf("expected ';' between statements, got %s", p.cur())
		}
	}
}

type parser struct {
	toks []scan.Token
	pos  int
	src  string
}

func newParser(sql string) (*parser, error) {
	toks, err := scan.New(sql).All()
	if err != nil {
		return nil, err
	}
	return &parser{toks: toks, src: sql}, nil
}

func (p *parser) cur() scan.Token     { return p.toks[p.pos] }
func (p *parser) at(k scan.Kind) bool { return p.cur().Kind == k }

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("sql: %s (near offset %d)", fmt.Sprintf(format, args...), p.cur().Pos)
}

func (p *parser) advance() scan.Token {
	t := p.toks[p.pos]
	if t.Kind != scan.EOF {
		p.pos++
	}
	return t
}

// atKeyword reports whether the current token is the given keyword.
func (p *parser) atKeyword(kw string) bool { return p.cur().IsKeyword(kw) }

// accept consumes the keyword if present.
func (p *parser) accept(kw string) bool {
	if p.atKeyword(kw) {
		p.pos++
		return true
	}
	return false
}

// expect consumes the keyword or fails.
func (p *parser) expect(kw string) error {
	if !p.accept(kw) {
		return p.errf("expected %s, got %s", kw, p.cur())
	}
	return nil
}

// acceptSymbol consumes the symbol if present.
func (p *parser) acceptSymbol(s string) bool {
	if p.cur().IsSymbol(s) {
		p.pos++
		return true
	}
	return false
}

// expectSymbol consumes the symbol or fails.
func (p *parser) expectSymbol(s string) error {
	if !p.acceptSymbol(s) {
		return p.errf("expected %q, got %s", s, p.cur())
	}
	return nil
}

// ident consumes an identifier.
func (p *parser) ident(what string) (string, error) {
	if !p.at(scan.Ident) {
		return "", p.errf("expected %s, got %s", what, p.cur())
	}
	return p.advance().Text, nil
}

// reserved words that terminate an implicit alias.
var reserved = map[string]bool{
	"FROM": true, "WHERE": true, "GROUP": true, "HAVING": true, "ORDER": true,
	"LIMIT": true, "OFFSET": true, "JOIN": true, "INNER": true, "LEFT": true,
	"ON": true, "AND": true, "OR": true, "NOT": true, "AS": true, "SET": true,
	"VALUES": true, "SELECT": true, "INSERT": true, "UPDATE": true,
	"DELETE": true, "DISTINCT": true, "UNION": true, "EXCEPT": true,
	"INTERSECT": true, "BY": true, "ASC": true,
	"DESC": true, "IN": true, "IS": true, "LIKE": true, "BETWEEN": true,
	"EXISTS": true, "CASE": true, "WHEN": true, "THEN": true, "ELSE": true,
	"END": true, "NULL": true, "TRUE": true, "FALSE": true, "CROSS": true,
}

func (p *parser) statement() (ast.Statement, error) {
	switch {
	case p.atKeyword("CREATE"):
		return p.create()
	case p.atKeyword("DROP"):
		return p.drop()
	case p.atKeyword("INSERT"):
		return p.insert()
	case p.atKeyword("SELECT"):
		return p.selectStmt()
	case p.atKeyword("UPDATE"):
		return p.update()
	case p.atKeyword("DELETE"):
		return p.delete()
	case p.atKeyword("BEGIN"):
		p.advance()
		p.accept("TRANSACTION")
		p.accept("WORK")
		return &ast.Begin{}, nil
	case p.atKeyword("COMMIT"):
		p.advance()
		p.accept("WORK")
		return &ast.Commit{}, nil
	case p.atKeyword("ROLLBACK"):
		p.advance()
		p.accept("WORK")
		return &ast.Rollback{}, nil
	case p.atKeyword("SET"):
		return p.set()
	case p.atKeyword("SHOW"):
		p.advance()
		if err := p.expect("TABLES"); err != nil {
			return nil, err
		}
		return &ast.ShowTables{}, nil
	case p.atKeyword("DESCRIBE") || p.atKeyword("DESC"):
		p.advance()
		name, err := p.ident("table name")
		if err != nil {
			return nil, err
		}
		return &ast.Describe{Table: name}, nil
	case p.atKeyword("EXPLAIN"):
		p.advance()
		analyze := p.accept("ANALYZE")
		sel, err := p.selectBody()
		if err != nil {
			return nil, err
		}
		return &ast.Explain{Query: sel, Analyze: analyze}, nil
	default:
		return nil, p.errf("expected a statement, got %s", p.cur())
	}
}

func (p *parser) create() (ast.Statement, error) {
	p.advance() // CREATE
	switch {
	case p.accept("TABLE"):
		ifNot := false
		if p.accept("IF") {
			if err := p.expect("NOT"); err != nil {
				return nil, err
			}
			if err := p.expect("EXISTS"); err != nil {
				return nil, err
			}
			ifNot = true
		}
		name, err := p.ident("table name")
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		var cols []ast.ColumnDef
		for {
			cname, err := p.ident("column name")
			if err != nil {
				return nil, err
			}
			tname, err := p.typeName()
			if err != nil {
				return nil, err
			}
			col := ast.ColumnDef{Name: cname, TypeName: tname}
			if p.accept("NOT") {
				if err := p.expect("NULL"); err != nil {
					return nil, err
				}
				col.NotNull = true
			}
			cols = append(cols, col)
			if p.acceptSymbol(",") {
				continue
			}
			break
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return &ast.CreateTable{Name: name, IfNotExists: ifNot, Columns: cols}, nil
	case p.accept("INDEX"):
		name, err := p.ident("index name")
		if err != nil {
			return nil, err
		}
		if err := p.expect("ON"); err != nil {
			return nil, err
		}
		table, err := p.ident("table name")
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		col, err := p.ident("column name")
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		idx := &ast.CreateIndex{Name: name, Table: table, Column: col}
		if p.accept("USING") {
			kind, err := p.ident("index kind")
			if err != nil {
				return nil, err
			}
			switch strings.ToUpper(kind) {
			case "PERIOD":
				idx.Period = true
			case "HASH":
			default:
				return nil, p.errf("unknown index kind %s", kind)
			}
		}
		return idx, nil
	default:
		return nil, p.errf("expected TABLE or INDEX after CREATE")
	}
}

func (p *parser) drop() (ast.Statement, error) {
	p.advance() // DROP
	switch {
	case p.accept("TABLE"):
		ifEx := false
		if p.accept("IF") {
			if err := p.expect("EXISTS"); err != nil {
				return nil, err
			}
			ifEx = true
		}
		name, err := p.ident("table name")
		if err != nil {
			return nil, err
		}
		return &ast.DropTable{Name: name, IfExists: ifEx}, nil
	case p.accept("INDEX"):
		name, err := p.ident("index name")
		if err != nil {
			return nil, err
		}
		return &ast.DropIndex{Name: name}, nil
	default:
		return nil, p.errf("expected TABLE or INDEX after DROP")
	}
}

// typeName parses a type name with an optional ignored precision, e.g.
// CHAR(20) or VARCHAR(50).
func (p *parser) typeName() (string, error) {
	name, err := p.ident("type name")
	if err != nil {
		return "", err
	}
	if p.acceptSymbol("(") {
		if !p.at(scan.Number) {
			return "", p.errf("expected type precision")
		}
		p.advance()
		if p.acceptSymbol(",") {
			if !p.at(scan.Number) {
				return "", p.errf("expected type scale")
			}
			p.advance()
		}
		if err := p.expectSymbol(")"); err != nil {
			return "", err
		}
	}
	return name, nil
}

func (p *parser) insert() (ast.Statement, error) {
	p.advance() // INSERT
	if err := p.expect("INTO"); err != nil {
		return nil, err
	}
	table, err := p.ident("table name")
	if err != nil {
		return nil, err
	}
	ins := &ast.Insert{Table: table}
	if p.acceptSymbol("(") {
		for {
			c, err := p.ident("column name")
			if err != nil {
				return nil, err
			}
			ins.Columns = append(ins.Columns, c)
			if p.acceptSymbol(",") {
				continue
			}
			break
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
	}
	switch {
	case p.accept("VALUES"):
		for {
			if err := p.expectSymbol("("); err != nil {
				return nil, err
			}
			var row []ast.Expr
			for {
				e, err := p.expr()
				if err != nil {
					return nil, err
				}
				row = append(row, e)
				if p.acceptSymbol(",") {
					continue
				}
				break
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			ins.Rows = append(ins.Rows, row)
			if p.acceptSymbol(",") {
				continue
			}
			break
		}
		return ins, nil
	case p.atKeyword("SELECT"):
		sel, err := p.selectStmt()
		if err != nil {
			return nil, err
		}
		ins.Query = sel.(*ast.Select)
		return ins, nil
	default:
		return nil, p.errf("expected VALUES or SELECT in INSERT")
	}
}

func (p *parser) update() (ast.Statement, error) {
	p.advance() // UPDATE
	table, err := p.ident("table name")
	if err != nil {
		return nil, err
	}
	if err := p.expect("SET"); err != nil {
		return nil, err
	}
	up := &ast.Update{Table: table}
	for {
		col, err := p.ident("column name")
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol("="); err != nil {
			return nil, err
		}
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		up.Set = append(up.Set, ast.Assignment{Column: col, Value: e})
		if p.acceptSymbol(",") {
			continue
		}
		break
	}
	if p.accept("WHERE") {
		if up.Where, err = p.expr(); err != nil {
			return nil, err
		}
	}
	return up, nil
}

func (p *parser) delete() (ast.Statement, error) {
	p.advance() // DELETE
	if err := p.expect("FROM"); err != nil {
		return nil, err
	}
	table, err := p.ident("table name")
	if err != nil {
		return nil, err
	}
	del := &ast.Delete{Table: table}
	if p.accept("WHERE") {
		if del.Where, err = p.expr(); err != nil {
			return nil, err
		}
	}
	return del, nil
}

func (p *parser) set() (ast.Statement, error) {
	p.advance() // SET
	kind := 0   // 0 = NOW, 1 = STATEMENT_TIMEOUT, 2 = STATEMENT_MEMORY
	switch {
	case p.accept("NOW"):
	case p.accept("STATEMENT_TIMEOUT"):
		kind = 1
	case p.accept("STATEMENT_MEMORY"):
		kind = 2
	default:
		return nil, p.errf("only SET NOW, SET STATEMENT_TIMEOUT and SET STATEMENT_MEMORY are supported")
	}
	if err := p.expectSymbol("="); err != nil {
		return nil, err
	}
	if p.accept("DEFAULT") {
		switch kind {
		case 1:
			return &ast.SetTimeout{}, nil
		case 2:
			return &ast.SetMemory{}, nil
		}
		return &ast.SetNow{}, nil
	}
	e, err := p.expr()
	if err != nil {
		return nil, err
	}
	switch kind {
	case 1:
		return &ast.SetTimeout{Value: e}, nil
	case 2:
		return &ast.SetMemory{Value: e}, nil
	}
	return &ast.SetNow{Value: e}, nil
}

func (p *parser) selectStmt() (ast.Statement, error) {
	sel, err := p.selectBody()
	if err != nil {
		return nil, err
	}
	return sel, nil
}

// selectBody parses a possibly-compound select: a core, any chain of
// UNION [ALL] / EXCEPT / INTERSECT cores (left-associative), and a
// trailing ORDER BY / LIMIT / OFFSET that applies to the combination.
func (p *parser) selectBody() (*ast.Select, error) {
	sel, err := p.selectCore()
	if err != nil {
		return nil, err
	}
	for {
		var op string
		switch {
		case p.accept("UNION"):
			op = "UNION"
		case p.accept("EXCEPT"):
			op = "EXCEPT"
		case p.accept("INTERSECT"):
			op = "INTERSECT"
		default:
			op = ""
		}
		if op == "" {
			break
		}
		part := ast.SetPart{Op: op}
		if op == "UNION" && p.accept("ALL") {
			part.All = true
		}
		rhs, err := p.selectCore()
		if err != nil {
			return nil, err
		}
		part.Sel = rhs
		sel.SetOps = append(sel.SetOps, part)
	}
	if p.accept("ORDER") {
		if err := p.expect("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			item := ast.OrderItem{Expr: e}
			if p.accept("DESC") {
				item.Desc = true
			} else {
				p.accept("ASC")
			}
			sel.OrderBy = append(sel.OrderBy, item)
			if p.acceptSymbol(",") {
				continue
			}
			break
		}
	}
	if p.accept("LIMIT") {
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		sel.Limit = e
	}
	if p.accept("OFFSET") {
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		sel.Offset = e
	}
	return sel, nil
}

// selectCore parses one SELECT ... [FROM ... WHERE ... GROUP BY ...
// HAVING ...] block without ORDER BY/LIMIT (those belong to the
// enclosing compound).
func (p *parser) selectCore() (*ast.Select, error) {
	if err := p.expect("SELECT"); err != nil {
		return nil, err
	}
	sel := &ast.Select{}
	if p.accept("DISTINCT") {
		sel.Distinct = true
	} else {
		p.accept("ALL")
	}
	// Select list.
	for {
		item, err := p.selectItem()
		if err != nil {
			return nil, err
		}
		sel.Items = append(sel.Items, item)
		if p.acceptSymbol(",") {
			continue
		}
		break
	}
	if p.accept("FROM") {
		ref, err := p.tableRef()
		if err != nil {
			return nil, err
		}
		sel.From = append(sel.From, ref)
		for {
			if p.acceptSymbol(",") {
				ref, err := p.tableRef()
				if err != nil {
					return nil, err
				}
				sel.From = append(sel.From, ref)
				continue
			}
			if p.accept("CROSS") {
				if err := p.expect("JOIN"); err != nil {
					return nil, err
				}
				ref, err := p.tableRef()
				if err != nil {
					return nil, err
				}
				sel.From = append(sel.From, ref)
				continue
			}
			// LEFT [OUTER] JOIN keeps its ON condition on the table ref
			// (outer semantics); INNER JOIN ... ON desugars to a cross
			// product plus a WHERE conjunct.
			if p.accept("LEFT") {
				p.accept("OUTER")
				if err := p.expect("JOIN"); err != nil {
					return nil, err
				}
				ref, err := p.tableRef()
				if err != nil {
					return nil, err
				}
				if err := p.expect("ON"); err != nil {
					return nil, err
				}
				cond, err := p.expr()
				if err != nil {
					return nil, err
				}
				ref.LeftJoin = true
				ref.On = cond
				sel.From = append(sel.From, ref)
				continue
			}
			inner := p.accept("INNER")
			if p.accept("JOIN") {
				ref, err := p.tableRef()
				if err != nil {
					return nil, err
				}
				sel.From = append(sel.From, ref)
				if err := p.expect("ON"); err != nil {
					return nil, err
				}
				cond, err := p.expr()
				if err != nil {
					return nil, err
				}
				if sel.Where == nil {
					sel.Where = cond
				} else {
					sel.Where = &ast.Binary{Op: "AND", L: sel.Where, R: cond}
				}
				continue
			}
			if inner {
				return nil, p.errf("expected JOIN after INNER")
			}
			break
		}
	}
	if p.accept("WHERE") {
		cond, err := p.expr()
		if err != nil {
			return nil, err
		}
		if sel.Where == nil {
			sel.Where = cond
		} else {
			sel.Where = &ast.Binary{Op: "AND", L: sel.Where, R: cond}
		}
	}
	if p.accept("GROUP") {
		if err := p.expect("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			sel.GroupBy = append(sel.GroupBy, e)
			if p.acceptSymbol(",") {
				continue
			}
			break
		}
	}
	if p.accept("HAVING") {
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		sel.Having = e
	}
	return sel, nil
}

func (p *parser) selectItem() (ast.SelectItem, error) {
	// "*" or "t.*"
	if p.cur().IsSymbol("*") {
		p.advance()
		return ast.SelectItem{Star: true}, nil
	}
	if p.at(scan.Ident) && p.pos+2 < len(p.toks) &&
		p.toks[p.pos+1].IsSymbol(".") && p.toks[p.pos+2].IsSymbol("*") {
		t := p.advance().Text
		p.advance() // .
		p.advance() // *
		return ast.SelectItem{Star: true, StarTable: t}, nil
	}
	e, err := p.expr()
	if err != nil {
		return ast.SelectItem{}, err
	}
	item := ast.SelectItem{Expr: e}
	if p.accept("AS") {
		a, err := p.ident("alias")
		if err != nil {
			return ast.SelectItem{}, err
		}
		item.Alias = a
	} else if p.at(scan.Ident) && !reserved[p.cur().Keyword()] {
		item.Alias = p.advance().Text
	}
	return item, nil
}

func (p *parser) tableRef() (ast.TableRef, error) {
	var ref ast.TableRef
	if p.acceptSymbol("(") {
		sub, err := p.selectBody()
		if err != nil {
			return ref, err
		}
		if err := p.expectSymbol(")"); err != nil {
			return ref, err
		}
		ref.Subquery = sub
	} else {
		name, err := p.ident("table name")
		if err != nil {
			return ref, err
		}
		ref.Table = name
	}
	if p.accept("AS") {
		a, err := p.ident("alias")
		if err != nil {
			return ref, err
		}
		ref.Alias = a
	} else if p.at(scan.Ident) && !reserved[p.cur().Keyword()] {
		ref.Alias = p.advance().Text
	}
	if ref.Subquery != nil && ref.Alias == "" {
		return ref, p.errf("derived table requires an alias")
	}
	return ref, nil
}

// ------------------------------------------------------------- expressions

// expr parses with precedence climbing: OR < AND < NOT < predicates <
// additive < multiplicative < unary < cast < primary.
func (p *parser) expr() (ast.Expr, error) { return p.orExpr() }

func (p *parser) orExpr() (ast.Expr, error) {
	l, err := p.andExpr()
	if err != nil {
		return nil, err
	}
	for p.accept("OR") {
		r, err := p.andExpr()
		if err != nil {
			return nil, err
		}
		l = &ast.Binary{Op: "OR", L: l, R: r}
	}
	return l, nil
}

func (p *parser) andExpr() (ast.Expr, error) {
	l, err := p.notExpr()
	if err != nil {
		return nil, err
	}
	for p.accept("AND") {
		r, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		l = &ast.Binary{Op: "AND", L: l, R: r}
	}
	return l, nil
}

func (p *parser) notExpr() (ast.Expr, error) {
	if p.accept("NOT") {
		x, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		return &ast.Unary{Op: "NOT", X: x}, nil
	}
	return p.predicate()
}

func (p *parser) predicate() (ast.Expr, error) {
	l, err := p.additive()
	if err != nil {
		return nil, err
	}
	// Postfix predicate forms.
	for {
		switch {
		case p.cur().IsSymbol("=") || p.cur().IsSymbol("<>") || p.cur().IsSymbol("!=") ||
			p.cur().IsSymbol("<") || p.cur().IsSymbol("<=") ||
			p.cur().IsSymbol(">") || p.cur().IsSymbol(">="):
			op := p.advance().Text
			if op == "!=" {
				op = "<>"
			}
			r, err := p.additive()
			if err != nil {
				return nil, err
			}
			l = &ast.Binary{Op: op, L: l, R: r}
		case p.atKeyword("IS"):
			p.advance()
			not := p.accept("NOT")
			if err := p.expect("NULL"); err != nil {
				return nil, err
			}
			l = &ast.IsNull{X: l, Not: not}
		case p.atKeyword("BETWEEN"):
			p.advance()
			lo, err := p.additive()
			if err != nil {
				return nil, err
			}
			if err := p.expect("AND"); err != nil {
				return nil, err
			}
			hi, err := p.additive()
			if err != nil {
				return nil, err
			}
			l = &ast.Between{X: l, Lo: lo, Hi: hi}
		case p.atKeyword("IN"):
			p.advance()
			in, err := p.inTail(l, false)
			if err != nil {
				return nil, err
			}
			l = in
		case p.atKeyword("LIKE"):
			p.advance()
			pat, err := p.additive()
			if err != nil {
				return nil, err
			}
			l = &ast.Like{X: l, Pattern: pat}
		case p.atKeyword("NOT"):
			// expr NOT IN / NOT BETWEEN / NOT LIKE
			save := p.pos
			p.advance()
			switch {
			case p.accept("IN"):
				in, err := p.inTail(l, true)
				if err != nil {
					return nil, err
				}
				l = in
			case p.accept("BETWEEN"):
				lo, err := p.additive()
				if err != nil {
					return nil, err
				}
				if err := p.expect("AND"); err != nil {
					return nil, err
				}
				hi, err := p.additive()
				if err != nil {
					return nil, err
				}
				l = &ast.Between{X: l, Lo: lo, Hi: hi, Not: true}
			case p.accept("LIKE"):
				pat, err := p.additive()
				if err != nil {
					return nil, err
				}
				l = &ast.Like{X: l, Pattern: pat, Not: true}
			default:
				p.pos = save
				return l, nil
			}
		default:
			return l, nil
		}
	}
}

func (p *parser) inTail(l ast.Expr, not bool) (ast.Expr, error) {
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	if p.atKeyword("SELECT") {
		sub, err := p.selectBody()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return &ast.InList{X: l, Subquery: sub, Not: not}, nil
	}
	var list []ast.Expr
	for {
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		list = append(list, e)
		if p.acceptSymbol(",") {
			continue
		}
		break
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	return &ast.InList{X: l, List: list, Not: not}, nil
}

func (p *parser) additive() (ast.Expr, error) {
	l, err := p.multiplicative()
	if err != nil {
		return nil, err
	}
	for {
		var op string
		switch {
		case p.cur().IsSymbol("+"):
			op = "+"
		case p.cur().IsSymbol("-"):
			op = "-"
		case p.cur().IsSymbol("||"):
			op = "||"
		default:
			return l, nil
		}
		p.advance()
		r, err := p.multiplicative()
		if err != nil {
			return nil, err
		}
		l = &ast.Binary{Op: op, L: l, R: r}
	}
}

func (p *parser) multiplicative() (ast.Expr, error) {
	l, err := p.unary()
	if err != nil {
		return nil, err
	}
	for {
		var op string
		switch {
		case p.cur().IsSymbol("*"):
			op = "*"
		case p.cur().IsSymbol("/"):
			op = "/"
		case p.cur().IsSymbol("%"):
			op = "%"
		default:
			return l, nil
		}
		p.advance()
		r, err := p.unary()
		if err != nil {
			return nil, err
		}
		l = &ast.Binary{Op: op, L: l, R: r}
	}
}

func (p *parser) unary() (ast.Expr, error) {
	if p.acceptSymbol("-") {
		x, err := p.unary()
		if err != nil {
			return nil, err
		}
		// Fold negative numeric literals.
		switch lit := x.(type) {
		case *ast.IntLit:
			return &ast.IntLit{V: -lit.V}, nil
		case *ast.FloatLit:
			return &ast.FloatLit{V: -lit.V}, nil
		}
		return &ast.Unary{Op: "-", X: x}, nil
	}
	if p.acceptSymbol("+") {
		return p.unary()
	}
	return p.castExpr()
}

// castExpr handles the postfix Informix cast operator (::), which binds
// tighter than any arithmetic: '7 00:00:00'::Span * :w multiplies the
// casted span.
func (p *parser) castExpr() (ast.Expr, error) {
	x, err := p.primary()
	if err != nil {
		return nil, err
	}
	for p.acceptSymbol("::") {
		t, err := p.typeName()
		if err != nil {
			return nil, err
		}
		x = &ast.Cast{X: x, TypeName: t}
	}
	return x, nil
}

func (p *parser) primary() (ast.Expr, error) {
	t := p.cur()
	switch {
	case t.Kind == scan.Number:
		p.advance()
		if t.IsFloat {
			v, err := strconv.ParseFloat(t.Text, 64)
			if err != nil {
				return nil, p.errf("bad float literal %s", t.Text)
			}
			return &ast.FloatLit{V: v}, nil
		}
		v, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return nil, p.errf("bad integer literal %s", t.Text)
		}
		return &ast.IntLit{V: v}, nil
	case t.Kind == scan.String:
		p.advance()
		return &ast.StringLit{V: t.Text}, nil
	case t.Kind == scan.Param:
		p.advance()
		return &ast.Param{Name: t.Text}, nil
	case t.IsSymbol("("):
		p.advance()
		if p.atKeyword("SELECT") {
			sub, err := p.selectBody()
			if err != nil {
				return nil, err
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			return &ast.Subquery{Query: sub}, nil
		}
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return e, nil
	case t.IsKeyword("NULL"):
		p.advance()
		return &ast.NullLit{}, nil
	case t.IsKeyword("TRUE"):
		p.advance()
		return &ast.BoolLit{V: true}, nil
	case t.IsKeyword("FALSE"):
		p.advance()
		return &ast.BoolLit{V: false}, nil
	case t.IsKeyword("EXISTS"):
		p.advance()
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		sub, err := p.selectBody()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return &ast.Exists{Subquery: sub}, nil
	case t.IsKeyword("CASE"):
		return p.caseExpr()
	case t.IsKeyword("CAST"):
		p.advance()
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		x, err := p.expr()
		if err != nil {
			return nil, err
		}
		if err := p.expect("AS"); err != nil {
			return nil, err
		}
		tn, err := p.typeName()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return &ast.Cast{X: x, TypeName: tn}, nil
	case t.Kind == scan.Ident:
		name := p.advance().Text
		// Function call? (call syntax may reuse reserved words such as
		// intersect).
		if p.cur().IsSymbol("(") {
			return p.callTail(name)
		}
		// A bare reserved word is a clause keyword leaking into
		// expression position (e.g. "SELECT FROM t"), not a column.
		if reserved[strings.ToUpper(name)] {
			return nil, p.errf("unexpected keyword %s in expression", name)
		}
		// Qualified column t.c?
		if p.acceptSymbol(".") {
			col, err := p.ident("column name")
			if err != nil {
				return nil, err
			}
			if reserved[strings.ToUpper(col)] {
				return nil, p.errf("unexpected keyword %s after %s.", col, name)
			}
			return &ast.ColumnRef{Table: name, Column: col}, nil
		}
		return &ast.ColumnRef{Column: name}, nil
	default:
		return nil, p.errf("unexpected %s in expression", t)
	}
}

func (p *parser) callTail(name string) (ast.Expr, error) {
	p.advance() // (
	call := &ast.Call{Name: name}
	if p.cur().IsSymbol("*") {
		p.advance()
		call.Star = true
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return call, nil
	}
	if p.acceptSymbol(")") {
		return call, nil
	}
	if p.accept("DISTINCT") {
		call.Distinct = true
	}
	for {
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		call.Args = append(call.Args, e)
		if p.acceptSymbol(",") {
			continue
		}
		break
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	return call, nil
}

func (p *parser) caseExpr() (ast.Expr, error) {
	p.advance() // CASE
	c := &ast.Case{}
	if !p.atKeyword("WHEN") {
		op, err := p.expr()
		if err != nil {
			return nil, err
		}
		c.Operand = op
	}
	for p.accept("WHEN") {
		cond, err := p.expr()
		if err != nil {
			return nil, err
		}
		if err := p.expect("THEN"); err != nil {
			return nil, err
		}
		then, err := p.expr()
		if err != nil {
			return nil, err
		}
		c.Whens = append(c.Whens, ast.When{Cond: cond, Then: then})
	}
	if len(c.Whens) == 0 {
		return nil, p.errf("CASE requires at least one WHEN")
	}
	if p.accept("ELSE") {
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		c.Else = e
	}
	if err := p.expect("END"); err != nil {
		return nil, err
	}
	return c, nil
}
