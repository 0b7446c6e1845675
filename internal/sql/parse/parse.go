// Package parse turns SQL text into the ast package's statement nodes.
// The dialect covers the statements the paper's examples and the
// layered baseline need: CREATE/DROP TABLE, CREATE/DROP INDEX, INSERT
// (VALUES and SELECT forms), SELECT with joins, WHERE, GROUP BY, HAVING,
// ORDER BY, LIMIT/OFFSET and DISTINCT, UPDATE, DELETE, transaction
// control, and SET NOW for what-if evaluation. Expressions include the
// Informix explicit-cast operator (::), named parameters (:name),
// EXISTS/IN/scalar subqueries, CASE, BETWEEN and LIKE.
//
// The parser is built for the plan cache's miss path: it pulls tokens
// from the scanner on demand (never materialising a token slice), keeps
// a two-token lookahead window, dispatches keywords and operators on
// the integer ids the lexer stamps on each token, and allocates AST
// nodes from a per-parse arena embedded in the parser. A representative
// single-table SELECT costs a handful of heap allocations total; see
// arena.go for the slab design and the lifetime rules.
//
// Expressions are parsed with a single Pratt (precedence-climbing)
// loop over a binding-power table instead of one recursive function per
// precedence level. The grammar and operator precedence are unchanged
// from the recursive-descent parser this replaced (frozen in the
// refparse package for differential testing):
//
//	OR < AND < NOT < comparisons/IS/BETWEEN/IN/LIKE < +,-,|| < *,/,% < unary -,+ < ::
//
// Parse errors report line:column as well as the byte offset.
package parse

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
	var p parser
	p.init(sql)
	st, err := p.statement()
	if err != nil {
		return nil, p.firstErr(err)
	}
	p.acceptSym(scan.SymSemi)
	if p.cur.Kind != scan.EOF {
		return nil, p.firstErr(p.errf("unexpected %s after statement", p.cur))
	}
	// Lexing is lazy, so a lexical error past the last token the
	// grammar needed surfaces here rather than up front.
	if p.lexErr != nil {
		return nil, p.lexErr
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
	var p parser
	p.init(sql)
	var out []ScriptPart
	for {
		for p.acceptSym(scan.SymSemi) {
		}
		if p.cur.Kind == scan.EOF {
			if p.lexErr != nil {
				return nil, p.lexErr
			}
			return out, nil
		}
		start := p.cur.Pos
		st, err := p.statement()
		if err != nil {
			return nil, p.firstErr(err)
		}
		// The current token is the terminator (';' or EOF); its offset
		// bounds the statement's text.
		text := strings.TrimSpace(p.src[start:p.cur.Pos])
		out = append(out, ScriptPart{Stmt: st, SQL: text})
		if !p.acceptSym(scan.SymSemi) && p.cur.Kind != scan.EOF {
			return nil, p.firstErr(p.errf("expected ';' between statements, got %s", p.cur))
		}
	}
}

// parser streams tokens from the embedded lexer through a two-token
// window (cur plus a lazily fetched peek). The parser itself lives on
// the caller's stack — only the arena it points at is heap-allocated,
// because the arena's slabs become part of the returned AST. Keeping
// the token window on the stack means the pump (fetch/advance) stores
// tokens without GC write barriers.
type parser struct {
	src     string
	lex     scan.Lexer
	cur     scan.Token
	peek    scan.Token
	hasPeek bool
	lexErr  error
	a       *arena
}

func (p *parser) init(sql string) {
	p.src = sql
	p.a = &arena{}
	p.lex.Init(sql)
	p.fetch(&p.cur)
}

// fetch pulls the next token into dst (in place — no token copies). A
// lexical error is recorded once and replaced by a synthetic EOF so the
// grammar code stays error-free; the API entry points report lexErr in
// preference to any parse error it caused, matching the eager-lexing
// parser's behaviour.
func (p *parser) fetch(dst *scan.Token) {
	if err := p.lex.Next(dst); err != nil {
		if p.lexErr == nil {
			p.lexErr = err
		}
		*dst = scan.Token{Kind: scan.EOF, Pos: int32(len(p.src))}
	}
}

// firstErr picks the error to surface at an API boundary.
func (p *parser) firstErr(err error) error {
	if p.lexErr != nil {
		return p.lexErr
	}
	return err
}

// peekTok returns a pointer to the lookahead token (valid until the
// next advance) rather than a copy of it.
func (p *parser) peekTok() *scan.Token {
	if !p.hasPeek {
		if p.cur.Kind == scan.EOF {
			return &p.cur
		}
		p.fetch(&p.peek)
		p.hasPeek = true
	}
	return &p.peek
}

// advance consumes the current token and slides the window. It
// deliberately returns nothing: handing back the consumed 24-byte
// token put a wide struct copy — and a store-forwarding stall against
// the lexer's narrow field stores — on every single consume. Callers
// that need the consumed token read its fields from p.cur first.
// The peek-consuming branch is outlined (and kept out of the inliner's
// cost budget): lookahead is used in only two grammar spots, so the hot
// consume path is branch + fetch, which lets advance — and the accept
// helpers wrapping it — inline into the grammar code.
func (p *parser) advance() {
	if p.hasPeek {
		p.takePeek()
	} else if p.cur.Kind != scan.EOF {
		p.fetch(&p.cur)
	}
}

//go:noinline
func (p *parser) takePeek() {
	p.cur, p.hasPeek = p.peek, false
}

func (p *parser) errf(format string, args ...any) error {
	line, col := scan.LineCol(p.src, int(p.cur.Pos))
	return fmt.Errorf("sql: %s (line %d:%d, offset %d)",
		fmt.Sprintf(format, args...), line, col, p.cur.Pos)
}

// acceptKw consumes the keyword if the current token is it.
func (p *parser) acceptKw(k scan.KwID) bool {
	if p.cur.Kw == k {
		p.advance()
		return true
	}
	return false
}

// expectKw consumes the keyword or fails. The error construction is
// outlined so the success path inlines.
func (p *parser) expectKw(k scan.KwID) error {
	if p.cur.Kw == k {
		p.advance()
		return nil
	}
	return p.expectKwErr(k)
}

//go:noinline
func (p *parser) expectKwErr(k scan.KwID) error {
	return p.errf("expected %s, got %s", k, p.cur)
}

// acceptSym consumes the symbol if the current token is it.
func (p *parser) acceptSym(s scan.SymID) bool {
	if p.cur.Sym == s {
		p.advance()
		return true
	}
	return false
}

// expectSym consumes the symbol or fails; see expectKw.
func (p *parser) expectSym(s scan.SymID) error {
	if p.cur.Sym == s {
		p.advance()
		return nil
	}
	return p.expectSymErr(s)
}

//go:noinline
func (p *parser) expectSymErr(s scan.SymID) error {
	return p.errf("expected %q, got %s", s.String(), p.cur)
}

// ident consumes an identifier.
func (p *parser) ident(what string) (string, error) {
	if p.cur.Kind != scan.Ident {
		return "", p.errf("expected %s, got %s", what, p.cur)
	}
	text := p.cur.Text
	p.advance()
	return text, nil
}

func (p *parser) statement() (ast.Statement, error) {
	switch p.cur.Kw {
	case scan.KwCreate:
		return p.create()
	case scan.KwDrop:
		return p.drop()
	case scan.KwInsert:
		return p.insert()
	case scan.KwSelect:
		return p.selectBody()
	case scan.KwUpdate:
		return p.update()
	case scan.KwDelete:
		return p.delete()
	case scan.KwBegin:
		p.advance()
		p.acceptKw(scan.KwTransaction)
		p.acceptKw(scan.KwWork)
		return &ast.Begin{}, nil
	case scan.KwCommit:
		p.advance()
		p.acceptKw(scan.KwWork)
		return &ast.Commit{}, nil
	case scan.KwRollback:
		p.advance()
		p.acceptKw(scan.KwWork)
		return &ast.Rollback{}, nil
	case scan.KwSet:
		return p.set()
	case scan.KwShow:
		p.advance()
		if err := p.expectKw(scan.KwTables); err != nil {
			return nil, err
		}
		return &ast.ShowTables{}, nil
	case scan.KwDescribe, scan.KwDesc:
		p.advance()
		name, err := p.ident("table name")
		if err != nil {
			return nil, err
		}
		return &ast.Describe{Table: name}, nil
	case scan.KwExplain:
		p.advance()
		analyze := p.acceptKw(scan.KwAnalyze)
		sel, err := p.selectBody()
		if err != nil {
			return nil, err
		}
		return &ast.Explain{Query: sel, Analyze: analyze}, nil
	default:
		return nil, p.errf("expected a statement, got %s", p.cur)
	}
}

func (p *parser) create() (ast.Statement, error) {
	p.advance() // CREATE
	switch {
	case p.acceptKw(scan.KwTable):
		ifNot := false
		if p.acceptKw(scan.KwIf) {
			if err := p.expectKw(scan.KwNot); err != nil {
				return nil, err
			}
			if err := p.expectKw(scan.KwExists); err != nil {
				return nil, err
			}
			ifNot = true
		}
		name, err := p.ident("table name")
		if err != nil {
			return nil, err
		}
		if err := p.expectSym(scan.SymLParen); err != nil {
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
			if p.acceptKw(scan.KwNot) {
				if err := p.expectKw(scan.KwNull); err != nil {
					return nil, err
				}
				col.NotNull = true
			}
			cols = append(cols, col)
			if p.acceptSym(scan.SymComma) {
				continue
			}
			break
		}
		if err := p.expectSym(scan.SymRParen); err != nil {
			return nil, err
		}
		return &ast.CreateTable{Name: name, IfNotExists: ifNot, Columns: cols}, nil
	case p.acceptKw(scan.KwIndex):
		name, err := p.ident("index name")
		if err != nil {
			return nil, err
		}
		if err := p.expectKw(scan.KwOn); err != nil {
			return nil, err
		}
		table, err := p.ident("table name")
		if err != nil {
			return nil, err
		}
		if err := p.expectSym(scan.SymLParen); err != nil {
			return nil, err
		}
		col, err := p.ident("column name")
		if err != nil {
			return nil, err
		}
		if err := p.expectSym(scan.SymRParen); err != nil {
			return nil, err
		}
		idx := &ast.CreateIndex{Name: name, Table: table, Column: col}
		if p.acceptKw(scan.KwUsing) {
			kindTok := p.cur
			kind, err := p.ident("index kind")
			if err != nil {
				return nil, err
			}
			switch kindTok.Kw {
			case scan.KwPeriod:
				idx.Period = true
			case scan.KwHash:
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
	case p.acceptKw(scan.KwTable):
		ifEx := false
		if p.acceptKw(scan.KwIf) {
			if err := p.expectKw(scan.KwExists); err != nil {
				return nil, err
			}
			ifEx = true
		}
		name, err := p.ident("table name")
		if err != nil {
			return nil, err
		}
		return &ast.DropTable{Name: name, IfExists: ifEx}, nil
	case p.acceptKw(scan.KwIndex):
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
// CHAR(20) or VARCHAR(50). Reserved words are allowed — type names live
// in their own namespace.
func (p *parser) typeName() (string, error) {
	name, err := p.ident("type name")
	if err != nil {
		return "", err
	}
	if p.acceptSym(scan.SymLParen) {
		if p.cur.Kind != scan.Number {
			return "", p.errf("expected type precision")
		}
		p.advance()
		if p.acceptSym(scan.SymComma) {
			if p.cur.Kind != scan.Number {
				return "", p.errf("expected type scale")
			}
			p.advance()
		}
		if err := p.expectSym(scan.SymRParen); err != nil {
			return "", err
		}
	}
	return name, nil
}

func (p *parser) insert() (ast.Statement, error) {
	p.advance() // INSERT
	if err := p.expectKw(scan.KwInto); err != nil {
		return nil, err
	}
	table, err := p.ident("table name")
	if err != nil {
		return nil, err
	}
	ins := &ast.Insert{Table: table}
	if p.acceptSym(scan.SymLParen) {
		for {
			c, err := p.ident("column name")
			if err != nil {
				return nil, err
			}
			ins.Columns = append(ins.Columns, c)
			if p.acceptSym(scan.SymComma) {
				continue
			}
			break
		}
		if err := p.expectSym(scan.SymRParen); err != nil {
			return nil, err
		}
	}
	switch {
	case p.acceptKw(scan.KwValues):
		for {
			if err := p.expectSym(scan.SymLParen); err != nil {
				return nil, err
			}
			row := make([]ast.Expr, 0, 8)
			for {
				e, err := p.expr()
				if err != nil {
					return nil, err
				}
				row = append(row, e)
				if p.acceptSym(scan.SymComma) {
					continue
				}
				break
			}
			if err := p.expectSym(scan.SymRParen); err != nil {
				return nil, err
			}
			ins.Rows = append(ins.Rows, row)
			if p.acceptSym(scan.SymComma) {
				continue
			}
			break
		}
		return ins, nil
	case p.cur.Kw == scan.KwSelect:
		sel, err := p.selectBody()
		if err != nil {
			return nil, err
		}
		ins.Query = sel
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
	if err := p.expectKw(scan.KwSet); err != nil {
		return nil, err
	}
	up := &ast.Update{Table: table}
	for {
		col, err := p.ident("column name")
		if err != nil {
			return nil, err
		}
		if err := p.expectSym(scan.SymEq); err != nil {
			return nil, err
		}
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		up.Set = append(up.Set, ast.Assignment{Column: col, Value: e})
		if p.acceptSym(scan.SymComma) {
			continue
		}
		break
	}
	if p.acceptKw(scan.KwWhere) {
		if up.Where, err = p.expr(); err != nil {
			return nil, err
		}
	}
	return up, nil
}

func (p *parser) delete() (ast.Statement, error) {
	p.advance() // DELETE
	if err := p.expectKw(scan.KwFrom); err != nil {
		return nil, err
	}
	table, err := p.ident("table name")
	if err != nil {
		return nil, err
	}
	del := &ast.Delete{Table: table}
	if p.acceptKw(scan.KwWhere) {
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
	case p.acceptKw(scan.KwNow):
	case p.acceptKw(scan.KwStatementTimeout):
		kind = 1
	case p.acceptKw(scan.KwStatementMemory):
		kind = 2
	default:
		return nil, p.errf("only SET NOW, SET STATEMENT_TIMEOUT and SET STATEMENT_MEMORY are supported")
	}
	if err := p.expectSym(scan.SymEq); err != nil {
		return nil, err
	}
	if p.acceptKw(scan.KwDefault) {
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
		switch p.cur.Kw {
		case scan.KwUnion:
			op = "UNION"
		case scan.KwExcept:
			op = "EXCEPT"
		case scan.KwIntersect:
			op = "INTERSECT"
		default:
			return p.selectTail(sel)
		}
		p.advance()
		part := ast.SetPart{Op: op}
		if op == "UNION" && p.acceptKw(scan.KwAll) {
			part.All = true
		}
		rhs, err := p.selectCore()
		if err != nil {
			return nil, err
		}
		part.Sel = rhs
		sel.SetOps = append(sel.SetOps, part)
	}
}

// selectTail parses the ORDER BY / LIMIT / OFFSET that closes a
// (possibly compound) select.
func (p *parser) selectTail(sel *ast.Select) (*ast.Select, error) {
	if p.acceptKw(scan.KwOrder) {
		if err := p.expectKw(scan.KwBy); err != nil {
			return nil, err
		}
		sel.OrderBy = p.a.orders()
		for {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			item := ast.OrderItem{Expr: e}
			if p.acceptKw(scan.KwDesc) {
				item.Desc = true
			} else {
				p.acceptKw(scan.KwAsc)
			}
			sel.OrderBy = append(sel.OrderBy, item)
			if p.acceptSym(scan.SymComma) {
				continue
			}
			break
		}
	}
	if p.acceptKw(scan.KwLimit) {
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		sel.Limit = e
	}
	if p.acceptKw(scan.KwOffset) {
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
	if err := p.expectKw(scan.KwSelect); err != nil {
		return nil, err
	}
	sel := p.a.sel()
	if p.acceptKw(scan.KwDistinct) {
		sel.Distinct = true
	} else {
		p.acceptKw(scan.KwAll)
	}
	sel.Items = p.a.items()
	for {
		// Append the zero item first and parse into the slot: a
		// SelectItem is 56 pointer-bearing bytes, and building it on
		// the stack only to copy it into the heap slice would pay the
		// move plus its write barriers on every item.
		sel.Items = append(sel.Items, ast.SelectItem{})
		if err := p.selectItem(&sel.Items[len(sel.Items)-1]); err != nil {
			return nil, err
		}
		if p.acceptSym(scan.SymComma) {
			continue
		}
		break
	}
	if p.acceptKw(scan.KwFrom) {
		sel.From = p.a.froms()
		if _, err := p.fromRef(sel); err != nil {
			return nil, err
		}
		for {
			if p.acceptSym(scan.SymComma) {
				if _, err := p.fromRef(sel); err != nil {
					return nil, err
				}
				continue
			}
			if p.acceptKw(scan.KwCross) {
				if err := p.expectKw(scan.KwJoin); err != nil {
					return nil, err
				}
				if _, err := p.fromRef(sel); err != nil {
					return nil, err
				}
				continue
			}
			// LEFT [OUTER] JOIN keeps its ON condition on the table ref
			// (outer semantics); INNER JOIN ... ON desugars to a cross
			// product plus a WHERE conjunct.
			if p.acceptKw(scan.KwLeft) {
				p.acceptKw(scan.KwOuter)
				if err := p.expectKw(scan.KwJoin); err != nil {
					return nil, err
				}
				ref, err := p.fromRef(sel)
				if err != nil {
					return nil, err
				}
				if err := p.expectKw(scan.KwOn); err != nil {
					return nil, err
				}
				cond, err := p.expr()
				if err != nil {
					return nil, err
				}
				ref.LeftJoin = true
				ref.On = cond
				continue
			}
			inner := p.acceptKw(scan.KwInner)
			if p.acceptKw(scan.KwJoin) {
				if _, err := p.fromRef(sel); err != nil {
					return nil, err
				}
				if err := p.expectKw(scan.KwOn); err != nil {
					return nil, err
				}
				cond, err := p.expr()
				if err != nil {
					return nil, err
				}
				if sel.Where == nil {
					sel.Where = cond
				} else {
					sel.Where = p.a.binary("AND", sel.Where, cond)
				}
				continue
			}
			if inner {
				return nil, p.errf("expected JOIN after INNER")
			}
			break
		}
	}
	if p.acceptKw(scan.KwWhere) {
		cond, err := p.expr()
		if err != nil {
			return nil, err
		}
		if sel.Where == nil {
			sel.Where = cond
		} else {
			sel.Where = p.a.binary("AND", sel.Where, cond)
		}
	}
	if p.acceptKw(scan.KwGroup) {
		if err := p.expectKw(scan.KwBy); err != nil {
			return nil, err
		}
		sel.GroupBy = p.a.exprs()
		for {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			sel.GroupBy = append(sel.GroupBy, e)
			if p.acceptSym(scan.SymComma) {
				continue
			}
			break
		}
	}
	if p.acceptKw(scan.KwHaving) {
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		sel.Having = e
	}
	return sel, nil
}

// selectItem parses one select-list item into dst (a freshly appended
// zero slot; on error the caller discards the whole list).
func (p *parser) selectItem(dst *ast.SelectItem) error {
	// "*" or "t.*"
	if p.cur.Sym == scan.SymStar {
		p.advance()
		dst.Star = true
		return nil
	}
	var e ast.Expr
	var err error
	if p.cur.Kind == scan.Ident && p.peekTok().Sym == scan.SymDot {
		// The window is two tokens, so commit to "name." here and
		// decide between "t.*" and a qualified column once the third
		// token becomes current.
		nameText, nameKw := p.cur.Text, p.cur.Kw
		p.advance()
		p.advance() // .
		if p.cur.Sym == scan.SymStar {
			p.advance()
			dst.Star, dst.StarTable = true, nameText
			return nil
		}
		e, err = p.qualifiedRest(nameText, nameKw)
	} else {
		e, err = p.expr()
	}
	if err != nil {
		return err
	}
	dst.Expr = e
	if p.acceptKw(scan.KwAs) {
		a, err := p.ident("alias")
		if err != nil {
			return err
		}
		dst.Alias = a
	} else if p.cur.Kind == scan.Ident && !p.cur.Kw.Reserved() {
		dst.Alias = p.cur.Text
		p.advance()
	}
	return nil
}

// qualifiedRest finishes an expression whose leading "name." was
// consumed by selectItem's t.* probe: it builds the qualified column
// reference and re-enters the operator loop so any following operators
// still bind.
func (p *parser) qualifiedRest(nameText string, nameKw scan.KwID) (ast.Expr, error) {
	if nameKw.Reserved() {
		return nil, p.errf("unexpected keyword %s in expression", nameText)
	}
	colKw := p.cur.Kw
	col, err := p.ident("column name")
	if err != nil {
		return nil, err
	}
	if colKw.Reserved() {
		return nil, p.errf("unexpected keyword %s after %s.", col, nameText)
	}
	return p.infix(p.a.columnRef(nameText, col), 0)
}

// fromRef appends a zero TableRef to sel.From and parses into the
// slot (same rationale as selectItem: a TableRef is 64 pointer-bearing
// bytes, and parsing into the slice slot skips the stack-to-heap move
// and its write barriers). The returned pointer stays valid until the
// next append to sel.From; join parsing uses it to attach ON clauses.
func (p *parser) fromRef(sel *ast.Select) (*ast.TableRef, error) {
	sel.From = append(sel.From, ast.TableRef{})
	ref := &sel.From[len(sel.From)-1]
	if err := p.tableRef(ref); err != nil {
		return nil, err
	}
	return ref, nil
}

func (p *parser) tableRef(ref *ast.TableRef) error {
	if p.acceptSym(scan.SymLParen) {
		sub, err := p.selectBody()
		if err != nil {
			return err
		}
		if err := p.expectSym(scan.SymRParen); err != nil {
			return err
		}
		ref.Subquery = sub
	} else {
		name, err := p.ident("table name")
		if err != nil {
			return err
		}
		ref.Table = name
	}
	if p.acceptKw(scan.KwAs) {
		a, err := p.ident("alias")
		if err != nil {
			return err
		}
		ref.Alias = a
	} else if p.cur.Kind == scan.Ident && !p.cur.Kw.Reserved() {
		ref.Alias = p.cur.Text
		p.advance()
	}
	if ref.Subquery != nil && ref.Alias == "" {
		return p.errf("derived table requires an alias")
	}
	return nil
}

// ------------------------------------------------------------- expressions

// Binding powers, loosest to tightest. An infix operator binds while
// its power exceeds the minimum for the current context; the right
// operand of a left-associative operator is parsed at the operator's
// own power.
const (
	bpOr   = 10
	bpAnd  = 20
	bpNot  = 25 // prefix NOT: looser than predicates, tighter than AND
	bpCmp  = 30 // comparisons, IS, BETWEEN, IN, LIKE
	bpAdd  = 40 // + - ||
	bpMul  = 50 // * / %
	bpNeg  = 60 // unary - and +
	bpCast = 70 // postfix ::
)

// symBP and symOp give each operator symbol its binding power and its
// canonical AST operator text (!= is canonicalised to <>). Zero power
// marks non-operator symbols, which end the expression.
var (
	symBP [scan.NSym]uint8
	symOp [scan.NSym]string
)

func init() {
	set := func(s scan.SymID, bp uint8, op string) {
		symBP[s] = bp
		symOp[s] = op
	}
	set(scan.SymEq, bpCmp, "=")
	set(scan.SymLt, bpCmp, "<")
	set(scan.SymGt, bpCmp, ">")
	set(scan.SymLe, bpCmp, "<=")
	set(scan.SymGe, bpCmp, ">=")
	set(scan.SymNe, bpCmp, "<>")
	set(scan.SymNeBang, bpCmp, "<>")
	set(scan.SymPlus, bpAdd, "+")
	set(scan.SymMinus, bpAdd, "-")
	set(scan.SymConcat, bpAdd, "||")
	set(scan.SymStar, bpMul, "*")
	set(scan.SymSlash, bpMul, "/")
	set(scan.SymPercent, bpMul, "%")
	set(scan.SymCast, bpCast, "::")
}

func (p *parser) expr() (ast.Expr, error) { return p.exprBP(0) }

func (p *parser) exprBP(min int) (ast.Expr, error) {
	l, err := p.prefix(min)
	if err != nil {
		return nil, err
	}
	return p.infix(l, min)
}

// prefix parses one operand: a literal, reference, call, parenthesised
// expression or subquery, or a prefix operator application. min gates
// prefix NOT, which is legal only where the boolean levels of the
// grammar are reachable; below the comparison band NOT falls through to
// the generic identifier path, like any clause keyword in operand
// position.
func (p *parser) prefix(min int) (ast.Expr, error) {
	switch p.cur.Kind {
	case scan.Number:
		text, isFloat := p.cur.Text, p.cur.IsFloat
		p.advance()
		if isFloat {
			v, err := strconv.ParseFloat(text, 64)
			if err != nil {
				return nil, p.errf("bad float literal %s", text)
			}
			return &ast.FloatLit{V: v}, nil
		}
		// Up to 18 digits cannot overflow int64, which covers every
		// integer literal real statements carry; the inline loop skips
		// a strconv call per literal. (The lexer guarantees the text
		// is all digits.)
		if len(text) <= 18 {
			v := int64(0)
			for i := 0; i < len(text); i++ {
				v = v*10 + int64(text[i]-'0')
			}
			return p.a.intLit(v), nil
		}
		v, err := strconv.ParseInt(text, 10, 64)
		if err != nil {
			return nil, p.errf("bad integer literal %s", text)
		}
		return p.a.intLit(v), nil
	case scan.String:
		text := p.cur.Text
		p.advance()
		return p.a.stringLit(text), nil
	case scan.Param:
		text := p.cur.Text
		p.advance()
		return p.a.param(text), nil
	case scan.Symbol:
		switch p.cur.Sym {
		case scan.SymLParen:
			p.advance()
			if p.cur.Kw == scan.KwSelect {
				sub, err := p.selectBody()
				if err != nil {
					return nil, err
				}
				if err := p.expectSym(scan.SymRParen); err != nil {
					return nil, err
				}
				return p.a.subquery(sub), nil
			}
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			if err := p.expectSym(scan.SymRParen); err != nil {
				return nil, err
			}
			return e, nil
		case scan.SymMinus:
			p.advance()
			x, err := p.exprBP(bpNeg)
			if err != nil {
				return nil, err
			}
			// Fold negative numeric literals. The literal came off the
			// arena a moment ago and is unshared, so negate in place.
			switch lit := x.(type) {
			case *ast.IntLit:
				lit.V = -lit.V
				return lit, nil
			case *ast.FloatLit:
				lit.V = -lit.V
				return lit, nil
			}
			return p.a.unary("-", x), nil
		case scan.SymPlus:
			p.advance()
			return p.exprBP(bpNeg)
		}
	case scan.Ident:
		switch p.cur.Kw {
		case scan.KwNull:
			p.advance()
			return nullLit, nil
		case scan.KwTrue:
			p.advance()
			return trueLit, nil
		case scan.KwFalse:
			p.advance()
			return falseLit, nil
		case scan.KwNot:
			if min < bpCmp {
				p.advance()
				x, err := p.exprBP(bpNot)
				if err != nil {
					return nil, err
				}
				return p.a.unary("NOT", x), nil
			}
		case scan.KwExists:
			p.advance()
			if err := p.expectSym(scan.SymLParen); err != nil {
				return nil, err
			}
			sub, err := p.selectBody()
			if err != nil {
				return nil, err
			}
			if err := p.expectSym(scan.SymRParen); err != nil {
				return nil, err
			}
			return &ast.Exists{Subquery: sub}, nil
		case scan.KwCase:
			return p.caseExpr()
		case scan.KwCast:
			p.advance()
			if err := p.expectSym(scan.SymLParen); err != nil {
				return nil, err
			}
			x, err := p.expr()
			if err != nil {
				return nil, err
			}
			if err := p.expectKw(scan.KwAs); err != nil {
				return nil, err
			}
			tn, err := p.typeName()
			if err != nil {
				return nil, err
			}
			if err := p.expectSym(scan.SymRParen); err != nil {
				return nil, err
			}
			return p.a.cast(x, tn), nil
		}
		nameText, nameKw := p.cur.Text, p.cur.Kw
		p.advance()
		// Function call? (call syntax may reuse reserved words such as
		// intersect).
		if p.cur.Sym == scan.SymLParen {
			return p.callTail(nameText)
		}
		// A bare reserved word is a clause keyword leaking into
		// expression position (e.g. "SELECT FROM t"), not a column.
		if nameKw.Reserved() {
			return nil, p.errf("unexpected keyword %s in expression", nameText)
		}
		// Qualified column t.c?
		if p.acceptSym(scan.SymDot) {
			colKw := p.cur.Kw
			col, err := p.ident("column name")
			if err != nil {
				return nil, err
			}
			if colKw.Reserved() {
				return nil, p.errf("unexpected keyword %s after %s.", col, nameText)
			}
			return p.a.columnRef(nameText, col), nil
		}
		return p.a.columnRef("", nameText), nil
	}
	return nil, p.errf("unexpected %s in expression", p.cur)
}

// infix binds operators to l while their power exceeds min.
func (p *parser) infix(l ast.Expr, min int) (ast.Expr, error) {
	for {
		switch p.cur.Kind {
		case scan.Symbol:
			sym := p.cur.Sym
			bp := int(symBP[sym])
			if bp <= min { // includes bp==0: not an operator
				return l, nil
			}
			if sym == scan.SymCast {
				// Postfix Informix cast (::) binds tighter than any
				// arithmetic: '7 00:00:00'::Span * :w multiplies the
				// casted span.
				p.advance()
				tn, err := p.typeName()
				if err != nil {
					return nil, err
				}
				l = p.a.cast(l, tn)
				continue
			}
			p.advance()
			r, err := p.exprBP(bp)
			if err != nil {
				return nil, err
			}
			l = p.a.binary(symOp[sym], l, r)
		case scan.Ident:
			switch p.cur.Kw {
			case scan.KwOr:
				if bpOr <= min {
					return l, nil
				}
				p.advance()
				r, err := p.exprBP(bpOr)
				if err != nil {
					return nil, err
				}
				l = p.a.binary("OR", l, r)
			case scan.KwAnd:
				if bpAnd <= min {
					return l, nil
				}
				p.advance()
				r, err := p.exprBP(bpAnd)
				if err != nil {
					return nil, err
				}
				l = p.a.binary("AND", l, r)
			case scan.KwIs:
				if bpCmp <= min {
					return l, nil
				}
				p.advance()
				not := p.acceptKw(scan.KwNot)
				if err := p.expectKw(scan.KwNull); err != nil {
					return nil, err
				}
				l = &ast.IsNull{X: l, Not: not}
			case scan.KwBetween:
				if bpCmp <= min {
					return l, nil
				}
				p.advance()
				b, err := p.betweenTail(l, false)
				if err != nil {
					return nil, err
				}
				l = b
			case scan.KwIn:
				if bpCmp <= min {
					return l, nil
				}
				p.advance()
				in, err := p.inTail(l, false)
				if err != nil {
					return nil, err
				}
				l = in
			case scan.KwLike:
				if bpCmp <= min {
					return l, nil
				}
				p.advance()
				pat, err := p.exprBP(bpCmp)
				if err != nil {
					return nil, err
				}
				l = &ast.Like{X: l, Pattern: pat}
			case scan.KwNot:
				// expr NOT IN / NOT BETWEEN / NOT LIKE, resolved with
				// one token of lookahead instead of backtracking; any
				// other word after NOT ends the expression.
				if bpCmp <= min {
					return l, nil
				}
				switch p.peekTok().Kw {
				case scan.KwIn:
					p.advance()
					p.advance()
					in, err := p.inTail(l, true)
					if err != nil {
						return nil, err
					}
					l = in
				case scan.KwBetween:
					p.advance()
					p.advance()
					b, err := p.betweenTail(l, true)
					if err != nil {
						return nil, err
					}
					l = b
				case scan.KwLike:
					p.advance()
					p.advance()
					pat, err := p.exprBP(bpCmp)
					if err != nil {
						return nil, err
					}
					l = &ast.Like{X: l, Pattern: pat, Not: true}
				default:
					return l, nil
				}
			default:
				return l, nil
			}
		default:
			return l, nil
		}
	}
}

// betweenTail parses the lo AND hi bounds (each at the comparison
// level, so the AND separator is never consumed by a bound).
func (p *parser) betweenTail(l ast.Expr, not bool) (ast.Expr, error) {
	lo, err := p.exprBP(bpCmp)
	if err != nil {
		return nil, err
	}
	if err := p.expectKw(scan.KwAnd); err != nil {
		return nil, err
	}
	hi, err := p.exprBP(bpCmp)
	if err != nil {
		return nil, err
	}
	return &ast.Between{X: l, Lo: lo, Hi: hi, Not: not}, nil
}

func (p *parser) inTail(l ast.Expr, not bool) (ast.Expr, error) {
	if err := p.expectSym(scan.SymLParen); err != nil {
		return nil, err
	}
	if p.cur.Kw == scan.KwSelect {
		sub, err := p.selectBody()
		if err != nil {
			return nil, err
		}
		if err := p.expectSym(scan.SymRParen); err != nil {
			return nil, err
		}
		return &ast.InList{X: l, Subquery: sub, Not: not}, nil
	}
	list := p.a.exprs()
	for {
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		list = append(list, e)
		if p.acceptSym(scan.SymComma) {
			continue
		}
		break
	}
	if err := p.expectSym(scan.SymRParen); err != nil {
		return nil, err
	}
	return &ast.InList{X: l, List: list, Not: not}, nil
}

func (p *parser) callTail(name string) (ast.Expr, error) {
	p.advance() // (
	call := p.a.call(name)
	if p.cur.Sym == scan.SymStar {
		p.advance()
		call.Star = true
		if err := p.expectSym(scan.SymRParen); err != nil {
			return nil, err
		}
		return call, nil
	}
	if p.acceptSym(scan.SymRParen) {
		return call, nil
	}
	if p.acceptKw(scan.KwDistinct) {
		call.Distinct = true
	}
	call.Args = p.a.exprs()
	for {
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		call.Args = append(call.Args, e)
		if p.acceptSym(scan.SymComma) {
			continue
		}
		break
	}
	if err := p.expectSym(scan.SymRParen); err != nil {
		return nil, err
	}
	return call, nil
}

func (p *parser) caseExpr() (ast.Expr, error) {
	p.advance() // CASE
	c := &ast.Case{}
	if p.cur.Kw != scan.KwWhen {
		op, err := p.expr()
		if err != nil {
			return nil, err
		}
		c.Operand = op
	}
	for p.acceptKw(scan.KwWhen) {
		cond, err := p.expr()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw(scan.KwThen); err != nil {
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
	if p.acceptKw(scan.KwElse) {
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		c.Else = e
	}
	if err := p.expectKw(scan.KwEnd); err != nil {
		return nil, err
	}
	return c, nil
}
