package exec

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"tip/internal/blade"
	"tip/internal/sql/ast"
	"tip/internal/types"
)

// bindScope is the compile-time image of one runtime scope level: the
// schema of the row that will occupy that level, plus the aggregate
// context when binding the projection of a grouped query.
type bindScope struct {
	parent *bindScope
	schema Schema
	agg    *aggContext
}

// depthOf returns how many levels up sc sits from the innermost scope
// `from`.
func depthOf(from, sc *bindScope) int {
	d := 0
	for s := from; s != nil; s = s.parent {
		if s == sc {
			return d
		}
		d++
	}
	return -1
}

// aggContext maps aggregate calls and group-by expressions onto slots of
// the group row ([group values..., aggregate results...]).
type aggContext struct {
	// slots assigns each aggregate call its result position after base.
	slots map[*ast.Call]int
	// base is the group-row offset where aggregate results start.
	base int
	// groupKeys are canonical renderings of the group-by expressions;
	// a projection expression matching groupKeys[i] reads group slot i.
	groupKeys []string
}

// binder compiles AST expressions to cexpr closures against a scope
// chain. When explain is non-nil, planning decisions are recorded
// instead of being silent (EXPLAIN support).
type binder struct {
	env     *Env
	explain *explainLog
}

// explainLog accumulates planner notes with subquery indentation. Under
// EXPLAIN ANALYZE each note also carries an OpStats the compiled plan
// updates at run time.
type explainLog struct {
	depth   int
	analyze bool
	notes   []*explainNote
}

// explainNote is one plan line; st is nil unless analyzing.
type explainNote struct {
	text string
	st   *OpStats
}

// note records one planner decision and returns the stats handle the
// matching operator closure should update — nil for plain EXPLAIN or
// ordinary execution, so hot closures guard with a nil check.
func (b *binder) note(format string, args ...any) *OpStats {
	if b.explain == nil {
		return nil
	}
	n := &explainNote{
		text: strings.Repeat("  ", b.explain.depth) + fmt.Sprintf(format, args...),
	}
	if b.explain.analyze {
		n.st = &OpStats{}
	}
	b.explain.notes = append(b.explain.notes, n)
	return n.st
}

// bind compiles e for evaluation in scope sc.
func (b *binder) bind(e ast.Expr, sc *bindScope) (cexpr, error) {
	// In the projection of a grouped query, an expression syntactically
	// equal to a GROUP BY expression reads the precomputed group slot
	// (e.g. SELECT sal/100 ... GROUP BY sal/100).
	if sc != nil && sc.agg != nil {
		if _, isCol := e.(*ast.ColumnRef); !isCol {
			key := exprString(e)
			for i, gk := range sc.agg.groupKeys {
				if gk == key {
					slot := i
					return func(rt *runtime) (types.Value, error) { return rt.at(0)[slot], nil }, nil
				}
			}
		}
	}
	switch n := e.(type) {
	case *ast.IntLit:
		v := types.NewInt(n.V)
		return func(*runtime) (types.Value, error) { return v, nil }, nil
	case *ast.FloatLit:
		v := types.NewFloat(n.V)
		return func(*runtime) (types.Value, error) { return v, nil }, nil
	case *ast.StringLit:
		v := types.NewString(n.V)
		return func(*runtime) (types.Value, error) { return v, nil }, nil
	case *ast.BoolLit:
		v := types.NewBool(n.V)
		return func(*runtime) (types.Value, error) { return v, nil }, nil
	case *ast.NullLit:
		return func(*runtime) (types.Value, error) { return types.NewNull(types.TNull), nil }, nil
	case *ast.Param:
		name := n.Name
		return func(rt *runtime) (types.Value, error) {
			v, ok := rt.env.Params[name]
			if !ok {
				return types.Value{}, fmt.Errorf("exec: missing parameter :%s", name)
			}
			return v, nil
		}, nil
	case *ast.ColumnRef:
		return b.bindColumn(n, sc)
	case *ast.Unary:
		return b.bindUnary(n, sc)
	case *ast.Binary:
		return b.bindBinary(n, sc)
	case *ast.Call:
		return b.bindCall(n, sc)
	case *ast.Cast:
		return b.bindCast(n, sc)
	case *ast.IsNull:
		x, err := b.bind(n.X, sc)
		if err != nil {
			return nil, err
		}
		not := n.Not
		return func(rt *runtime) (types.Value, error) {
			v, err := x(rt)
			if err != nil {
				return types.Value{}, err
			}
			return types.NewBool(v.Null != not), nil
		}, nil
	case *ast.Between:
		return b.bindBetween(n, sc)
	case *ast.InList:
		return b.bindIn(n, sc)
	case *ast.Like:
		return b.bindLike(n, sc)
	case *ast.Case:
		return b.bindCase(n, sc)
	case *ast.Exists:
		plan, err := b.bindSelect(n.Subquery, sc)
		if err != nil {
			return nil, err
		}
		not := n.Not
		return func(rt *runtime) (types.Value, error) {
			res, err := plan.run(rt)
			if err != nil {
				return types.Value{}, err
			}
			return types.NewBool((len(res.Rows) > 0) != not), nil
		}, nil
	case *ast.Subquery:
		plan, err := b.bindSelect(n.Query, sc)
		if err != nil {
			return nil, err
		}
		if len(plan.outSchema) != 1 {
			return nil, fmt.Errorf("exec: scalar subquery must return one column")
		}
		return func(rt *runtime) (types.Value, error) {
			res, err := plan.run(rt)
			if err != nil {
				return types.Value{}, err
			}
			switch len(res.Rows) {
			case 0:
				return types.NewNull(types.TNull), nil
			case 1:
				return res.Rows[0][0], nil
			default:
				return types.Value{}, fmt.Errorf("exec: scalar subquery returned %d rows", len(res.Rows))
			}
		}, nil
	default:
		return nil, fmt.Errorf("exec: unsupported expression %T", e)
	}
}

func (b *binder) bindColumn(n *ast.ColumnRef, sc *bindScope) (cexpr, error) {
	depth := 0
	for s := sc; s != nil; s = s.parent {
		idx, err := s.schema.Resolve(n.Table, n.Column)
		if err == nil {
			d, i := depth, idx
			return func(rt *runtime) (types.Value, error) { return rt.at(d)[i], nil }, nil
		}
		if err != errNotFound {
			return nil, err
		}
		depth++
	}
	return nil, fmt.Errorf("exec: unknown column %s", n.String())
}

func (b *binder) bindUnary(n *ast.Unary, sc *bindScope) (cexpr, error) {
	x, err := b.bind(n.X, sc)
	if err != nil {
		return nil, err
	}
	switch n.Op {
	case "NOT":
		return func(rt *runtime) (types.Value, error) {
			v, err := x(rt)
			if err != nil {
				return types.Value{}, err
			}
			t, isNull, err := truth(v)
			if err != nil {
				return types.Value{}, err
			}
			if isNull {
				return nullBool, nil
			}
			return types.NewBool(!t), nil
		}, nil
	case "-":
		return func(rt *runtime) (types.Value, error) {
			v, err := x(rt)
			if err != nil {
				return types.Value{}, err
			}
			if v.Null {
				return types.NewNull(v.T), nil
			}
			switch v.T.Kind {
			case types.KindInt:
				return types.NewInt(-v.Int()), nil
			case types.KindFloat:
				return types.NewFloat(-v.Float()), nil
			default:
				return rt.env.Reg.Invoke(rt.env.Ctx(), "neg", []types.Value{v})
			}
		}, nil
	default:
		return nil, fmt.Errorf("exec: unknown unary operator %s", n.Op)
	}
}

func (b *binder) bindBinary(n *ast.Binary, sc *bindScope) (cexpr, error) {
	l, err := b.bind(n.L, sc)
	if err != nil {
		return nil, err
	}
	r, err := b.bind(n.R, sc)
	if err != nil {
		return nil, err
	}
	op := n.Op
	switch op {
	case "AND":
		return func(rt *runtime) (types.Value, error) {
			lv, err := l(rt)
			if err != nil {
				return types.Value{}, err
			}
			lt, ln, err := truth(lv)
			if err != nil {
				return types.Value{}, err
			}
			if !ln && !lt {
				return falseValue, nil
			}
			rv, err := r(rt)
			if err != nil {
				return types.Value{}, err
			}
			rtv, rn, err := truth(rv)
			if err != nil {
				return types.Value{}, err
			}
			switch {
			case !rn && !rtv:
				return falseValue, nil
			case ln || rn:
				return nullBool, nil
			default:
				return trueValue, nil
			}
		}, nil
	case "OR":
		return func(rt *runtime) (types.Value, error) {
			lv, err := l(rt)
			if err != nil {
				return types.Value{}, err
			}
			lt, ln, err := truth(lv)
			if err != nil {
				return types.Value{}, err
			}
			if !ln && lt {
				return trueValue, nil
			}
			rv, err := r(rt)
			if err != nil {
				return types.Value{}, err
			}
			rtv, rn, err := truth(rv)
			if err != nil {
				return types.Value{}, err
			}
			switch {
			case !rn && rtv:
				return trueValue, nil
			case ln || rn:
				return nullBool, nil
			default:
				return falseValue, nil
			}
		}, nil
	case "=", "<>", "<", "<=", ">", ">=":
		return func(rt *runtime) (types.Value, error) {
			lv, err := l(rt)
			if err != nil {
				return types.Value{}, err
			}
			rv, err := r(rt)
			if err != nil {
				return types.Value{}, err
			}
			return rt.compareValues(op, lv, rv)
		}, nil
	default:
		// Arithmetic and concatenation resolve through the blade
		// registry; all operator overloads are strict.
		return func(rt *runtime) (types.Value, error) {
			lv, err := l(rt)
			if err != nil {
				return types.Value{}, err
			}
			rv, err := r(rt)
			if err != nil {
				return types.Value{}, err
			}
			if lv.Null || rv.Null {
				return types.NewNull(types.TNull), nil
			}
			return rt.env.Reg.Invoke(rt.env.Ctx(), op, []types.Value{lv, rv})
		}, nil
	}
}

func (b *binder) bindCall(n *ast.Call, sc *bindScope) (cexpr, error) {
	name := n.LowerName()
	if b.isAggregate(name) {
		// An aggregate call is only meaningful while projecting a
		// grouped query; the group pipeline has pre-assigned it a slot.
		for s := sc; s != nil; s = s.parent {
			if s.agg == nil {
				continue
			}
			slot, ok := s.agg.slots[n]
			if !ok {
				continue
			}
			d := depthOf(sc, s)
			i := s.agg.base + slot
			return func(rt *runtime) (types.Value, error) { return rt.at(d)[i], nil }, nil
		}
		return nil, fmt.Errorf("exec: aggregate %s is not allowed here", n.Name)
	}
	if name == "coalesce" {
		if len(n.Args) == 0 {
			return nil, fmt.Errorf("exec: COALESCE requires arguments")
		}
		args := make([]cexpr, len(n.Args))
		for i, a := range n.Args {
			c, err := b.bind(a, sc)
			if err != nil {
				return nil, err
			}
			args[i] = c
		}
		return func(rt *runtime) (types.Value, error) {
			for _, a := range args {
				v, err := a(rt)
				if err != nil {
					return types.Value{}, err
				}
				if !v.Null {
					return v, nil
				}
			}
			return types.NewNull(types.TNull), nil
		}, nil
	}
	if n.Star {
		return nil, fmt.Errorf("exec: %s(*) is not a known aggregate", n.Name)
	}
	args := make([]cexpr, len(n.Args))
	for i, a := range n.Args {
		c, err := b.bind(a, sc)
		if err != nil {
			return nil, err
		}
		args[i] = c
	}
	if !b.env.Reg.HasRoutine(name) {
		return nil, fmt.Errorf("exec: unknown function %s", n.Name)
	}
	fname := name
	// Overload resolution depends only on the argument types, which are
	// almost always the same on every row, so the closure memoizes the
	// last resolution and its type signature. Its cast memos apply each
	// implicit cast once per distinct input (blade.CastMemo): a literal
	// converts once, a join's outer-row probe once per outer row. The
	// memos live as long as this closure, one execution — the plan cache
	// keeps ASTs, not bound plans — so nothing converted under one NOW
	// reaches a later statement. An execution runs on one goroutine (the
	// row arena is unsynchronized for the same reason), so no locking.
	var (
		cachedRes *blade.Resolution
		cachedSig []*types.Type
		argBuf    []types.Value
		casts     []blade.CastMemo
	)
	return func(rt *runtime) (types.Value, error) {
		// Routines receive the argument slice for the duration of the
		// call only (see Registry.Call), so one buffer per bound call
		// site serves every row.
		if argBuf == nil {
			argBuf = make([]types.Value, len(args))
		}
		vals := argBuf
		for i, a := range args {
			v, err := a(rt)
			if err != nil {
				return types.Value{}, err
			}
			vals[i] = v
		}
		match := cachedRes != nil
		if match {
			for i, v := range vals {
				at := v.T
				if v.Null && at == nil {
					at = types.TNull
				}
				if cachedSig[i] != at {
					match = false
					break
				}
			}
		}
		if !match {
			sig := make([]*types.Type, len(vals))
			for i, v := range vals {
				if v.Null && v.T == nil {
					sig[i] = types.TNull
				} else {
					sig[i] = v.T
				}
			}
			res, err := rt.env.Reg.Resolve(fname, sig)
			if err != nil {
				return types.Value{}, err
			}
			cachedRes, cachedSig = res, sig
			if casts == nil && slices.ContainsFunc(res.Casts, func(c *blade.Cast) bool { return c != nil }) {
				casts = make([]blade.CastMemo, len(args))
			}
		}
		return rt.env.Reg.Call(rt.env.Ctx(), cachedRes, vals, casts)
	}, nil
}

func (b *binder) bindCast(n *ast.Cast, sc *bindScope) (cexpr, error) {
	to, ok := b.env.Reg.LookupType(n.TypeName)
	if !ok {
		return nil, fmt.Errorf("exec: unknown type %s", n.TypeName)
	}
	x, err := b.bind(n.X, sc)
	if err != nil {
		return nil, err
	}
	return func(rt *runtime) (types.Value, error) {
		v, err := x(rt)
		if err != nil {
			return types.Value{}, err
		}
		return rt.env.Reg.Convert(rt.env.Ctx(), v, to)
	}, nil
}

func (b *binder) bindBetween(n *ast.Between, sc *bindScope) (cexpr, error) {
	x, err := b.bind(n.X, sc)
	if err != nil {
		return nil, err
	}
	lo, err := b.bind(n.Lo, sc)
	if err != nil {
		return nil, err
	}
	hi, err := b.bind(n.Hi, sc)
	if err != nil {
		return nil, err
	}
	not := n.Not
	return func(rt *runtime) (types.Value, error) {
		xv, err := x(rt)
		if err != nil {
			return types.Value{}, err
		}
		lov, err := lo(rt)
		if err != nil {
			return types.Value{}, err
		}
		hiv, err := hi(rt)
		if err != nil {
			return types.Value{}, err
		}
		ge, err := rt.compareValues(">=", xv, lov)
		if err != nil {
			return types.Value{}, err
		}
		le, err := rt.compareValues("<=", xv, hiv)
		if err != nil {
			return types.Value{}, err
		}
		// BETWEEN is (x >= lo AND x <= hi) under three-valued logic.
		geT, geN, _ := truth(ge)
		leT, leN, _ := truth(le)
		var out types.Value
		switch {
		case (!geN && !geT) || (!leN && !leT):
			out = falseValue
		case geN || leN:
			return nullBool, nil
		default:
			out = trueValue
		}
		if not {
			return types.NewBool(!out.Bool()), nil
		}
		return out, nil
	}, nil
}

func (b *binder) bindIn(n *ast.InList, sc *bindScope) (cexpr, error) {
	x, err := b.bind(n.X, sc)
	if err != nil {
		return nil, err
	}
	not := n.Not
	finish := func(anyTrue, anyNull bool) types.Value {
		switch {
		case anyTrue:
			return types.NewBool(!not)
		case anyNull:
			return nullBool
		default:
			return types.NewBool(not)
		}
	}
	if n.Subquery != nil {
		plan, err := b.bindSelect(n.Subquery, sc)
		if err != nil {
			return nil, err
		}
		if len(plan.outSchema) != 1 {
			return nil, fmt.Errorf("exec: IN subquery must return one column")
		}
		return func(rt *runtime) (types.Value, error) {
			xv, err := x(rt)
			if err != nil {
				return types.Value{}, err
			}
			if xv.Null {
				return nullBool, nil
			}
			res, err := plan.run(rt)
			if err != nil {
				return types.Value{}, err
			}
			anyTrue, anyNull := false, false
			for _, row := range res.Rows {
				eq, isNull, err := rt.equalValues(xv, row[0])
				if err != nil {
					return types.Value{}, err
				}
				anyTrue = anyTrue || eq
				anyNull = anyNull || isNull
				if anyTrue {
					break
				}
			}
			return finish(anyTrue, anyNull), nil
		}, nil
	}
	list := make([]cexpr, len(n.List))
	for i, item := range n.List {
		c, err := b.bind(item, sc)
		if err != nil {
			return nil, err
		}
		list[i] = c
	}
	return func(rt *runtime) (types.Value, error) {
		xv, err := x(rt)
		if err != nil {
			return types.Value{}, err
		}
		if xv.Null {
			return nullBool, nil
		}
		anyTrue, anyNull := false, false
		for _, item := range list {
			iv, err := item(rt)
			if err != nil {
				return types.Value{}, err
			}
			eq, isNull, err := rt.equalValues(xv, iv)
			if err != nil {
				return types.Value{}, err
			}
			anyTrue = anyTrue || eq
			anyNull = anyNull || isNull
			if anyTrue {
				break
			}
		}
		return finish(anyTrue, anyNull), nil
	}, nil
}

func (b *binder) bindLike(n *ast.Like, sc *bindScope) (cexpr, error) {
	x, err := b.bind(n.X, sc)
	if err != nil {
		return nil, err
	}
	pat, err := b.bind(n.Pattern, sc)
	if err != nil {
		return nil, err
	}
	not := n.Not
	return func(rt *runtime) (types.Value, error) {
		xv, err := x(rt)
		if err != nil {
			return types.Value{}, err
		}
		pv, err := pat(rt)
		if err != nil {
			return types.Value{}, err
		}
		if xv.Null || pv.Null {
			return nullBool, nil
		}
		if xv.T.Kind != types.KindString || pv.T.Kind != types.KindString {
			return types.Value{}, fmt.Errorf("exec: LIKE requires strings")
		}
		return types.NewBool(likeMatch(xv.Str(), pv.Str()) != not), nil
	}, nil
}

func (b *binder) bindCase(n *ast.Case, sc *bindScope) (cexpr, error) {
	var operand cexpr
	var err error
	if n.Operand != nil {
		if operand, err = b.bind(n.Operand, sc); err != nil {
			return nil, err
		}
	}
	type arm struct{ cond, then cexpr }
	arms := make([]arm, len(n.Whens))
	for i, w := range n.Whens {
		c, err := b.bind(w.Cond, sc)
		if err != nil {
			return nil, err
		}
		t, err := b.bind(w.Then, sc)
		if err != nil {
			return nil, err
		}
		arms[i] = arm{cond: c, then: t}
	}
	var elseC cexpr
	if n.Else != nil {
		if elseC, err = b.bind(n.Else, sc); err != nil {
			return nil, err
		}
	}
	return func(rt *runtime) (types.Value, error) {
		var opv types.Value
		if operand != nil {
			v, err := operand(rt)
			if err != nil {
				return types.Value{}, err
			}
			opv = v
		}
		for _, a := range arms {
			cv, err := a.cond(rt)
			if err != nil {
				return types.Value{}, err
			}
			match := false
			if operand != nil {
				eq, _, err := rt.equalValues(opv, cv)
				if err != nil {
					return types.Value{}, err
				}
				match = eq
			} else {
				t, isNull, err := truth(cv)
				if err != nil {
					return types.Value{}, err
				}
				match = t && !isNull
			}
			if match {
				return a.then(rt)
			}
		}
		if elseC != nil {
			return elseC(rt)
		}
		return types.NewNull(types.TNull), nil
	}, nil
}

// exprString renders an expression canonically, used to match projection
// expressions against GROUP BY expressions.
func exprString(e ast.Expr) string {
	switch n := e.(type) {
	case *ast.IntLit:
		return strconv.FormatInt(n.V, 10)
	case *ast.FloatLit:
		return strconv.FormatFloat(n.V, 'g', -1, 64)
	case *ast.StringLit:
		return "'" + n.V + "'"
	case *ast.BoolLit:
		if n.V {
			return "TRUE"
		}
		return "FALSE"
	case *ast.NullLit:
		return "NULL"
	case *ast.Param:
		return ":" + n.Name
	case *ast.ColumnRef:
		return strings.ToLower(n.String())
	case *ast.Unary:
		return n.Op + "(" + exprString(n.X) + ")"
	case *ast.Binary:
		return "(" + exprString(n.L) + n.Op + exprString(n.R) + ")"
	case *ast.Call:
		var b strings.Builder
		b.WriteString(n.LowerName())
		b.WriteByte('(')
		if n.Star {
			b.WriteByte('*')
		}
		if n.Distinct {
			b.WriteString("distinct ")
		}
		for i, a := range n.Args {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(exprString(a))
		}
		b.WriteByte(')')
		return b.String()
	case *ast.Cast:
		return "cast(" + exprString(n.X) + " as " + strings.ToUpper(n.TypeName) + ")"
	case *ast.IsNull:
		s := exprString(n.X) + " is "
		if n.Not {
			s += "not "
		}
		return s + "null"
	case *ast.Between:
		return exprString(n.X) + " between " + exprString(n.Lo) + " and " + exprString(n.Hi)
	case *ast.Like:
		return exprString(n.X) + " like " + exprString(n.Pattern)
	default:
		return fmt.Sprintf("%p", e) // subqueries and friends: identity
	}
}
