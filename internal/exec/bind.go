package exec

import (
	"fmt"
	"strconv"
	"strings"

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

// aggContext maps aggregate calls and group-by expressions onto slots of
// the group row ([group values..., aggregate results...]).
type aggContext struct {
	// specs are the aggregate call sites; specs[i]'s result sits at
	// base+i.
	specs []*aggSpec
	base  int
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

// bind compiles e for evaluation in scope sc and returns its static
// type: column types come from the schema, literal and parameter types
// from the value, routine and aggregate result types from the blade
// registry. Every overload, comparison and implicit cast is chosen here,
// once per call site, so a no-such-overload error surfaces before the
// first row. Binding runs once per execution (the plan cache keeps
// ASTs), so parameter values and NOW are known. types.TNull types an
// expression that is NULL on every row.
func (b *binder) bind(e ast.Expr, sc *bindScope) (cexpr, *types.Type, error) {
	// In the projection of a grouped query, an expression syntactically
	// equal to a GROUP BY expression reads the precomputed group slot
	// (e.g. SELECT sal/100 ... GROUP BY sal/100).
	if sc != nil && sc.agg != nil {
		if _, isCol := e.(*ast.ColumnRef); !isCol {
			key := exprString(e)
			for i, gk := range sc.agg.groupKeys {
				if gk == key {
					slot := i
					return func(rt *runtime) (types.Value, error) { return rt.at(0)[slot], nil }, sc.schema[slot].Type, nil
				}
			}
		}
	}
	switch n := e.(type) {
	case *ast.IntLit:
		return literal(types.NewInt(n.V))
	case *ast.FloatLit:
		return literal(types.NewFloat(n.V))
	case *ast.StringLit:
		return literal(types.NewString(n.V))
	case *ast.BoolLit:
		return literal(types.NewBool(n.V))
	case *ast.NullLit:
		return literal(types.NewNull(types.TNull))
	case *ast.Param:
		v, ok := b.env.Params[n.Name]
		if !ok {
			return nil, nil, fmt.Errorf("exec: missing parameter :%s", n.Name)
		}
		return literal(v)
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
		x, _, err := b.bind(n.X, sc)
		if err != nil {
			return nil, nil, err
		}
		not := n.Not
		return func(rt *runtime) (types.Value, error) {
			v, err := x(rt)
			if err != nil {
				return types.Value{}, err
			}
			return types.NewBool(v.Null != not), nil
		}, types.TBool, nil
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
			return nil, nil, err
		}
		not := n.Not
		return func(rt *runtime) (types.Value, error) {
			res, err := plan.run(rt)
			if err != nil {
				return types.Value{}, err
			}
			return types.NewBool((len(res.Rows) > 0) != not), nil
		}, types.TBool, nil
	case *ast.Subquery:
		plan, err := b.bindSelect(n.Query, sc)
		if err != nil {
			return nil, nil, err
		}
		if len(plan.outSchema) != 1 {
			return nil, nil, fmt.Errorf("exec: scalar subquery must return one column")
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
		}, plan.outSchema[0].Type, nil
	default:
		return nil, nil, fmt.Errorf("exec: unsupported expression %T", e)
	}
}

// literal binds a constant; a NULL without a type is NULL-typed.
func literal(v types.Value) (cexpr, *types.Type, error) {
	t := v.T
	if t == nil {
		t = types.TNull
	}
	return func(*runtime) (types.Value, error) { return v, nil }, t, nil
}

func (b *binder) bindColumn(n *ast.ColumnRef, sc *bindScope) (cexpr, *types.Type, error) {
	depth := 0
	for s := sc; s != nil; s = s.parent {
		idx, err := s.schema.Resolve(n.Table, n.Column)
		if err == nil {
			d, i := depth, idx
			return func(rt *runtime) (types.Value, error) { return rt.at(d)[i], nil }, s.schema[idx].Type, nil
		}
		if err != errNotFound {
			return nil, nil, err
		}
		depth++
	}
	return nil, nil, fmt.Errorf("exec: unknown column %s", n.String())
}

func (b *binder) bindUnary(n *ast.Unary, sc *bindScope) (cexpr, *types.Type, error) {
	x, xt, err := b.bind(n.X, sc)
	if err != nil {
		return nil, nil, err
	}
	switch n.Op {
	case "NOT":
		return func(rt *runtime) (types.Value, error) {
			v, err := x(rt)
			if err != nil {
				return types.Value{}, err
			}
			t, isNull, err := truth(v)
			if err != nil || isNull {
				return nullBool, err
			}
			return types.NewBool(!t), nil
		}, types.TBool, nil
	case "-":
		switch xt.Kind {
		case types.KindNull:
			return x, xt, nil
		case types.KindInt, types.KindFloat:
			return func(rt *runtime) (types.Value, error) {
				v, err := x(rt)
				if err != nil || v.Null {
					return v, err
				}
				if v.T.Kind == types.KindInt {
					return types.NewInt(-v.Int()), nil
				}
				return types.NewFloat(-v.Float()), nil
			}, xt, nil
		}
		// Other types negate through the blade routine "neg".
		return b.bindRoutine("neg", []cexpr{x}, []*types.Type{xt})
	default:
		return nil, nil, fmt.Errorf("exec: unknown unary operator %s", n.Op)
	}
}

func (b *binder) bindBinary(n *ast.Binary, sc *bindScope) (cexpr, *types.Type, error) {
	l, ltyp, err := b.bind(n.L, sc)
	if err != nil {
		return nil, nil, err
	}
	r, rtyp, err := b.bind(n.R, sc)
	if err != nil {
		return nil, nil, err
	}
	op := n.Op
	switch op {
	case "AND", "OR":
		// decisive is the operand value that settles the result alone:
		// FALSE for AND, TRUE for OR. UNKNOWN otherwise wins over the
		// other value.
		decisive := op == "OR"
		return func(rt *runtime) (types.Value, error) {
			lv, err := l(rt)
			if err != nil {
				return types.Value{}, err
			}
			lt, ln, err := truth(lv)
			if err != nil {
				return types.Value{}, err
			}
			if !ln && lt == decisive {
				return lv, nil
			}
			rv, err := r(rt)
			if err != nil {
				return types.Value{}, err
			}
			rtv, rn, err := truth(rv)
			switch {
			case err != nil:
				return types.Value{}, err
			case !rn && rtv == decisive:
				return rv, nil
			case ln || rn:
				return nullBool, nil
			default:
				return types.NewBool(!decisive), nil
			}
		}, types.TBool, nil
	case "=", "<>", "<", "<=", ">", ">=":
		cmp, err := b.bindCompare(op, ltyp, rtyp)
		if err != nil {
			return nil, nil, err
		}
		return func(rt *runtime) (types.Value, error) {
			lv, err := l(rt)
			if err != nil {
				return types.Value{}, err
			}
			rv, err := r(rt)
			if err != nil {
				return types.Value{}, err
			}
			return cmp(rt, lv, rv)
		}, types.TBool, nil
	}
	// Arithmetic and concatenation are blade routines; every operator
	// overload is strict, so a NULL-typed operand makes the result NULL
	// on every row whatever the other operand's type.
	if ltyp == types.TNull || rtyp == types.TNull {
		return func(rt *runtime) (types.Value, error) {
			_, err := l(rt)
			if err == nil {
				_, err = r(rt)
			}
			return types.NewNull(types.TNull), err
		}, types.TNull, nil
	}
	return b.bindRoutine(op, []cexpr{l, r}, []*types.Type{ltyp, rtyp})
}

// bindRoutine resolves the overload of name for the argument types and
// binds the call.
func (b *binder) bindRoutine(name string, args []cexpr, argTypes []*types.Type) (cexpr, *types.Type, error) {
	res, err := b.env.Reg.Resolve(name, argTypes)
	if err != nil {
		return nil, nil, err
	}
	cs := newCallSite(res)
	return func(rt *runtime) (types.Value, error) {
		for i, a := range args {
			v, err := a(rt)
			if err != nil {
				return types.Value{}, err
			}
			cs.args[i] = v
		}
		return cs.call(rt)
	}, res.Routine.Result, nil
}

func (b *binder) bindCall(n *ast.Call, sc *bindScope) (cexpr, *types.Type, error) {
	name := n.LowerName()
	if b.isAggregate(name) {
		// An aggregate call is only meaningful while projecting a
		// grouped query; the group pipeline has pre-assigned it a slot.
		for s, d := sc, 0; s != nil; s, d = s.parent, d+1 {
			for i := 0; s.agg != nil && i < len(s.agg.specs); i++ {
				if spec := s.agg.specs[i]; spec.call == n {
					depth, slot := d, s.agg.base+i
					return func(rt *runtime) (types.Value, error) { return rt.at(depth)[slot], nil }, spec.typ, nil
				}
			}
		}
		return nil, nil, fmt.Errorf("exec: aggregate %s is not allowed here", n.Name)
	}
	if name == "coalesce" {
		return b.bindCoalesce(n, sc)
	}
	if n.Star {
		return nil, nil, fmt.Errorf("exec: %s(*) is not a known aggregate", n.Name)
	}
	args, argTypes, err := b.bindAll(n.Args, sc)
	if err != nil {
		return nil, nil, err
	}
	if !b.env.Reg.HasRoutine(name) {
		return nil, nil, fmt.Errorf("exec: unknown function %s", n.Name)
	}
	return b.bindRoutine(name, args, argTypes)
}

// bindCoalesce binds COALESCE(a, b, ...): the first non-NULL argument.
func (b *binder) bindCoalesce(n *ast.Call, sc *bindScope) (cexpr, *types.Type, error) {
	if len(n.Args) == 0 {
		return nil, nil, fmt.Errorf("exec: COALESCE requires arguments")
	}
	args, common, err := b.bindArms("COALESCE", n.Args, sc)
	if err != nil {
		return nil, nil, err
	}
	return func(rt *runtime) (types.Value, error) {
		for _, a := range args {
			v, err := a(rt)
			if err != nil || !v.Null {
				return v, err
			}
		}
		return types.NewNull(types.TNull), nil
	}, common, nil
}

// bindArms binds the arms of a CASE or a COALESCE, each lifted to the
// arms' common type (see unify).
func (b *binder) bindArms(what string, exprs []ast.Expr, sc *bindScope) ([]cexpr, *types.Type, error) {
	arms, typs, err := b.bindAll(exprs, sc)
	if err != nil {
		return nil, nil, err
	}
	common := types.TNull
	for _, t := range typs {
		if common, err = b.unify(what, common, t); err != nil {
			return nil, nil, err
		}
	}
	for i := range arms {
		if arms[i], err = b.coerceArm(what, arms[i], typs[i], common); err != nil {
			return nil, nil, err
		}
	}
	return arms, common, nil
}

// bindCast binds an explicit cast: the conversion edge is looked up
// here, and a missing one is a bind-time error.
func (b *binder) bindCast(n *ast.Cast, sc *bindScope) (cexpr, *types.Type, error) {
	to, ok := b.env.Reg.LookupType(n.TypeName)
	if !ok {
		return nil, nil, fmt.Errorf("exec: unknown type %s", n.TypeName)
	}
	x, xt, err := b.bind(n.X, sc)
	if err != nil {
		return nil, nil, err
	}
	if xt == to {
		return x, to, nil
	}
	c, ok := b.env.Reg.LookupCast(xt, to)
	if !ok && xt != types.TNull {
		return nil, nil, fmt.Errorf("exec: no cast from %s to %s", xt, to)
	}
	return func(rt *runtime) (types.Value, error) {
		v, err := x(rt)
		if err != nil || v.Null {
			return types.NewNull(to), err
		}
		out, err := c.Fn(rt.env.Ctx(), v)
		if err != nil {
			return types.Value{}, fmt.Errorf("cast %s→%s: %w", c.From, c.To, err)
		}
		return out, nil
	}, to, nil
}

func (b *binder) bindBetween(n *ast.Between, sc *bindScope) (cexpr, *types.Type, error) {
	bounds, typs, err := b.bindAll([]ast.Expr{n.X, n.Lo, n.Hi}, sc)
	if err != nil {
		return nil, nil, err
	}
	geLo, err := b.bindCompare(">=", typs[0], typs[1])
	if err != nil {
		return nil, nil, err
	}
	leHi, err := b.bindCompare("<=", typs[0], typs[2])
	if err != nil {
		return nil, nil, err
	}
	x, lo, hi := bounds[0], bounds[1], bounds[2]
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
		ge, err := geLo(rt, xv, lov)
		if err != nil {
			return types.Value{}, err
		}
		le, err := leHi(rt, xv, hiv)
		if err != nil {
			return types.Value{}, err
		}
		// BETWEEN is (x >= lo AND x <= hi) under three-valued logic.
		switch {
		case (!ge.Null && !ge.Bool()) || (!le.Null && !le.Bool()):
			return types.NewBool(not), nil
		case ge.Null || le.Null:
			return nullBool, nil
		default:
			return types.NewBool(!not), nil
		}
	}, types.TBool, nil
}

// bindIn binds x IN (list) and x IN (subquery): TRUE when x equals an
// item, else UNKNOWN when some comparison was, else FALSE.
func (b *binder) bindIn(n *ast.InList, sc *bindScope) (cexpr, *types.Type, error) {
	x, xt, err := b.bind(n.X, sc)
	if err != nil {
		return nil, nil, err
	}
	var plan *selectPlan
	var list []cexpr
	var eqs []cmpFn
	itemTypes := []*types.Type{nil}
	if n.Subquery != nil {
		if plan, err = b.bindSelect(n.Subquery, sc); err != nil {
			return nil, nil, err
		}
		if len(plan.outSchema) != 1 {
			return nil, nil, fmt.Errorf("exec: IN subquery must return one column")
		}
		itemTypes[0] = plan.outSchema[0].Type
	} else if list, itemTypes, err = b.bindAll(n.List, sc); err != nil {
		return nil, nil, err
	}
	for _, t := range itemTypes {
		eq, err := b.bindCompare("=", xt, t)
		if err != nil {
			return nil, nil, err
		}
		eqs = append(eqs, eq)
	}
	not := n.Not
	return func(rt *runtime) (types.Value, error) {
		xv, err := x(rt)
		if err != nil || xv.Null {
			return nullBool, err
		}
		var rows []Row
		items := len(list)
		if plan != nil {
			res, err := plan.run(rt)
			if err != nil {
				return types.Value{}, err
			}
			rows, items = res.Rows, len(res.Rows)
		}
		anyNull := false
		for i := 0; i < items; i++ {
			var iv, v types.Value
			if plan != nil {
				v, err = eqs[0](rt, xv, rows[i][0])
			} else if iv, err = list[i](rt); err == nil {
				v, err = eqs[i](rt, xv, iv)
			}
			if err != nil {
				return types.Value{}, err
			}
			hit, isNull, err := truth(v)
			if err != nil {
				return types.Value{}, err
			}
			if hit {
				return types.NewBool(!not), nil
			}
			anyNull = anyNull || isNull
		}
		if anyNull {
			return nullBool, nil
		}
		return types.NewBool(not), nil
	}, types.TBool, nil
}

func (b *binder) bindLike(n *ast.Like, sc *bindScope) (cexpr, *types.Type, error) {
	x, xt, err := b.bind(n.X, sc)
	if err != nil {
		return nil, nil, err
	}
	pat, pt, err := b.bind(n.Pattern, sc)
	if err != nil {
		return nil, nil, err
	}
	for _, t := range []*types.Type{xt, pt} {
		if t != types.TNull && t.Kind != types.KindString {
			return nil, nil, fmt.Errorf("exec: LIKE requires strings, not %s", t)
		}
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
		return types.NewBool(likeMatch(xv.Str(), pv.Str()) != not), nil
	}, types.TBool, nil
}

// bindCase binds a searched or simple CASE; the THEN and ELSE arms take
// their common type.
func (b *binder) bindCase(n *ast.Case, sc *bindScope) (cexpr, *types.Type, error) {
	var operand cexpr
	var opType *types.Type
	var err error
	if n.Operand != nil {
		if operand, opType, err = b.bind(n.Operand, sc); err != nil {
			return nil, nil, err
		}
	}
	conds := make([]ast.Expr, len(n.Whens))
	results := make([]ast.Expr, len(n.Whens), len(n.Whens)+1)
	for i, w := range n.Whens {
		conds[i], results[i] = w.Cond, w.Then
	}
	if n.Else != nil {
		results = append(results, n.Else)
	}
	whens, condTypes, err := b.bindAll(conds, sc)
	if err != nil {
		return nil, nil, err
	}
	arms, common, err := b.bindArms("CASE", results, sc)
	if err != nil {
		return nil, nil, err
	}
	// A simple CASE compares the operand with each WHEN value.
	eqs := make([]cmpFn, len(whens))
	for i, t := range condTypes {
		if operand == nil {
			break
		}
		if eqs[i], err = b.bindCompare("=", opType, t); err != nil {
			return nil, nil, err
		}
	}
	return func(rt *runtime) (types.Value, error) {
		var opv types.Value
		var err error
		if operand != nil {
			if opv, err = operand(rt); err != nil {
				return types.Value{}, err
			}
		}
		for i, when := range whens {
			cv, err := when(rt)
			if err == nil && operand != nil {
				cv, err = eqs[i](rt, opv, cv)
			}
			if err != nil {
				return types.Value{}, err
			}
			match, _, err := truth(cv)
			if err != nil {
				return types.Value{}, err
			}
			if match {
				return arms[i](rt)
			}
		}
		if len(arms) > len(whens) {
			return arms[len(whens)](rt)
		}
		return types.NewNull(types.TNull), nil
	}, common, nil
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
