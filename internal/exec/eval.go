package exec

import (
	"fmt"
	"slices"

	"tip/internal/blade"
	"tip/internal/sql/ast"
	"tip/internal/types"
)

// cexpr is a compiled expression: evaluated against the runtime's scope
// stack.
type cexpr func(rt *runtime) (types.Value, error)

// Three-valued logic. SQL booleans are TRUE, FALSE or UNKNOWN (NULL).

// truth classifies a value for predicate contexts.
func truth(v types.Value) (isTrue, isNull bool, err error) {
	if v.Null {
		return false, true, nil
	}
	if v.T.Kind != types.KindBool {
		return false, false, fmt.Errorf("exec: expected BOOLEAN, got %s", v.T)
	}
	return v.Bool(), false, nil
}

var (
	trueValue  = types.NewBool(true)
	falseValue = types.NewBool(false)
	nullBool   = types.NewNull(types.TBool)
)

// cmpFn applies one comparison operator to two values whose types were
// fixed when it was bound. NULL operands yield UNKNOWN.
type cmpFn func(rt *runtime, a, b types.Value) (types.Value, error)

// bindCompare chooses, from the operand types, the one step of the
// comparison ladder every row takes: (1) a blade overload whose
// parameter types match exactly (e.g. TIP's Element equality); (2) the
// generic path — unify the operand types with at most one implicit cast,
// then an exact overload on the unified type or the type's own order
// (Value.Compare); (3) a blade overload reachable through implicit casts
// (e.g. Period = Element lifts the period into an element). The
// exact-first rule keeps VARCHAR = VARCHAR a string comparison even
// though strings cast implicitly to TIP types. A NULL-typed operand makes
// the comparison UNKNOWN on every row; a pair no step accepts is an error
// here, before any row.
func (b *binder) bindCompare(op string, lt, rt *types.Type) (cmpFn, error) {
	reg := b.env.Reg
	if lt == types.TNull || rt == types.TNull {
		return byOrder[op], nil // every row compares a NULL: UNKNOWN
	}
	if res, ok := reg.ResolveExact(op, []*types.Type{lt, rt}); ok {
		return compareCall(res), nil
	}
	// Unify: cast one side along the implicit edge between the types.
	var cast *blade.Cast
	castLeft, ul, ur := false, lt, rt
	if c, ok := b.implicitCast(lt, rt); ok && c != nil {
		cast, castLeft, ul = c, true, rt
	} else if c, ok := b.implicitCast(rt, lt); ok && c != nil {
		cast, ur = c, lt
	}
	var step cmpFn
	if res, ok := reg.ResolveExact(op, []*types.Type{ul, ur}); ok {
		step = compareCall(res)
	} else if types.Comparable(ul, ur) {
		step = byOrder[op]
	} else {
		res, err := reg.Resolve(op, []*types.Type{lt, rt})
		if err != nil {
			return nil, fmt.Errorf("exec: cannot compare %s %s %s", lt, op, rt)
		}
		return compareCall(res), nil
	}
	if cast == nil {
		return step, nil
	}
	var memo blade.CastMemo
	return func(rt *runtime, a, b types.Value) (types.Value, error) {
		if a.Null || b.Null {
			return nullBool, nil
		}
		var err error
		if castLeft {
			a, err = memo.Apply(rt.env.Ctx(), cast, a)
		} else {
			b, err = memo.Apply(rt.env.Ctx(), cast, b)
		}
		if err != nil {
			return types.Value{}, err
		}
		return step(rt, a, b)
	}, nil
}

// compareCall is a comparison by a resolved blade overload.
func compareCall(res *blade.Resolution) cmpFn {
	cs := newCallSite(res)
	return func(rt *runtime, a, b types.Value) (types.Value, error) {
		if a.Null || b.Null {
			return nullBool, nil
		}
		cs.args[0], cs.args[1] = a, b
		return cs.call(rt)
	}
}

// pred is a compiled filter conjunct: whether it is TRUE on row. FALSE
// and UNKNOWN both reject the row.
type pred func(rt *runtime, row Row) (bool, error)

// bindFilters compiles the conjuncts of a filter in one scope. A
// conjunct of a comparison kernel's shape (see kernel) reads the row in
// place; any other pushes the row as the innermost scope, is evaluated
// as an expression and is tested by truth.
func (b *binder) bindFilters(exprs []ast.Expr, sc *bindScope) ([]pred, error) {
	out := make([]pred, len(exprs))
	for i, e := range exprs {
		if k := b.kernel(e, sc); k != nil {
			out[i] = k.pred()
			continue
		}
		ce, _, err := b.bind(e, sc)
		if err != nil {
			return nil, err
		}
		out[i] = func(rt *runtime, row Row) (bool, error) {
			rt.push(row)
			v, err := ce(rt)
			rt.pop()
			if err != nil {
				return false, err
			}
			ok, isNull, err := truth(v)
			return ok && !isNull, err
		}
	}
	return out, nil
}

// ordKernel compares one column of the row with row-invariant operands,
// reading the column's payload in place: col op k, k op col (the mask
// flipped) and col [NOT] BETWEEN k1 AND k2. It is TRUE when the column's
// order against k[0] is in the mask m[0] and its order against k[1] in
// m[1] (col op k leaves m[1] orderAny), negated under NOT. The orders
// are Value.Compare's, so a FLOAT NaN orders equal to everything. Under
// three-valued logic a NULL column makes the comparison UNKNOWN, and so
// does a NULL operand, whose test accepts every order, where the other
// test passes (unknown).
type ordKernel struct {
	col     int
	kind    types.Kind
	k       [2]types.Value
	m       [2]uint8
	unknown bool
	not     bool
}

// kernel returns the comparison kernel of e, or nil when e is not one of
// its shapes: col op k, k op col or col [NOT] BETWEEN k1 AND k2, where
// col is a column of the row (scope depth 0) of type INT, FLOAT,
// BOOLEAN, VARCHAR or DATE, each k a literal or parameter of that same
// type, and bindCompare would order the pair by Value.Compare (no blade
// overload, no cast). Every other shape binds the generic ladder, which
// stays the reference.
func (b *binder) kernel(e ast.Expr, sc *bindScope) *ordKernel {
	switch n := e.(type) {
	case *ast.Binary:
		m, ok := orderMasks[n.Op]
		if !ok {
			return nil
		}
		col, k := n.L, n.R
		if _, isCol := col.(*ast.ColumnRef); !isCol {
			col, k, m = k, col, flipped(m)
		}
		return b.newKernel(sc, col, false, kernelTest{n.Op, m, k})
	case *ast.Between:
		return b.newKernel(sc, n.X, n.Not,
			kernelTest{">=", orderMasks[">="], n.Lo}, kernelTest{"<=", orderMasks["<="], n.Hi})
	}
	return nil
}

// kernelTest is one comparison of a kernel: the operator bindCompare
// would resolve, the orders of the column against k that satisfy it.
type kernelTest struct {
	op string
	m  uint8
	k  ast.Expr
}

// newKernel builds the kernel of column x under its tests, or returns
// nil when the operands fall outside the kernel's shapes.
func (b *binder) newKernel(sc *bindScope, x ast.Expr, not bool, tests ...kernelTest) *ordKernel {
	cr, ok := x.(*ast.ColumnRef)
	if !ok || sc == nil || sc.agg != nil {
		return nil
	}
	col, err := sc.schema.Resolve(cr.Table, cr.Column)
	if err != nil {
		return nil
	}
	t := sc.schema[col].Type
	switch t.Kind {
	case types.KindInt, types.KindFloat, types.KindBool, types.KindString, types.KindDate:
	default:
		return nil
	}
	k := &ordKernel{col: col, kind: t.Kind, m: [2]uint8{orderAny, orderAny}, not: not}
	for i, test := range tests {
		if _, ok := b.env.Reg.ResolveExact(test.op, []*types.Type{t, t}); ok {
			return nil
		}
		v, ok := b.constant(test.k)
		if !ok || v.T != t {
			return nil
		}
		k.k[i], k.m[i] = v, test.m
		if v.Null {
			k.m[i], k.unknown = orderAny, true
		}
	}
	return k
}

// constant returns the value of a literal or a bound parameter.
func (b *binder) constant(e ast.Expr) (types.Value, bool) {
	switch n := e.(type) {
	case *ast.IntLit:
		return types.NewInt(n.V), true
	case *ast.FloatLit:
		return types.NewFloat(n.V), true
	case *ast.StringLit:
		return types.NewString(n.V), true
	case *ast.BoolLit:
		return types.NewBool(n.V), true
	case *ast.Param:
		v, ok := b.env.Params[n.Name]
		return v, ok
	}
	return types.Value{}, false
}

// passes returns the kernel's test of a non-NULL column value, typed by
// the column's payload, before NOT and the unknown rule.
func (k *ordKernel) passes() func(v *types.Value) bool {
	switch k.kind {
	case types.KindFloat:
		t := ordTest[float64]{k.k[0].F, k.k[1].F, k.m[0], k.m[1]}
		return func(v *types.Value) bool { return t.pass(v.F) }
	case types.KindString:
		t := ordTest[string]{k.k[0].S, k.k[1].S, k.m[0], k.m[1]}
		return func(v *types.Value) bool { return t.pass(v.S) }
	default: // INT, BOOLEAN and DATE keep their payload in I
		t := ordTest[int64]{k.k[0].I, k.k[1].I, k.m[0], k.m[1]}
		return func(v *types.Value) bool { return t.pass(v.I) }
	}
}

// pred is the kernel as a filter: TRUE only.
func (k *ordKernel) pred() pred {
	if k.unknown && !k.not {
		// Passing both tests is UNKNOWN, failing one FALSE: never TRUE.
		return func(*runtime, Row) (bool, error) { return false, nil }
	}
	pass, col, not := k.passes(), k.col, k.not
	return func(_ *runtime, row Row) (bool, error) {
		v := &row[col]
		return !v.Null && pass(v) != not, nil
	}
}

// value is the kernel as a BOOLEAN expression over the row on top of
// the scope stack.
func (k *ordKernel) value() cexpr {
	pass, col, not, unknown := k.passes(), k.col, k.not, k.unknown
	return func(rt *runtime) (types.Value, error) {
		v := &rt.at(0)[col]
		if v.Null {
			return nullBool, nil
		}
		p := pass(v)
		if p && unknown {
			return nullBool, nil
		}
		return types.NewBool(p != not), nil
	}
}

// ordTest tests a payload's orders against two constants.
type ordTest[T int64 | float64 | string] struct {
	k0, k1 T
	m0, m1 uint8
}

func (t *ordTest[T]) pass(x T) bool {
	return t.m0>>(order(x, t.k0)+1)&1 != 0 && t.m1>>(order(x, t.k1)+1)&1 != 0
}

// order is Value.Compare on one payload: a NaN is neither less nor
// greater than anything.
func order[T int64 | float64 | string](a, b T) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// callSite is one bound call of a resolved routine. Routines receive
// the argument slice for the duration of the call only (see
// Registry.Call), so one buffer per call site serves every row; the
// per-position memos apply each implicit cast once per distinct input
// (blade.CastMemo): a literal converts once, a join's outer-row probe
// once per outer row. A call site lives as long as its binding, one
// execution — the plan cache keeps ASTs, not bound plans — so nothing
// converted under one NOW reaches a later statement. An execution runs
// on one goroutine, so no locking.
type callSite struct {
	res   *blade.Resolution
	args  []types.Value
	memos []blade.CastMemo
}

func newCallSite(res *blade.Resolution) *callSite {
	cs := &callSite{res: res, args: make([]types.Value, len(res.Casts))}
	if slices.ContainsFunc(res.Casts, func(c *blade.Cast) bool { return c != nil }) {
		cs.memos = make([]blade.CastMemo, len(res.Casts))
	}
	return cs
}

// call invokes the routine on cs.args, which the caller has filled.
func (cs *callSite) call(rt *runtime) (types.Value, error) {
	return rt.env.Reg.Call(rt.env.Ctx(), cs.res, cs.args, cs.memos)
}

// byOrder holds, per operator, the comparison by the operands' own order
// (Value.Compare), shared by every call site. Each tests the order
// against its operator's mask, fixed here rather than per row.
var byOrder = map[string]cmpFn{}

func init() {
	for op, m := range orderMasks {
		byOrder[op] = func(rt *runtime, a, b types.Value) (types.Value, error) {
			if a.Null || b.Null {
				return nullBool, nil
			}
			cmp, err := a.Compare(b, rt.env.Now)
			if err != nil {
				return types.Value{}, err
			}
			return types.NewBool(accepts(m, cmp)), nil
		}
	}
}

// An order mask is the set of orders of a against b that satisfy a
// comparison operator: bit 0 for a < b, bit 1 for a = b, bit 2 for a > b.
const (
	orderLess    uint8 = 1
	orderEqual   uint8 = 2
	orderGreater uint8 = 4
	orderAny           = orderLess | orderEqual | orderGreater
)

var orderMasks = map[string]uint8{
	"=": orderEqual, "<>": orderLess | orderGreater,
	"<": orderLess, "<=": orderLess | orderEqual,
	">": orderGreater, ">=": orderGreater | orderEqual,
}

// accepts reports whether the order cmp (negative, zero or positive, as
// Compare returns it) is in the mask m.
func accepts(m uint8, cmp int) bool { return m>>(min(max(cmp, -1), 1)+1)&1 != 0 }

// flipped is the mask of the operator with its operands swapped: k < col
// holds where col > k does.
func flipped(m uint8) uint8 { return m&orderEqual | m&orderLess<<2 | m&orderGreater>>2 }

// implicitCast returns the cast that lifts values of type from to type
// to: nil when from already is to or is NULL-typed, ok=false when no
// implicit edge joins them.
func (b *binder) implicitCast(from, to *types.Type) (*blade.Cast, bool) {
	if from == to || from == types.TNull {
		return nil, true
	}
	c, ok := b.env.Reg.LookupCast(from, to)
	if !ok || !c.Implicit {
		return nil, false
	}
	return c, true
}

// unify returns the common type of two arms of a CASE, a COALESCE or a
// set operation: NULL takes the other type, otherwise the target of the
// implicit cast edge between the two; anything else is an error that
// names both.
func (b *binder) unify(what string, x, y *types.Type) (*types.Type, error) {
	if _, ok := b.implicitCast(y, x); ok {
		return x, nil
	}
	if _, ok := b.implicitCast(x, y); ok {
		return y, nil
	}
	return nil, mixError(what, x, y)
}

func mixError(what string, x, y *types.Type) error {
	return fmt.Errorf("exec: %s mixes %s and %s; add an explicit cast", what, x, y)
}

// coerceArm wraps an arm of type from so its non-NULL values have the
// arms' common type to.
func (b *binder) coerceArm(what string, arm cexpr, from, to *types.Type) (cexpr, error) {
	c, ok := b.implicitCast(from, to)
	if !ok {
		return nil, mixError(what, from, to)
	}
	if c == nil {
		return arm, nil
	}
	var memo blade.CastMemo
	return func(rt *runtime) (types.Value, error) {
		v, err := arm(rt)
		if err != nil || v.Null {
			return v, err
		}
		return memo.Apply(rt.env.Ctx(), c, v)
	}, nil
}

// likeMatch implements SQL LIKE with % (any run) and _ (any single
// character) wildcards, case-sensitive.
func likeMatch(s, pattern string) bool {
	return likeRec(s, pattern)
}

func likeRec(s, p string) bool {
	for len(p) > 0 {
		switch p[0] {
		case '%':
			// Collapse consecutive % then try every split point.
			for len(p) > 0 && p[0] == '%' {
				p = p[1:]
			}
			if len(p) == 0 {
				return true
			}
			for i := 0; i <= len(s); i++ {
				if likeRec(s[i:], p) {
					return true
				}
			}
			return false
		case '_':
			if len(s) == 0 {
				return false
			}
			s, p = s[1:], p[1:]
		default:
			if len(s) == 0 || s[0] != p[0] {
				return false
			}
			s, p = s[1:], p[1:]
		}
	}
	return len(s) == 0
}
