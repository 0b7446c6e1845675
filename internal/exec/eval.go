package exec

import (
	"fmt"
	"slices"

	"tip/internal/blade"
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
// (Value.Compare), shared by every call site.
var byOrder = map[string]cmpFn{}

func init() {
	for _, op := range []string{"=", "<>", "<", "<=", ">", ">="} {
		byOrder[op] = func(rt *runtime, a, b types.Value) (types.Value, error) {
			if a.Null || b.Null {
				return nullBool, nil
			}
			cmp, err := a.Compare(b, rt.env.Now)
			if err != nil {
				return types.Value{}, err
			}
			return types.NewBool(cmpMatches(op, cmp)), nil
		}
	}
}

func cmpMatches(op string, cmp int) bool {
	switch op {
	case "=":
		return cmp == 0
	case "<>":
		return cmp != 0
	case "<":
		return cmp < 0
	case "<=":
		return cmp <= 0
	case ">":
		return cmp > 0
	case ">=":
		return cmp >= 0
	default:
		return false
	}
}

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
