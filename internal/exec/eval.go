package exec

import (
	"fmt"

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

// compareValues applies a comparison operator with SQL semantics: NULL
// operands yield UNKNOWN. Dispatch order: (1) a blade overload whose
// parameter types match exactly (e.g. TIP's Element equality); (2) the
// generic path — unify the operand types with at most one implicit cast
// and order with Value.Compare; (3) a blade overload reachable through
// implicit casts. The exact-first rule keeps VARCHAR = VARCHAR a string
// comparison even though strings cast implicitly to TIP types.
func (rt *runtime) compareValues(op string, a, b types.Value) (types.Value, error) {
	if a.Null || b.Null {
		return nullBool, nil
	}
	reg := rt.env.Reg
	argT := []*types.Type{a.T, b.T}
	if res, ok := reg.ResolveExact(op, argT); ok {
		return reg.Call(rt.env.Ctx(), res, []types.Value{a, b}, nil)
	}
	ua, ub := a, b
	if ua.T != ub.T {
		if c, ok := reg.LookupCast(ua.T, ub.T); ok && c.Implicit {
			cv, err := c.Fn(rt.env.Ctx(), ua)
			if err != nil {
				return types.Value{}, err
			}
			ua = cv
		} else if c, ok := reg.LookupCast(ub.T, ua.T); ok && c.Implicit {
			cv, err := c.Fn(rt.env.Ctx(), ub)
			if err != nil {
				return types.Value{}, err
			}
			ub = cv
		}
	}
	// A cast may have unified onto a type with an exact overload
	// (e.g. Chronon = Instant unifies to Instant).
	if ua.T == ub.T {
		if res, ok := reg.ResolveExact(op, []*types.Type{ua.T, ub.T}); ok {
			return reg.Call(rt.env.Ctx(), res, []types.Value{ua, ub}, nil)
		}
	}
	cmp, err := ua.Compare(ub, rt.env.Now)
	if err == nil {
		return types.NewBool(cmpMatches(op, cmp)), nil
	}
	// Last resort: a blade overload reachable through implicit casts
	// (e.g. Period = Element lifts the period into an element).
	if res, rerr := reg.Resolve(op, argT); rerr == nil {
		return reg.Call(rt.env.Ctx(), res, []types.Value{a, b}, nil)
	}
	return types.Value{}, err
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

// equalValues is "=" with the UNKNOWN case surfaced, used by IN and CASE.
func (rt *runtime) equalValues(a, b types.Value) (eq, null bool, err error) {
	v, err := rt.compareValues("=", a, b)
	if err != nil {
		return false, false, err
	}
	if v.Null {
		return false, true, nil
	}
	return v.Bool(), false, nil
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
