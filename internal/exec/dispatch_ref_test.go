package exec

// The executor's per-row dispatch as it was before every decision moved
// to bind time, kept as the reference the bound expressions are checked
// against (dispatch_test.go): compareValues walked its ladder for every
// row of every comparison, and arithmetic resolved its overload for
// every row through Registry.Invoke. The bodies are the originals.

import (
	"tip/internal/blade"
	"tip/internal/types"
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

// refRegistry lends the registry the Invoke method it used to have.
type refRegistry struct{ *blade.Registry }

// Invoke resolves and evaluates a routine call in one step: implicit casts
// are applied (into args, as in Call), strict routines short-circuit NULL
// inputs.
func (r refRegistry) Invoke(ctx *blade.Ctx, name string, args []types.Value) (types.Value, error) {
	argTypes := make([]*types.Type, len(args))
	for i, a := range args {
		if a.Null && a.T == nil {
			argTypes[i] = types.TNull
		} else {
			argTypes[i] = a.T
		}
	}
	res, err := r.Resolve(name, argTypes)
	if err != nil {
		return types.Value{}, err
	}
	return r.Call(ctx, res, args, nil)
}
