package exec

import (
	"fmt"

	"tip/internal/blade"
	"tip/internal/sql/ast"
	"tip/internal/types"
)

// Aggregation: the built-in aggregates (COUNT, SUM, AVG, MIN, MAX) plus
// blade-registered user-defined aggregates such as TIP's group_union.
// Each call site's implementation, implicit cast and result type are
// fixed at bind time from the argument's static type (bindAgg); the
// coalesce operator (coalesce.go), the one grouping operator, runs them.

var builtinAggs = map[string]bool{
	"count": true, "sum": true, "avg": true, "min": true, "max": true,
}

// isAggregate reports whether name denotes an aggregate (built-in or
// registered).
func (b *binder) isAggregate(name string) bool {
	return builtinAggs[name] || b.env.Reg.HasAggregate(name)
}

// aggSpec is one aggregate call site within a grouped query.
type aggSpec struct {
	call     *ast.Call
	name     string
	arg      cexpr // nil for COUNT(*)
	distinct bool
	star     bool

	// Fixed by bindAgg:
	typ      *types.Type           // result type
	newState func() blade.AggState // nil for COUNT and a NULL-typed argument
	agg      *blade.Aggregate      // the blade aggregate, nil for built-in states
	cast     *blade.Cast           // implicit cast into agg's parameter type
	memo     blade.CastMemo

	// fused is set by tryCoalesce when the coalesce operator computes
	// length(...) of this group_union itself: the slot then holds that
	// length, of this type, and only that length call reads it.
	fused *types.Type
}

// bindAgg binds the argument of one aggregate call site and picks its
// implementation from the argument's type: built-in numeric states for
// SUM/AVG, the order-based state for MIN/MAX, and blade user-defined
// aggregates for everything else (including SUM over UDTs like Span).
func (b *binder) bindAgg(spec *aggSpec, sc *bindScope) error {
	if spec.star { // COUNT(*)
		spec.typ = types.TInt
		return nil
	}
	arg, at, err := b.bind(spec.call.Args[0], sc)
	if err != nil {
		return err
	}
	spec.arg = arg
	switch {
	case spec.name == "count":
		spec.typ = types.TInt
	case at == types.TNull:
		spec.typ = types.TNull // no input is ever non-NULL
	case spec.name == "sum" && at.Kind == types.KindInt:
		spec.typ, spec.newState = types.TInt, func() blade.AggState { return &sumIntState{} }
	case spec.name == "sum" && at.Kind == types.KindFloat:
		spec.typ, spec.newState = types.TFloat, func() blade.AggState { return &sumFloatState{} }
	case spec.name == "avg" && (at.Kind == types.KindInt || at.Kind == types.KindFloat):
		spec.typ, spec.newState = types.TFloat, func() blade.AggState { return &avgState{} }
	case spec.name == "min" || spec.name == "max":
		isMin := spec.name == "min"
		spec.typ, spec.newState = at, func() blade.AggState { return &minMaxState{min: isMin} }
	default:
		agg, cast, err := b.env.Reg.ResolveAggregate(spec.name, at)
		if err != nil {
			return err
		}
		spec.typ, spec.newState, spec.agg, spec.cast = agg.Result, agg.New, agg, cast
	}
	return nil
}

// collectAggs walks the given expressions gathering aggregate call sites.
// It does not descend into subqueries (their aggregates are their own),
// and an aggregate inside another's argument is an error.
func (b *binder) collectAggs(exprs []ast.Expr) ([]*aggSpec, error) {
	var specs []*aggSpec
	var err error
	aggCall := func(x ast.Expr) (*ast.Call, bool) {
		n, ok := x.(*ast.Call)
		return n, ok && b.isAggregate(n.LowerName())
	}
	for _, e := range exprs {
		walkExpr(e, func(x ast.Expr) bool {
			n, ok := aggCall(x)
			if !ok {
				return true
			}
			switch {
			case n.Star && n.LowerName() != "count":
				err = fmt.Errorf("exec: %s(*) is not allowed", n.Name)
			case !n.Star && len(n.Args) != 1:
				err = fmt.Errorf("exec: aggregate %s takes one argument", n.Name)
			}
			for _, a := range n.Args {
				walkExpr(a, func(y ast.Expr) bool {
					if inner, ok := aggCall(y); ok && err == nil {
						err = fmt.Errorf("exec: nested aggregate %s", inner.Name)
					}
					return err == nil
				})
			}
			specs = append(specs, &aggSpec{call: n, name: n.LowerName(), distinct: n.Distinct, star: n.Star})
			return err == nil
		})
		if err != nil {
			return nil, err
		}
	}
	return specs, nil
}

type sumIntState struct{ sum int64 }

func (s *sumIntState) Step(_ *blade.Ctx, v types.Value) error {
	s.sum += v.Int()
	return nil
}
func (s *sumIntState) Final(*blade.Ctx) (types.Value, error) { return types.NewInt(s.sum), nil }

type sumFloatState struct{ sum float64 }

func (s *sumFloatState) Step(_ *blade.Ctx, v types.Value) error {
	s.sum += v.Float()
	return nil
}
func (s *sumFloatState) Final(*blade.Ctx) (types.Value, error) { return types.NewFloat(s.sum), nil }

type avgState struct {
	sum float64
	n   int64
}

func (s *avgState) Step(_ *blade.Ctx, v types.Value) error {
	s.sum += v.Float()
	s.n++
	return nil
}

func (s *avgState) Final(*blade.Ctx) (types.Value, error) {
	return types.NewFloat(s.sum / float64(s.n)), nil
}

// minMaxState keeps the extreme value under the type's order (including
// UDT orders such as Chronon's).
type minMaxState struct {
	min  bool
	best types.Value
	any  bool
}

func (s *minMaxState) Step(ctx *blade.Ctx, v types.Value) error {
	if !s.any {
		s.best, s.any = v, true
		return nil
	}
	cmp, err := v.Compare(s.best, ctx.Now)
	if err != nil {
		return err
	}
	if (s.min && cmp < 0) || (!s.min && cmp > 0) {
		s.best = v
	}
	return nil
}

func (s *minMaxState) Final(*blade.Ctx) (types.Value, error) { return s.best, nil }
