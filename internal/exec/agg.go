package exec

import (
	"fmt"

	"tip/internal/blade"
	"tip/internal/sql/ast"
	"tip/internal/types"
)

// Aggregation: the built-in aggregates (COUNT, SUM, AVG, MIN, MAX) plus
// blade-registered user-defined aggregates such as TIP's group_union.
// Implementation selection is lazy — the first non-NULL input picks the
// accumulator — so the engine stays dynamically typed.

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
}

// collectAggs walks the given expressions gathering aggregate call sites.
// It does not descend into subqueries (their aggregates are their own)
// nor into aggregate arguments (nested aggregates are an error).
func (b *binder) collectAggs(exprs []ast.Expr) ([]*aggSpec, error) {
	var specs []*aggSpec
	var walk func(e ast.Expr, inAgg bool) error
	walk = func(e ast.Expr, inAgg bool) error {
		switch n := e.(type) {
		case nil:
			return nil
		case *ast.Unary:
			return walk(n.X, inAgg)
		case *ast.Binary:
			if err := walk(n.L, inAgg); err != nil {
				return err
			}
			return walk(n.R, inAgg)
		case *ast.Call:
			if b.isAggregate(n.LowerName()) {
				if inAgg {
					return fmt.Errorf("exec: nested aggregate %s", n.Name)
				}
				spec := &aggSpec{call: n, name: n.LowerName(), distinct: n.Distinct, star: n.Star}
				if !n.Star {
					if len(n.Args) != 1 {
						return fmt.Errorf("exec: aggregate %s takes one argument", n.Name)
					}
				}
				specs = append(specs, spec)
				if !n.Star {
					return walk(n.Args[0], true)
				}
				return nil
			}
			for _, a := range n.Args {
				if err := walk(a, inAgg); err != nil {
					return err
				}
			}
			return nil
		case *ast.Cast:
			return walk(n.X, inAgg)
		case *ast.IsNull:
			return walk(n.X, inAgg)
		case *ast.Between:
			if err := walk(n.X, inAgg); err != nil {
				return err
			}
			if err := walk(n.Lo, inAgg); err != nil {
				return err
			}
			return walk(n.Hi, inAgg)
		case *ast.InList:
			if err := walk(n.X, inAgg); err != nil {
				return err
			}
			for _, item := range n.List {
				if err := walk(item, inAgg); err != nil {
					return err
				}
			}
			return nil
		case *ast.Like:
			if err := walk(n.X, inAgg); err != nil {
				return err
			}
			return walk(n.Pattern, inAgg)
		case *ast.Case:
			if err := walk(n.Operand, inAgg); err != nil {
				return err
			}
			for _, w := range n.Whens {
				if err := walk(w.Cond, inAgg); err != nil {
					return err
				}
				if err := walk(w.Then, inAgg); err != nil {
					return err
				}
			}
			return walk(n.Else, inAgg)
		default:
			// Literals, params, column refs, subqueries: nothing to do.
			return nil
		}
	}
	for _, e := range exprs {
		if err := walk(e, false); err != nil {
			return nil, err
		}
	}
	return specs, nil
}

// groupTable is generic grouped aggregation: one accumulator set per
// distinct group key, kept in first-encounter order. It copies the
// values it needs out of each input row and never keeps the row, so it
// can consume a join's rows as they are produced.
type groupTable struct {
	keyExprs []cexpr
	specs    []*aggSpec
	groups   map[string]*aggGroup
	order    []*aggGroup
	vals     []types.Value
}

type aggGroup struct {
	vals []types.Value
	accs []*aggAcc
}

func newGroupTable(keyExprs []cexpr, specs []*aggSpec) *groupTable {
	return &groupTable{
		keyExprs: keyExprs,
		specs:    specs,
		groups:   make(map[string]*aggGroup),
		vals:     make([]types.Value, len(keyExprs)),
	}
}

func (gt *groupTable) newGroup() *aggGroup {
	g := &aggGroup{accs: make([]*aggAcc, len(gt.specs))}
	for i, spec := range gt.specs {
		g.accs[i] = newAggAcc(spec)
	}
	return g
}

// add folds one from row into its group.
func (gt *groupTable) add(rt *runtime, fr Row) error {
	if err := rt.checkCancel(); err != nil {
		return err
	}
	rt.push(fr)
	defer rt.pop()
	for i, ge := range gt.keyExprs {
		v, err := ge(rt)
		if err != nil {
			return err
		}
		gt.vals[i] = v
	}
	rt.keybuf = rt.appendKey(rt.keybuf[:0], gt.vals)
	g, ok := gt.groups[string(rt.keybuf)]
	if !ok {
		g = gt.newGroup()
		g.vals = rt.alloc(len(gt.vals))
		copy(g.vals, gt.vals)
		gt.groups[string(rt.keybuf)] = g
		gt.order = append(gt.order, g)
		rt.charge(int64(len(rt.keybuf)) + mapEntryOverhead +
			groupOverhead + int64(len(gt.specs))*aggAccSize)
	}
	for _, acc := range g.accs {
		if err := acc.add(rt); err != nil {
			return err
		}
	}
	return nil
}

// rows finalises every group into a group row ([group values...,
// aggregate results...]). A global aggregate over no input still yields
// one row.
func (gt *groupTable) rows(rt *runtime) ([]Row, error) {
	if len(gt.order) == 0 && len(gt.keyExprs) == 0 {
		gt.order = append(gt.order, gt.newGroup())
	}
	if err := rt.grow(int64(len(gt.order)) * rowHeaderSize); err != nil {
		return nil, err
	}
	n := len(gt.keyExprs)
	out := make([]Row, 0, len(gt.order))
	for _, g := range gt.order {
		groupRow := rt.alloc(n + len(gt.specs))
		copy(groupRow, g.vals)
		for i, acc := range g.accs {
			v, err := acc.final(rt)
			if err != nil {
				return nil, err
			}
			groupRow[n+i] = v
		}
		out = append(out, groupRow)
	}
	return out, nil
}

// aggAcc is the runtime accumulator for one aggregate call in one group.
type aggAcc struct {
	spec   *aggSpec
	count  int64
	state  blade.AggState
	cast   *blade.Cast
	chosen bool
	seen   map[string]struct{}
}

func newAggAcc(spec *aggSpec) *aggAcc {
	acc := &aggAcc{spec: spec}
	if spec.distinct {
		acc.seen = make(map[string]struct{})
	}
	return acc
}

// add folds one input row's value into the accumulator.
func (a *aggAcc) add(rt *runtime) error {
	if a.spec.star {
		a.count++
		return nil
	}
	v, err := a.spec.arg(rt)
	if err != nil {
		return err
	}
	if v.Null {
		return nil // aggregates skip NULL input
	}
	if a.seen != nil {
		k := v.Key(rt.env.Now)
		if _, dup := a.seen[k]; dup {
			return nil
		}
		rt.charge(int64(len(k)) + mapEntryOverhead)
		a.seen[k] = struct{}{}
	}
	a.count++
	if a.spec.name == "count" {
		return nil
	}
	if !a.chosen {
		if err := a.choose(rt, v); err != nil {
			return err
		}
	}
	if a.cast != nil {
		cv, err := a.cast.Fn(rt.env.Ctx(), v)
		if err != nil {
			return err
		}
		v = cv
	}
	return a.state.Step(rt.env.Ctx(), v)
}

// choose picks the accumulator implementation from the first value's
// type: built-in numeric implementations for SUM/AVG, the generic
// order-based implementation for MIN/MAX, and blade user-defined
// aggregates for everything else (including SUM over UDTs like Span).
func (a *aggAcc) choose(rt *runtime, v types.Value) error {
	a.chosen = true
	numeric := v.T.Kind == types.KindInt || v.T.Kind == types.KindFloat
	switch a.spec.name {
	case "sum":
		if numeric {
			if v.T.Kind == types.KindInt {
				a.state = &sumIntState{}
			} else {
				a.state = &sumFloatState{}
			}
			return nil
		}
	case "avg":
		if numeric {
			a.state = &avgState{}
			return nil
		}
	case "min":
		a.state = &minMaxState{min: true}
		return nil
	case "max":
		a.state = &minMaxState{}
		return nil
	}
	agg, cast, err := rt.env.Reg.ResolveAggregate(a.spec.name, v.T)
	if err != nil {
		return err
	}
	a.state = agg.New()
	a.cast = cast
	return nil
}

// final produces the aggregate's result for the group.
func (a *aggAcc) final(rt *runtime) (types.Value, error) {
	if a.spec.name == "count" {
		return types.NewInt(a.count), nil
	}
	if !a.chosen {
		return types.NewNull(types.TNull), nil // empty input
	}
	return a.state.Final(rt.env.Ctx())
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
