// Package blade implements the engine's extension API — the analogue of
// the Informix DataBlade API that TIP is built on. A blade registers
// user-defined types (with parse/format/codec hooks), routines and
// operator overloads, implicit and explicit casts, and user-defined
// aggregates. Once registered they are indistinguishable from built-ins:
// the SQL executor resolves every function call, operator and cast through
// the blade registry.
//
// The engine's own built-in behaviour (integer arithmetic, string
// concatenation, …) is registered through this same API (see builtins.go),
// so the extension machinery is exercised by every query.
package blade

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"tip/internal/temporal"
	"tip/internal/types"
)

// Ctx carries the evaluation context a routine may consult: the concrete
// value of NOW (the current transaction time, possibly overridden by the
// session for what-if analysis).
type Ctx struct {
	Now temporal.Chronon
}

// RoutineFn is the implementation of one routine overload.
type RoutineFn func(ctx *Ctx, args []types.Value) (types.Value, error)

// Routine is one overload of a named routine or operator. Operators are
// routines whose name is the operator symbol ("+", "=", …).
type Routine struct {
	// Name is the routine's SQL name; lookup is case-insensitive.
	Name string
	// Params are the formal parameter types.
	Params []*types.Type
	// Result is the routine's static result type, required: the
	// executor types every call site with it before the first row.
	Result *types.Type
	// Strict routines are not invoked on NULL input: a typed NULL of the
	// Result type is produced instead. Virtually all TIP routines are
	// strict.
	Strict bool
	// Fn evaluates the routine.
	Fn RoutineFn
}

// CastFn converts one value to a target type.
type CastFn func(ctx *Ctx, v types.Value) (types.Value, error)

// Cast is a conversion edge in the cast graph.
type Cast struct {
	From, To *types.Type
	// Implicit casts are applied automatically during overload
	// resolution and assignment; explicit casts require ::T or CAST.
	Implicit bool
	Fn       CastFn
}

// AggState accumulates one group's input for a user-defined aggregate.
type AggState interface {
	// Step folds one non-NULL input value into the state.
	Step(ctx *Ctx, v types.Value) error
	// Final produces the aggregate result for the group.
	Final(ctx *Ctx) (types.Value, error)
}

// Aggregate is one overload of a named user-defined aggregate, such as
// TIP's group_union.
type Aggregate struct {
	Name string
	// Param is the formal input type.
	Param *types.Type
	// Result is the aggregate's result type.
	Result *types.Type
	// New returns a fresh accumulator for a group.
	New func() AggState
}

// Registry holds every registered type, routine, cast and aggregate. A
// fresh Registry already contains the engine built-ins; blades add to it.
type Registry struct {
	typesByName map[string]*types.Type // upper-cased name → type
	routines    map[string][]*Routine  // lower-cased name → overloads
	casts       map[castKey]*Cast
	aggregates  map[string][]*Aggregate
}

type castKey struct{ from, to *types.Type }

// NewRegistry returns a registry pre-populated with the engine's built-in
// types, operators and casts.
func NewRegistry() *Registry {
	r := &Registry{
		typesByName: make(map[string]*types.Type),
		routines:    make(map[string][]*Routine),
		casts:       make(map[castKey]*Cast),
		aggregates:  make(map[string][]*Aggregate),
	}
	r.registerBuiltinTypes()
	r.registerBuiltinRoutines()
	r.registerBuiltinCasts()
	return r
}

func (r *Registry) registerBuiltinTypes() {
	for _, t := range []*types.Type{types.TInt, types.TFloat, types.TBool, types.TString, types.TDate} {
		r.typesByName[t.Name] = t
	}
	// SQL spelling aliases.
	alias := map[string]*types.Type{
		"INTEGER": types.TInt, "BIGINT": types.TInt, "SMALLINT": types.TInt,
		"REAL": types.TFloat, "DOUBLE": types.TFloat, "DECIMAL": types.TFloat,
		"NUMERIC": types.TFloat, "BOOL": types.TBool,
		"CHAR": types.TString, "TEXT": types.TString, "STRING": types.TString,
	}
	for name, t := range alias {
		r.typesByName[name] = t
	}
}

// RegisterType interns a UDT and returns its *Type. Registering also
// installs the automatic string casts the paper describes: an implicit
// VARCHAR→T cast via the type's Parse hook (so SQL string literals convert
// automatically) and an explicit T→VARCHAR cast via Format.
func (r *Registry) RegisterType(udt *types.UDT) (*types.Type, error) {
	key := strings.ToUpper(udt.Name)
	if _, ok := r.typesByName[key]; ok {
		return nil, fmt.Errorf("blade: type %s already registered", udt.Name)
	}
	t := &types.Type{Name: udt.Name, Kind: types.KindUDT, UDT: udt}
	r.typesByName[key] = t
	r.MustRegisterCast(&Cast{From: types.TString, To: t, Implicit: true,
		Fn: func(_ *Ctx, v types.Value) (types.Value, error) {
			obj, err := udt.Parse(v.Str())
			if err != nil {
				return types.Value{}, err
			}
			return types.NewUDT(t, obj), nil
		}})
	r.MustRegisterCast(&Cast{From: t, To: types.TString,
		Fn: func(_ *Ctx, v types.Value) (types.Value, error) {
			return types.NewString(udt.Format(v.Obj())), nil
		}})
	return t, nil
}

// MustRegisterType is RegisterType that panics on conflict; for blade
// initialisation code.
func (r *Registry) MustRegisterType(udt *types.UDT) *types.Type {
	t, err := r.RegisterType(udt)
	if err != nil {
		panic(err)
	}
	return t
}

// LookupType resolves a SQL type name (case-insensitive).
func (r *Registry) LookupType(name string) (*types.Type, bool) {
	t, ok := r.typesByName[strings.ToUpper(name)]
	return t, ok
}

// TypeNames returns the registered type names, sorted, for introspection.
func (r *Registry) TypeNames() []string {
	out := make([]string, 0, len(r.typesByName))
	for n := range r.typesByName {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// RegisterRoutine adds one routine overload. An overload without a
// result type, or with identical parameter types as an existing one, is
// rejected.
func (r *Registry) RegisterRoutine(rt *Routine) error {
	if rt.Result == nil {
		return fmt.Errorf("blade: routine %s%s declares no result type", rt.Name, typeList(rt.Params))
	}
	key := strings.ToLower(rt.Name)
	for _, ex := range r.routines[key] {
		if sameParams(ex.Params, rt.Params) {
			return fmt.Errorf("blade: routine %s%s already registered", rt.Name, typeList(rt.Params))
		}
	}
	r.routines[key] = append(r.routines[key], rt)
	return nil
}

// MustRegisterRoutine is RegisterRoutine that panics on conflict.
func (r *Registry) MustRegisterRoutine(rt *Routine) {
	if err := r.RegisterRoutine(rt); err != nil {
		panic(err)
	}
}

// HasRoutine reports whether any overload is registered under name.
func (r *Registry) HasRoutine(name string) bool {
	return len(r.routines[strings.ToLower(name)]) > 0
}

// RegisterCast adds a conversion edge.
func (r *Registry) RegisterCast(c *Cast) error {
	k := castKey{c.From, c.To}
	if _, ok := r.casts[k]; ok {
		return fmt.Errorf("blade: cast %s→%s already registered", c.From, c.To)
	}
	r.casts[k] = c
	return nil
}

// MustRegisterCast is RegisterCast that panics on conflict.
func (r *Registry) MustRegisterCast(c *Cast) {
	if err := r.RegisterCast(c); err != nil {
		panic(err)
	}
}

// LookupCast finds the conversion edge from → to, if any.
func (r *Registry) LookupCast(from, to *types.Type) (*Cast, bool) {
	c, ok := r.casts[castKey{from, to}]
	return c, ok
}

// RegisterAggregate adds one aggregate overload.
func (r *Registry) RegisterAggregate(a *Aggregate) error {
	key := strings.ToLower(a.Name)
	for _, ex := range r.aggregates[key] {
		if ex.Param == a.Param {
			return fmt.Errorf("blade: aggregate %s(%s) already registered", a.Name, a.Param)
		}
	}
	r.aggregates[key] = append(r.aggregates[key], a)
	return nil
}

// MustRegisterAggregate is RegisterAggregate that panics on conflict.
func (r *Registry) MustRegisterAggregate(a *Aggregate) {
	if err := r.RegisterAggregate(a); err != nil {
		panic(err)
	}
}

// HasAggregate reports whether any overload is registered under name.
func (r *Registry) HasAggregate(name string) bool {
	return len(r.aggregates[strings.ToLower(name)]) > 0
}

// ResolveAggregate picks the aggregate overload for the given input type,
// applying at most one implicit cast. The returned cast is nil when the
// input type matches exactly.
func (r *Registry) ResolveAggregate(name string, arg *types.Type) (*Aggregate, *Cast, error) {
	overloads := r.aggregates[strings.ToLower(name)]
	if len(overloads) == 0 {
		return nil, nil, fmt.Errorf("blade: unknown aggregate %s", name)
	}
	for _, a := range overloads {
		if a.Param == arg {
			return a, nil, nil
		}
	}
	var best *Aggregate
	var bestCast *Cast
	for _, a := range overloads {
		if c, ok := r.LookupCast(arg, a.Param); ok && c.Implicit {
			if best != nil {
				return nil, nil, fmt.Errorf("blade: ambiguous aggregate %s(%s)", name, arg)
			}
			best, bestCast = a, c
		}
	}
	if best == nil {
		return nil, nil, fmt.Errorf("blade: no overload of aggregate %s accepts %s", name, arg)
	}
	return best, bestCast, nil
}

// ResolveExact finds the overload of name whose parameter types equal the
// argument types exactly (no implicit casts considered). It is used by
// the executor's comparison dispatch, where a blade-registered exact
// overload must win but cast-based overloads must not hijack built-in
// comparisons (e.g. VARCHAR = VARCHAR must stay a string comparison even
// though strings cast implicitly to Element).
func (r *Registry) ResolveExact(name string, args []*types.Type) (*Resolution, bool) {
	for _, rt := range r.routines[strings.ToLower(name)] {
		if sameParams(rt.Params, args) {
			return &Resolution{Routine: rt, Casts: make([]*Cast, len(args))}, true
		}
	}
	return nil, false
}

// Resolution is the outcome of overload resolution: the selected routine
// and the implicit casts (nil entries mean no cast) to apply to each
// argument before invocation.
type Resolution struct {
	Routine *Routine
	Casts   []*Cast
}

// Resolve picks the best overload of name for the given argument types,
// mirroring Informix routine resolution: exact parameter matches score
// higher than implicit-cast matches; the highest-scoring overload wins; a
// tie is an ambiguity error. A NULL argument (type NULL, from the literal
// NULL or an untyped parameter) matches any parameter type.
func (r *Registry) Resolve(name string, args []*types.Type) (*Resolution, error) {
	overloads := r.routines[strings.ToLower(name)]
	if len(overloads) == 0 {
		return nil, fmt.Errorf("blade: unknown routine %s", name)
	}
	const (
		exactScore = 2
		castScore  = 1
	)
	var best *Resolution
	bestScore, tie := -1, false
	for _, rt := range overloads {
		if len(rt.Params) != len(args) {
			continue
		}
		score := 0
		casts := make([]*Cast, len(args))
		ok := true
		for i, formal := range rt.Params {
			actual := args[i]
			switch {
			case actual == formal:
				score += exactScore
			case actual.Kind == types.KindNull:
				score += exactScore // NULL matches anything
			default:
				c, found := r.LookupCast(actual, formal)
				if !found || !c.Implicit {
					ok = false
				} else {
					casts[i] = c
					score += castScore
				}
			}
			if !ok {
				break
			}
		}
		if !ok {
			continue
		}
		switch {
		case score > bestScore:
			best = &Resolution{Routine: rt, Casts: casts}
			bestScore, tie = score, false
		case score == bestScore:
			tie = true
		}
	}
	if best == nil {
		return nil, fmt.Errorf("blade: no overload of %s accepts %s", name, typeList(args))
	}
	if tie {
		return nil, fmt.Errorf("blade: ambiguous call %s%s; add an explicit cast", name, typeList(args))
	}
	return best, nil
}

// Call evaluates a previously resolved routine against concrete arguments.
// Strict routines short-circuit NULL inputs before any cast, so a NULL
// beside an inconvertible value stays a NULL result. Otherwise the
// resolution's implicit casts are applied into args in place, so args
// must be a slice the caller owns and may overwrite; routines never
// retain it. memo is nil or holds one CastMemo per argument: a call site
// that passes the same memo on every row converts a repeated input once.
func (r *Registry) Call(ctx *Ctx, res *Resolution, args []types.Value, memo []CastMemo) (types.Value, error) {
	rt := res.Routine
	if rt.Strict {
		for _, a := range args {
			if a.Null {
				return types.NewNull(rt.Result), nil
			}
		}
	}
	for i, c := range res.Casts {
		if c == nil || args[i].Null {
			continue
		}
		var cv types.Value
		var err error
		if memo != nil {
			cv, err = memo[i].Apply(ctx, c, args[i])
		} else {
			cv, err = c.apply(ctx, args[i])
		}
		if err != nil {
			return types.Value{}, err
		}
		args[i] = cv
	}
	out, err := rt.Fn(ctx, args)
	if err != nil {
		return types.Value{}, fmt.Errorf("%s: %w", rt.Name, err)
	}
	return out, nil
}

// apply converts one routine argument along this implicit cast edge.
func (c *Cast) apply(ctx *Ctx, v types.Value) (types.Value, error) {
	out, err := c.Fn(ctx, v)
	if err != nil {
		return types.Value{}, fmt.Errorf("implicit cast %s→%s: %w", c.From, c.To, err)
	}
	return out, nil
}

// CastMemo is one call-site position's last implicit conversion (see
// Call). The zero value is empty. A cast sees the Ctx and so may depend
// on NOW; keep a memo for one execution, no longer.
type CastMemo struct {
	cast    *Cast
	in, out types.Value
}

// Apply converts the non-NULL v along c, reusing the previous result
// when both the cast and the input are unchanged.
func (m *CastMemo) Apply(ctx *Ctx, c *Cast, v types.Value) (types.Value, error) {
	if m.cast == c && sameInput(m.in, v) {
		return m.out, nil
	}
	out, err := c.apply(ctx, v)
	if err != nil {
		return types.Value{}, err
	}
	*m = CastMemo{cast: c, in: v, out: out}
	return out, nil
}

// sameInput reports whether a and b are the same cast input: type, NULL
// flag and payload. It never panics, and it answers false for UDT
// payloads it cannot compare with == (an Element holds a slice), which
// only costs the memo a conversion.
func sameInput(a, b types.Value) bool {
	if a.T != b.T || a.Null != b.Null || a.I != b.I || a.S != b.S ||
		math.Float64bits(a.F) != math.Float64bits(b.F) {
		return false
	}
	switch x := a.O.(type) {
	case nil:
		return b.O == nil
	case temporal.Chronon:
		return samePayload(x, b.O)
	case temporal.Span:
		return samePayload(x, b.O)
	case temporal.Instant:
		return samePayload(x, b.O)
	case temporal.Period:
		return samePayload(x, b.O)
	}
	return false
}

func samePayload[T comparable](x T, o any) bool {
	y, ok := o.(T)
	return ok && x == y
}

// Convert applies a cast (explicit or implicit) from v's type to the
// target type, for ::T, CAST(... AS T) and assignment coercion. Same-type
// conversion is the identity; NULL converts to a typed NULL.
func (r *Registry) Convert(ctx *Ctx, v types.Value, to *types.Type) (types.Value, error) {
	if v.T == to {
		return v, nil
	}
	if v.Null {
		return types.NewNull(to), nil
	}
	c, ok := r.LookupCast(v.T, to)
	if !ok {
		return types.Value{}, fmt.Errorf("blade: no cast from %s to %s", v.T, to)
	}
	out, err := c.Fn(ctx, v)
	if err != nil {
		return types.Value{}, fmt.Errorf("cast %s→%s: %w", c.From, c.To, err)
	}
	return out, nil
}

// ImplicitConvert is Convert restricted to implicit edges, used for
// assignment coercion on INSERT and UPDATE.
func (r *Registry) ImplicitConvert(ctx *Ctx, v types.Value, to *types.Type) (types.Value, error) {
	if v.T == to || v.Null {
		return r.Convert(ctx, v, to)
	}
	c, ok := r.LookupCast(v.T, to)
	if !ok || !c.Implicit {
		return types.Value{}, fmt.Errorf("blade: no implicit conversion from %s to %s", v.T, to)
	}
	return r.Convert(ctx, v, to)
}

func sameParams(a, b []*types.Type) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func typeList(ts []*types.Type) string {
	var b strings.Builder
	b.WriteByte('(')
	for i, t := range ts {
		if i > 0 {
			b.WriteString(", ")
		}
		if t == nil {
			b.WriteString("?")
		} else {
			b.WriteString(t.Name)
		}
	}
	b.WriteByte(')')
	return b.String()
}
