package blade

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"tip/internal/temporal"
	"tip/internal/types"
)

func ctx() *Ctx { return &Ctx{} }

// invoke resolves name against the arguments' types and calls it.
func invoke(r *Registry, name string, args []types.Value) (types.Value, error) {
	argTypes := make([]*types.Type, len(args))
	for i, a := range args {
		argTypes[i] = a.T
	}
	res, err := r.Resolve(name, argTypes)
	if err != nil {
		return types.Value{}, err
	}
	return r.Call(ctx(), res, args, nil)
}

func TestBuiltinRoutines(t *testing.T) {
	r := NewRegistry()
	tests := []struct {
		name string
		args []types.Value
		want string
	}{
		{"+", []types.Value{types.NewInt(2), types.NewInt(3)}, "5"},
		{"-", []types.Value{types.NewInt(2), types.NewInt(3)}, "-1"},
		{"*", []types.Value{types.NewInt(2), types.NewInt(3)}, "6"},
		{"/", []types.Value{types.NewInt(7), types.NewInt(2)}, "3"},
		{"%", []types.Value{types.NewInt(7), types.NewInt(2)}, "1"},
		{"+", []types.Value{types.NewFloat(1.5), types.NewFloat(1)}, "2.5"},
		{"+", []types.Value{types.NewInt(1), types.NewFloat(1.5)}, "2.5"}, // implicit INT→FLOAT
		{"||", []types.Value{types.NewString("a"), types.NewString("b")}, "ab"},
		{"upper", []types.Value{types.NewString("ab")}, "AB"},
		{"lower", []types.Value{types.NewString("AB")}, "ab"},
		{"trim", []types.Value{types.NewString("  x ")}, "x"},
		{"char_length", []types.Value{types.NewString("abc")}, "3"},
		{"abs", []types.Value{types.NewInt(-4)}, "4"},
		{"abs", []types.Value{types.NewFloat(-4.5)}, "4.5"},
		{"greatest", []types.Value{types.NewInt(2), types.NewInt(9)}, "9"},
		{"least", []types.Value{types.NewInt(2), types.NewInt(9)}, "2"},
	}
	for _, tt := range tests {
		got, err := invoke(r, tt.name, tt.args)
		if err != nil {
			t.Errorf("%s: %v", tt.name, err)
			continue
		}
		if got.Format() != tt.want {
			t.Errorf("%s = %s, want %s", tt.name, got.Format(), tt.want)
		}
	}
}

func TestDivisionByZero(t *testing.T) {
	r := NewRegistry()
	for _, args := range [][]types.Value{
		{types.NewInt(1), types.NewInt(0)},
		{types.NewFloat(1), types.NewFloat(0)},
		{types.NewInt(1), types.NewInt(0)},
	} {
		if _, err := invoke(r, "/", args); err == nil {
			t.Error("division by zero should fail")
		}
	}
	if _, err := invoke(r, "%", []types.Value{types.NewInt(1), types.NewInt(0)}); err == nil {
		t.Error("modulo by zero should fail")
	}
}

func TestResolutionPrefersExact(t *testing.T) {
	r := NewRegistry()
	// (INT, INT) must pick the INT overload even though both args cast
	// to FLOAT.
	res, err := r.Resolve("+", []*types.Type{types.TInt, types.TInt})
	if err != nil {
		t.Fatal(err)
	}
	if res.Routine.Result != types.TInt {
		t.Errorf("resolved to %s", res.Routine.Result)
	}
	// Mixed resolves to FLOAT with one cast.
	res, err = r.Resolve("+", []*types.Type{types.TInt, types.TFloat})
	if err != nil {
		t.Fatal(err)
	}
	if res.Routine.Result != types.TFloat || res.Casts[0] == nil || res.Casts[1] != nil {
		t.Errorf("mixed resolution = %+v", res)
	}
}

func TestResolutionErrors(t *testing.T) {
	r := NewRegistry()
	if _, err := r.Resolve("nosuch", []*types.Type{types.TInt}); err == nil {
		t.Error("unknown routine should fail")
	}
	if _, err := r.Resolve("+", []*types.Type{types.TString, types.TInt}); err == nil {
		t.Error("unsatisfiable args should fail")
	}
	if _, err := r.Resolve("+", []*types.Type{types.TInt}); err == nil {
		t.Error("wrong arity should fail")
	}
}

func TestAmbiguityDetected(t *testing.T) {
	r := NewRegistry()
	a := &types.Type{Name: "A", Kind: types.KindUDT, UDT: &types.UDT{Name: "A"}}
	bT := &types.Type{Name: "B", Kind: types.KindUDT, UDT: &types.UDT{Name: "B"}}
	cT := &types.Type{Name: "C", Kind: types.KindUDT, UDT: &types.UDT{Name: "C"}}
	id := func(_ *Ctx, v types.Value) (types.Value, error) { return v, nil }
	r.MustRegisterCast(&Cast{From: cT, To: a, Implicit: true, Fn: id})
	r.MustRegisterCast(&Cast{From: cT, To: bT, Implicit: true, Fn: id})
	fn := func(_ *Ctx, args []types.Value) (types.Value, error) { return args[0], nil }
	r.MustRegisterRoutine(&Routine{Name: "f", Params: []*types.Type{a}, Result: a, Fn: fn})
	r.MustRegisterRoutine(&Routine{Name: "f", Params: []*types.Type{bT}, Result: bT, Fn: fn})
	_, err := r.Resolve("f", []*types.Type{cT})
	if err == nil || !strings.Contains(err.Error(), "ambiguous") {
		t.Errorf("ambiguity error = %v", err)
	}
}

func TestStrictNullHandling(t *testing.T) {
	r := NewRegistry()
	got, err := invoke(r, "upper", []types.Value{types.NewNull(types.TString)})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Null || got.T != types.TString {
		t.Errorf("strict NULL = %+v", got)
	}
}

func TestRegisterTypeInstallsStringCasts(t *testing.T) {
	r := NewRegistry()
	typ := r.MustRegisterType(&types.UDT{
		Name:   "Pair",
		Parse:  func(s string) (any, error) { return s + s, nil },
		Format: func(v any) string { return v.(string) },
	})
	// Implicit VARCHAR → Pair.
	v, err := r.ImplicitConvert(ctx(), types.NewString("ab"), typ)
	if err != nil {
		t.Fatal(err)
	}
	if v.Obj().(string) != "abab" {
		t.Errorf("parse cast = %v", v.Obj())
	}
	// Explicit Pair → VARCHAR.
	back, err := r.Convert(ctx(), v, types.TString)
	if err != nil {
		t.Fatal(err)
	}
	if back.Str() != "abab" {
		t.Errorf("format cast = %v", back.Str())
	}
	// But not implicit.
	if _, err := r.ImplicitConvert(ctx(), v, types.TString); err == nil {
		t.Error("UDT→VARCHAR should not be implicit")
	}
	// Duplicate registration fails.
	if _, err := r.RegisterType(&types.UDT{Name: "pair"}); err == nil {
		t.Error("case-insensitive duplicate type should fail")
	}
}

func TestConvertSemantics(t *testing.T) {
	r := NewRegistry()
	// Identity.
	v, err := r.Convert(ctx(), types.NewInt(1), types.TInt)
	if err != nil || v.Int() != 1 {
		t.Errorf("identity convert = %v, %v", v, err)
	}
	// NULL converts to a typed NULL.
	v, err = r.Convert(ctx(), types.NewNull(types.TNull), types.TFloat)
	if err != nil || !v.Null || v.T != types.TFloat {
		t.Errorf("NULL convert = %+v, %v", v, err)
	}
	// Missing edge.
	if _, err := r.Convert(ctx(), types.NewBool(true), types.TFloat); err == nil {
		t.Error("BOOL→FLOAT should fail")
	}
	// Explicit narrowing.
	v, err = r.Convert(ctx(), types.NewFloat(2.9), types.TInt)
	if err != nil || v.Int() != 2 {
		t.Errorf("FLOAT→INT = %v, %v", v, err)
	}
	// String parses.
	v, err = r.Convert(ctx(), types.NewString(" 42 "), types.TInt)
	if err != nil || v.Int() != 42 {
		t.Errorf("VARCHAR→INT = %v, %v", v, err)
	}
	if _, err := r.Convert(ctx(), types.NewString("nope"), types.TInt); err == nil {
		t.Error("bad numeric literal should fail")
	}
}

func TestAggregateRegistry(t *testing.T) {
	r := NewRegistry()
	agg := &Aggregate{
		Name: "concat_all", Param: types.TString, Result: types.TString,
		New: func() AggState { return &concatState{} },
	}
	r.MustRegisterAggregate(agg)
	if !r.HasAggregate("CONCAT_ALL") {
		t.Error("case-insensitive aggregate lookup failed")
	}
	got, _, err := r.ResolveAggregate("concat_all", types.TString)
	if err != nil || got != agg {
		t.Errorf("resolve = %v, %v", got, err)
	}
	// Unknown and mismatched.
	if _, _, err := r.ResolveAggregate("nosuch", types.TString); err == nil {
		t.Error("unknown aggregate should fail")
	}
	if _, _, err := r.ResolveAggregate("concat_all", types.TBool); err == nil {
		t.Error("unsatisfiable aggregate input should fail")
	}
	// Duplicate registration fails.
	if err := r.RegisterAggregate(agg); err == nil {
		t.Error("duplicate aggregate should fail")
	}
}

type concatState struct{ s string }

func (c *concatState) Step(_ *Ctx, v types.Value) error {
	c.s += v.Str()
	return nil
}
func (c *concatState) Final(*Ctx) (types.Value, error) { return types.NewString(c.s), nil }

func TestRoutineErrorsAreWrapped(t *testing.T) {
	r := NewRegistry()
	r.MustRegisterRoutine(&Routine{
		Name: "boom", Params: []*types.Type{types.TInt}, Result: types.TInt, Strict: true,
		Fn: func(*Ctx, []types.Value) (types.Value, error) {
			return types.Value{}, fmt.Errorf("kaboom")
		}})
	_, err := invoke(r, "boom", []types.Value{types.NewInt(1)})
	if err == nil || !strings.Contains(err.Error(), "boom: kaboom") {
		t.Errorf("wrapped error = %v", err)
	}
}

func TestTypeNamesAndLookup(t *testing.T) {
	r := NewRegistry()
	if _, ok := r.LookupType("integer"); !ok {
		t.Error("alias lookup failed")
	}
	if _, ok := r.LookupType("char"); !ok {
		t.Error("CHAR alias failed")
	}
	if _, ok := r.LookupType("nosuch"); ok {
		t.Error("unknown type should not resolve")
	}
	names := r.TypeNames()
	if len(names) == 0 {
		t.Error("no type names")
	}
	for i := 1; i < len(names); i++ {
		if names[i] < names[i-1] {
			t.Error("names not sorted")
		}
	}
}

func TestResolveExact(t *testing.T) {
	r := NewRegistry()
	if _, ok := r.ResolveExact("+", []*types.Type{types.TInt, types.TInt}); !ok {
		t.Error("exact INT+INT should resolve")
	}
	if _, ok := r.ResolveExact("+", []*types.Type{types.TInt, types.TFloat}); ok {
		t.Error("mixed args are not an exact match")
	}
	if _, ok := r.ResolveExact("nosuch", nil); ok {
		t.Error("unknown routine is not exact")
	}
}

func TestDuplicateOverloadRejected(t *testing.T) {
	r := NewRegistry()
	fn := func(*Ctx, []types.Value) (types.Value, error) { return types.Value{}, nil }
	err := r.RegisterRoutine(&Routine{
		Name: "+", Params: []*types.Type{types.TInt, types.TInt}, Result: types.TInt, Fn: fn,
	})
	if err == nil || !strings.Contains(err.Error(), "already registered") {
		t.Errorf("duplicate overload error = %v", err)
	}
	err = r.RegisterRoutine(&Routine{Name: "untyped", Params: []*types.Type{types.TInt}, Fn: fn})
	if err == nil || !strings.Contains(err.Error(), "no result type") {
		t.Errorf("untyped routine error = %v", err)
	}
}

func TestCallCastsIntoArgs(t *testing.T) {
	r := NewRegistry()
	res, err := r.Resolve("+", []*types.Type{types.TInt, types.TFloat})
	if err != nil {
		t.Fatal(err)
	}
	c := ctx()
	args := make([]types.Value, 2)
	allocs := testing.AllocsPerRun(100, func() {
		args[0], args[1] = types.NewInt(1), types.NewFloat(1.5)
		if got, err := r.Call(c, res, args, nil); err != nil || got.Float() != 2.5 {
			t.Fatalf("1 + 1.5 = %v, %v", got.Format(), err)
		}
	})
	if args[0].T != types.TFloat {
		t.Errorf("the INT argument was not cast in place: %s", args[0].T)
	}
	if allocs != 0 {
		t.Errorf("Call with an implicit cast allocates %.0f times; want 0", allocs)
	}
}

// TestCallMemoConvertsOnce pins Call's per-position memo: a repeated
// input is converted once, a changed one again, and a nil memo converts
// every time.
func TestCallMemoConvertsOnce(t *testing.T) {
	r := NewRegistry()
	res, err := r.Resolve("+", []*types.Type{types.TInt, types.TFloat})
	if err != nil {
		t.Fatal(err)
	}
	conversions := 0
	inner := res.Casts[0]
	counted := &Resolution{Routine: res.Routine, Casts: []*Cast{{
		From: inner.From, To: inner.To, Implicit: true,
		Fn: func(c *Ctx, v types.Value) (types.Value, error) {
			conversions++
			return inner.Fn(c, v)
		},
	}, nil}}
	call := func(memo []CastMemo, i int64) {
		args := []types.Value{types.NewInt(i), types.NewFloat(0.5)}
		if got, err := r.Call(ctx(), counted, args, memo); err != nil || got.Float() != float64(i)+0.5 {
			t.Fatalf("%d + 0.5 = %v, %v", i, got.Format(), err)
		}
	}
	memo := make([]CastMemo, 2)
	for _, i := range []int64{1, 1, 1, 2, 2, 1} {
		call(memo, i)
	}
	if conversions != 3 {
		t.Errorf("memoised calls converted %d times; want 3", conversions)
	}
	conversions = 0
	call(nil, 1)
	call(nil, 1)
	if conversions != 2 {
		t.Errorf("calls without a memo converted %d times; want 2", conversions)
	}
}

// TestSameInput pins the cast memo's input test: equal only when type,
// NULL flag and payload are provably the same, false (never a panic)
// for payloads == cannot compare.
func TestSameInput(t *testing.T) {
	periodT := &types.Type{Name: "Period", Kind: types.KindUDT}
	elementT := &types.Type{Name: "Element", Kind: types.KindUDT}
	p := temporal.Period{Start: temporal.AbsInstant(10), End: temporal.Now}
	e := p.Element()
	cases := []struct {
		name string
		a, b types.Value
		want bool
	}{
		{"same int", types.NewInt(3), types.NewInt(3), true},
		{"other int", types.NewInt(3), types.NewInt(4), false},
		{"int vs float", types.NewInt(3), types.NewFloat(3), false},
		{"zero vs negative zero", types.NewFloat(0), types.NewFloat(math.Copysign(0, -1)), false},
		{"NaN", types.NewFloat(math.NaN()), types.NewFloat(math.NaN()), true},
		{"same string", types.NewString("[1999-01-01, NOW]"), types.NewString("[1999-01-01, NOW]"), true},
		{"other string", types.NewString("a"), types.NewString("b"), false},
		{"typed vs untyped NULL", types.NewNull(types.TString), types.NewNull(types.TNull), false},
		{"same period", types.NewUDT(periodT, p), types.NewUDT(periodT, p), true},
		{"other period", types.NewUDT(periodT, p), types.NewUDT(periodT, temporal.MustPeriod(10, 20)), false},
		{"period vs element payload", types.NewUDT(periodT, p), types.NewUDT(periodT, e), false},
		{"same element", types.NewUDT(elementT, e), types.NewUDT(elementT, e), false},
	}
	for _, c := range cases {
		if got := sameInput(c.a, c.b); got != c.want {
			t.Errorf("%s: sameInput = %v, want %v", c.name, got, c.want)
		}
	}
}
