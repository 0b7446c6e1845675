package exec

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"tip/internal/blade"
	"tip/internal/core"
	"tip/internal/sql/ast"
	"tip/internal/temporal"
	"tip/internal/types"
)

// dispatchSample is one SQL type with boundary and NOW-relative values,
// ending with its typed NULL.
type dispatchSample struct {
	typ  *types.Type
	vals []types.Value
}

func dispatchSamples(t *testing.T, reg *blade.Registry) []dispatchSample {
	t.Helper()
	udt := func(name string, lits ...string) dispatchSample {
		typ, ok := reg.LookupType(name)
		if !ok {
			t.Fatalf("no type %s", name)
		}
		s := dispatchSample{typ: typ}
		for _, lit := range lits {
			v, err := reg.Convert(&blade.Ctx{}, types.NewString(lit), typ)
			if err != nil {
				t.Fatalf("%s literal %q: %v", name, lit, err)
			}
			s.vals = append(s.vals, v)
		}
		s.vals = append(s.vals, types.NewNull(typ))
		return s
	}
	ints := []types.Value{types.NewInt(0), types.NewInt(7), types.NewInt(-1),
		types.NewInt(math.MaxInt64), types.NewInt(math.MinInt64), types.NewNull(types.TInt)}
	floats := []types.Value{types.NewFloat(0), types.NewFloat(-2.5), types.NewFloat(7),
		types.NewFloat(1e300), types.NewNull(types.TFloat)}
	var strs []types.Value
	for _, s := range []string{"", "abc", "1999-11-12", "3 00:00:00", "NOW-1",
		"[1999-01-01, NOW]", "{[1999-10-01, NOW]}"} {
		strs = append(strs, types.NewString(s))
	}
	strs = append(strs, types.NewNull(types.TString))
	dates := []types.Value{types.NewDate(0), types.NewDate(types.ChrononToDate(temporal.MustDate(1999, 11, 12))),
		types.NewNull(types.TDate)}
	return []dispatchSample{
		{types.TInt, ints},
		{types.TFloat, floats},
		{types.TString, strs},
		{types.TBool, []types.Value{types.NewBool(true), types.NewBool(false), types.NewNull(types.TBool)}},
		{types.TDate, dates},
		udt("Chronon", "0001-01-01", "1999-11-12", "9999-12-31 23:59:59"),
		udt("Span", "0", "-1 00:00:00", "3 00:00:00", "3650000"),
		udt("Instant", "NOW", "NOW-1", "NOW+0 08:00:00", "1999-11-12"),
		udt("Period", "[1999-01-01, NOW]", "[2000-01-01, NOW]", "[NOW, NOW]", "[0001-01-01, 9999-12-31]"),
		udt("Element", "{}", "{[1999-10-01, NOW]}", "{[1999-01-01, 1999-02-01], [1999-03-01, 1999-04-01]}"),
		{types.TNull, []types.Value{types.NewNull(types.TNull)}},
	}
}

// tuples returns the cross product of the value lists.
func tuples(lists ...[]types.Value) [][]types.Value {
	out := [][]types.Value{nil}
	for _, l := range lists {
		var next [][]types.Value
		for _, prefix := range out {
			for _, v := range l {
				next = append(next, append(append([]types.Value(nil), prefix...), v))
			}
		}
		out = next
	}
	return out
}

// refExpr evaluates one expression shape the way the executor did per
// row before binding chose the dispatch: through compareValues,
// equalValues and Invoke.
type refExpr func(rt *runtime, v []types.Value) (types.Value, error)

func refBinary(op string) refExpr {
	return func(rt *runtime, v []types.Value) (types.Value, error) {
		switch op {
		case "=", "<>", "<", "<=", ">", ">=":
			return rt.compareValues(op, v[0], v[1])
		}
		if v[0].Null || v[1].Null {
			return types.NewNull(types.TNull), nil
		}
		return refRegistry{rt.env.Reg}.Invoke(rt.env.Ctx(), op, []types.Value{v[0], v[1]})
	}
}

func refNeg(rt *runtime, v []types.Value) (types.Value, error) {
	x := v[0]
	if x.Null {
		return types.NewNull(x.T), nil
	}
	switch x.T.Kind {
	case types.KindInt:
		return types.NewInt(-x.Int()), nil
	case types.KindFloat:
		return types.NewFloat(-x.Float()), nil
	default:
		return refRegistry{rt.env.Reg}.Invoke(rt.env.Ctx(), "neg", []types.Value{x})
	}
}

func refBetween(rt *runtime, v []types.Value) (types.Value, error) {
	ge, err := rt.compareValues(">=", v[0], v[1])
	if err != nil {
		return types.Value{}, err
	}
	le, err := rt.compareValues("<=", v[0], v[2])
	if err != nil {
		return types.Value{}, err
	}
	geT, geN, _ := truth(ge)
	leT, leN, _ := truth(le)
	switch {
	case (!geN && !geT) || (!leN && !leT):
		return falseValue, nil
	case geN || leN:
		return nullBool, nil
	default:
		return trueValue, nil
	}
}

func refIn(rt *runtime, v []types.Value) (types.Value, error) {
	if v[0].Null {
		return nullBool, nil
	}
	anyNull := false
	for _, item := range v[1:] {
		eq, isNull, err := rt.equalValues(v[0], item)
		if err != nil {
			return types.Value{}, err
		}
		if eq {
			return trueValue, nil
		}
		anyNull = anyNull || isNull
	}
	if anyNull {
		return nullBool, nil
	}
	return falseValue, nil
}

// TestBoundDispatchMatchesReference checks the binder against the
// per-row dispatch it replaced, over every operator and pair of types
// (INT, FLOAT, VARCHAR, BOOLEAN, DATE, the five TIP types and NULL) with
// boundary and NOW-relative values, bound as parameters. A type class
// the reference rejects on every non-NULL input must fail at bind time
// (a typed NULL used to slip through as UNKNOWN; that goes). Elsewhere
// the bound expression binds, errors where the reference errors, and
// otherwise gives the same value with the same type, which is also its
// static type. NULL results compare by NULL-ness only: a bound NULL may
// carry its static type where the reference's was untyped.
func TestBoundDispatchMatchesReference(t *testing.T) {
	reg := blade.NewRegistry()
	core.MustRegister(reg)
	env := &Env{Reg: reg, Now: temporal.MustDate(1999, 11, 12)}
	samples := dispatchSamples(t, reg)
	a, b, c := &ast.Param{Name: "a"}, &ast.Param{Name: "b"}, &ast.Param{Name: "c"}

	evaluated, classes, typeErrors := 0, 0, 0
	check := func(label string, e ast.Expr, ref refExpr, inputs [][]types.Value) {
		t.Helper()
		classes++
		rt := &runtime{env: env}
		want := make([]types.Value, len(inputs))
		wantErr := make([]error, len(inputs))
		typeError, anyNonNull := true, false
		for i, in := range inputs {
			want[i], wantErr[i] = ref(rt, in)
			if !slicesAnyNull(in) {
				anyNonNull = true
				typeError = typeError && wantErr[i] != nil
			}
		}
		typeError = typeError && anyNonNull
		if typeError {
			typeErrors++
		}
		for i, in := range inputs {
			env.Params = map[string]types.Value{}
			for j, name := range []string{"a", "b", "c"}[:len(in)] {
				env.Params[name] = in[j]
			}
			ce, typ, bindErr := (&binder{env: env}).bind(e, nil)
			where := fmt.Sprintf("%s with %s", label, formatValues(in))
			switch {
			case typeError && bindErr == nil:
				t.Errorf("%s: binds, but the reference rejects every non-NULL input of these types", where)
				return
			case typeError:
				continue
			case bindErr != nil:
				t.Errorf("%s: bind error %v, but the reference evaluates inputs of these types", where, bindErr)
				return
			}
			got, err := ce(&runtime{env: env})
			switch {
			case wantErr[i] != nil:
				if err == nil {
					t.Errorf("%s = %s, but the reference errors: %v", where, got.Format(), wantErr[i])
				}
				continue
			case err != nil:
				t.Errorf("%s: %v, but the reference gives %s", where, err, want[i].Format())
				continue
			}
			evaluated++
			switch {
			case got.Null != want[i].Null:
				t.Errorf("%s = %s, want %s", where, got.Format(), want[i].Format())
			case got.Null:
			case got.T != want[i].T || got.Format() != want[i].Format():
				t.Errorf("%s = %s %s, want %s %s", where, got.T, got.Format(), want[i].T, want[i].Format())
			case typ != got.T:
				t.Errorf("%s: bound with static type %s, but yields %s", where, typ, got.T)
			}
		}
	}

	for _, op := range []string{"=", "<>", "<", "<=", ">", ">=", "+", "-", "*", "/", "%", "||"} {
		e := &ast.Binary{Op: op, L: a, R: b}
		for _, x := range samples {
			for _, y := range samples {
				check(fmt.Sprintf("%s %s %s", x.typ, op, y.typ), e, refBinary(op), tuples(x.vals, y.vals))
			}
		}
	}
	for _, x := range samples {
		check("-"+x.typ.Name, &ast.Unary{Op: "-", X: a}, refNeg, tuples(x.vals))
		for _, y := range samples {
			check(fmt.Sprintf("%s BETWEEN %s AND %s", x.typ, y.typ, y.typ),
				&ast.Between{X: a, Lo: b, Hi: c}, refBetween, tuples(x.vals, y.vals, y.vals))
			check(fmt.Sprintf("%s IN (%s, %s)", x.typ, y.typ, y.typ),
				&ast.InList{X: a, List: []ast.Expr{b, c}}, refIn, tuples(x.vals, y.vals, y.vals))
		}
	}
	t.Logf("%d type classes, %d rejected at bind time; %d inputs evaluated identically", classes, typeErrors, evaluated)
}

func slicesAnyNull(vs []types.Value) bool {
	for _, v := range vs {
		if v.Null {
			return true
		}
	}
	return false
}

func formatValues(vs []types.Value) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = fmt.Sprintf("%s %s", v.T, v.Format())
	}
	return "(" + strings.Join(parts, ", ") + ")"
}
