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

// kernelKind is one column type the comparison kernel covers: sample
// values ending with its typed NULL, and the literal of a value where
// SQL has one.
type kernelKind struct {
	typ  *types.Type
	vals []types.Value
	lit  func(types.Value) ast.Expr
}

func kernelKinds() []kernelKind {
	ints := []types.Value{types.NewInt(0), types.NewInt(7), types.NewInt(-1),
		types.NewInt(math.MaxInt64), types.NewInt(math.MinInt64)}
	var floats []types.Value
	for _, f := range []float64{0, math.Copysign(0, -1), -2.5, 7, 1e300, math.Inf(1), math.Inf(-1), math.NaN()} {
		floats = append(floats, types.NewFloat(f))
	}
	var strs []types.Value
	for _, s := range []string{"", "ab", "abc", "abd", "b"} {
		strs = append(strs, types.NewString(s))
	}
	dates := []types.Value{types.NewDate(-1), types.NewDate(0),
		types.NewDate(types.ChrononToDate(temporal.MustDate(1999, 11, 12)))}
	kinds := []kernelKind{
		{types.TInt, ints, func(v types.Value) ast.Expr { return &ast.IntLit{V: v.I} }},
		{types.TFloat, floats, func(v types.Value) ast.Expr { return &ast.FloatLit{V: v.F} }},
		{types.TBool, []types.Value{types.NewBool(false), types.NewBool(true)},
			func(v types.Value) ast.Expr { return &ast.BoolLit{V: v.Bool()} }},
		{types.TString, strs, func(v types.Value) ast.Expr { return &ast.StringLit{V: v.S} }},
		{types.TDate, dates, nil}, // a DATE has no literal of its own type
	}
	for i := range kinds {
		kinds[i].vals = append(kinds[i].vals, types.NewNull(kinds[i].typ))
	}
	return kinds
}

// TestKernelMatchesGenericLadder checks the comparison kernel against
// the generic ladder it short-cuts, for every covered type: each
// operator with the constant on either side, BETWEEN and NOT BETWEEN,
// over every pair or triple of sample values (a NULL column, NULL
// parameters, a FLOAT NaN, infinities and -0 among them), the constants
// bound as parameters and, where the type has one, as literals. The
// reference is the same expression with the column read through
// CAST(c AS its own type), which binds to the bare column but is no
// kernel shape, so it takes the bindCompare step. The kernel's value
// (TRUE, FALSE or UNKNOWN) must equal the reference's, and its filter
// form must accept exactly the rows where the reference is TRUE.
func TestKernelMatchesGenericLadder(t *testing.T) {
	reg := blade.NewRegistry()
	core.MustRegister(reg)
	env := &Env{Reg: reg, Now: temporal.MustDate(1999, 11, 12)}
	checked := 0
	for _, k := range kernelKinds() {
		col := &ast.ColumnRef{Column: "c"}
		generic := &ast.Cast{X: col, TypeName: k.typ.Name}
		sc := &bindScope{schema: Schema{{Table: "t", Name: "c", Type: k.typ}}}
		// check binds the kernel shape e and its reference ref under
		// params and compares them on every sample column value.
		check := func(e, ref ast.Expr, params map[string]types.Value) {
			t.Helper()
			env.Params = params
			b := &binder{env: env}
			if b.kernel(e, sc) == nil {
				t.Fatalf("%s over %s with %s: not bound as a kernel", exprString(e), k.typ, formatParams(params))
			}
			if b.kernel(ref, sc) != nil {
				t.Fatalf("%s: the reference binds as a kernel", exprString(ref))
			}
			ce, _, err := b.bind(e, sc)
			if err != nil {
				t.Fatal(err)
			}
			fs, err := b.bindFilters([]ast.Expr{e}, sc)
			if err != nil {
				t.Fatal(err)
			}
			want, _, err := b.bind(ref, sc)
			if err != nil {
				t.Fatal(err)
			}
			for _, x := range k.vals {
				row := Row{x}
				rt := &runtime{env: env}
				rt.push(row)
				got, err := ce(rt)
				if err != nil {
					t.Fatal(err)
				}
				w, err := want(rt)
				if err != nil {
					t.Fatal(err)
				}
				pass, err := fs[0](&runtime{env: env}, row)
				if err != nil {
					t.Fatal(err)
				}
				where := fmt.Sprintf("%s over %s c = %s with %s", exprString(e), k.typ, x.Format(), formatParams(params))
				if got.Null != w.Null || !got.Null && got.Bool() != w.Bool() {
					t.Errorf("%s = %s, the generic ladder gives %s", where, got.Format(), w.Format())
				}
				if wantPass := !w.Null && w.Bool(); pass != wantPass {
					t.Errorf("%s: filter passes = %v, the generic ladder gives %s", where, pass, w.Format())
				}
				checked++
			}
		}
		kp, lo, hi := &ast.Param{Name: "k"}, &ast.Param{Name: "lo"}, &ast.Param{Name: "hi"}
		for _, op := range []string{"=", "<>", "<", "<=", ">", ">="} {
			for _, v := range k.vals {
				params := map[string]types.Value{"k": v}
				check(&ast.Binary{Op: op, L: col, R: kp}, &ast.Binary{Op: op, L: generic, R: kp}, params)
				check(&ast.Binary{Op: op, L: kp, R: col}, &ast.Binary{Op: op, L: kp, R: generic}, params)
				if k.lit != nil && !v.Null {
					l := k.lit(v)
					check(&ast.Binary{Op: op, L: col, R: l}, &ast.Binary{Op: op, L: generic, R: l}, nil)
					check(&ast.Binary{Op: op, L: l, R: col}, &ast.Binary{Op: op, L: l, R: generic}, nil)
				}
			}
		}
		for _, not := range []bool{false, true} {
			for _, l := range k.vals {
				for _, h := range k.vals {
					params := map[string]types.Value{"lo": l, "hi": h}
					check(&ast.Between{X: col, Lo: lo, Hi: hi, Not: not}, &ast.Between{X: generic, Lo: lo, Hi: hi, Not: not}, params)
				}
			}
		}
	}
	t.Logf("%d kernel evaluations matched the generic ladder", checked)
}

// TestKernelShapesOutsideTheRule: the shape just outside each rule of
// the kernel binds the generic ladder, and still answers.
func TestKernelShapesOutsideTheRule(t *testing.T) {
	reg := blade.NewRegistry()
	core.MustRegister(reg)
	// A blade overload on a built-in pair outranks the type's own order:
	// VARCHAR = VARCHAR compared case-insensitively.
	reg.MustRegisterRoutine(&blade.Routine{
		Name: "=", Params: []*types.Type{types.TString, types.TString}, Result: types.TBool, Strict: true,
		Fn: func(_ *blade.Ctx, args []types.Value) (types.Value, error) {
			return types.NewBool(strings.EqualFold(args[0].S, args[1].S)), nil
		},
	})
	chronon, ok := reg.LookupType("Chronon")
	if !ok {
		t.Fatal("no Chronon type")
	}
	day := func(y, m, d int) types.Value { return types.NewUDT(chronon, temporal.MustDate(y, m, d)) }
	env := &Env{Reg: reg, Now: temporal.MustDate(1999, 11, 12), Params: map[string]types.Value{
		"f": types.NewFloat(2.5), "ch": day(1999, 6, 1),
	}}
	c, d := &ast.ColumnRef{Column: "c"}, &ast.ColumnRef{Column: "d"}
	scope := func(typ *types.Type) *bindScope {
		return &bindScope{schema: Schema{{Table: "t", Name: "c", Type: typ}, {Table: "t", Name: "d", Type: typ}}}
	}
	ints := scope(types.TInt)
	// c belongs to the outer query; the inner row has only e.
	inner := &bindScope{parent: ints, schema: Schema{{Table: "u", Name: "e", Type: types.TInt}}}
	for _, tc := range []struct {
		name     string
		e        ast.Expr
		sc       *bindScope
		outer    Row // pushed below the row when the column is correlated
		row      Row
		wantPass bool
	}{
		{"INT column against a FLOAT literal", &ast.Binary{Op: "<", L: c, R: &ast.FloatLit{V: 2.5}}, ints, nil,
			Row{types.NewInt(2), types.NewInt(0)}, true},
		{"INT column BETWEEN FLOAT parameters", &ast.Between{X: c, Lo: &ast.Param{Name: "f"}, Hi: &ast.IntLit{V: 3}}, ints, nil,
			Row{types.NewInt(3), types.NewInt(0)}, true},
		{"UDT column", &ast.Binary{Op: "<", L: c, R: &ast.Param{Name: "ch"}}, scope(chronon), nil,
			Row{day(1999, 1, 1), day(1999, 1, 1)}, true},
		{"correlated outer column", &ast.Binary{Op: "<", L: c, R: &ast.IntLit{V: 5}}, inner,
			Row{types.NewInt(4), types.NewInt(9)}, Row{types.NewInt(9)}, true},
		{"two columns", &ast.Binary{Op: "<", L: c, R: d}, ints, nil, Row{types.NewInt(1), types.NewInt(2)}, true},
		{"NULL literal", &ast.Binary{Op: "=", L: c, R: &ast.NullLit{}}, ints, nil, Row{types.NewInt(1), types.NewInt(2)}, false},
		{"blade overload", &ast.Binary{Op: "=", L: c, R: &ast.StringLit{V: "ABC"}}, scope(types.TString), nil,
			Row{types.NewString("abc"), types.NewString("")}, true},
	} {
		b := &binder{env: env}
		if b.kernel(tc.e, tc.sc) != nil {
			t.Errorf("%s: %s binds as a kernel", tc.name, exprString(tc.e))
			continue
		}
		fs, err := b.bindFilters([]ast.Expr{tc.e}, tc.sc)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		rt := &runtime{env: env}
		if tc.outer != nil {
			rt.push(tc.outer)
		}
		if pass, err := fs[0](rt, tc.row); err != nil || pass != tc.wantPass {
			t.Errorf("%s: %s passes = %v, %v; want %v", tc.name, exprString(tc.e), pass, err, tc.wantPass)
		}
	}
}

func formatParams(params map[string]types.Value) string {
	var parts []string
	for _, name := range []string{"k", "lo", "hi"} {
		if v, ok := params[name]; ok {
			parts = append(parts, fmt.Sprintf(":%s = %s", name, v.Format()))
		}
	}
	if len(parts) == 0 {
		return "literals"
	}
	return strings.Join(parts, ", ")
}
