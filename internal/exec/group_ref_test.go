package exec_test

// A grouping reference for the coalesce operator, the executor's one
// grouping operator. The reference shares no code with it: it runs the
// ungrouped SELECT of a grouped query's keys and aggregate arguments,
// groups the rows here, in first-encounter order, by their key values
// (NULL apart from every text), and folds each group's arguments —
// COUNT, SUM, AVG, MIN and MAX written out, every other aggregate
// through the registry's New, Step and Final behind the implicit cast
// the registry picks, and length(group_union(x)) through the registry's
// length routine. With no keys it answers one row, over no input too.
//
// TestAggregateDifferential crosses every kind of aggregate with every
// kind of key and key source, over a table read directly and over a
// join, on the loaded rows (NULL keys, NULL arguments) and on an empty
// table, and compares each answer with the reference cell for cell and
// row for row.

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"tip/internal/blade"
	"tip/internal/engine"
	"tip/internal/exec"
	"tip/internal/temporal"
	"tip/internal/types"
)

// refAgg is one aggregate call: name, its argument's SQL ("" for
// COUNT(*)) and DISTINCT. The name "length" stands for
// length(group_union(arg)), which the operator fuses.
type refAgg struct {
	name, arg string
	distinct  bool
}

var countStar = refAgg{name: "count"}

func (a refAgg) sql() string {
	switch {
	case a.arg == "":
		return "COUNT(*)"
	case a.name == "length":
		return "length(group_union(" + a.arg + "))"
	case a.distinct:
		return a.name + "(DISTINCT " + a.arg + ")"
	}
	return a.name + "(" + a.arg + ")"
}

// groupedSQL is SELECT keys..., aggs... FROM from GROUP BY keys..., with
// no GROUP BY when there are no keys.
func groupedSQL(from string, keys []string, aggs []refAgg) string {
	items := slices.Clone(keys)
	for _, a := range aggs {
		items = append(items, a.sql())
	}
	q := "SELECT " + strings.Join(items, ", ") + " FROM " + from
	if len(keys) > 0 {
		q += " GROUP BY " + strings.Join(keys, ", ")
	}
	return q
}

// groupReference answers groupedSQL(from, keys, aggs) as formatted
// cells, in the order the groups' first rows arrive in.
func groupReference(t *testing.T, s *engine.Session, from string, keys []string, aggs []refAgg) [][]string {
	t.Helper()
	cols := slices.Clone(keys)
	for _, a := range aggs {
		if a.arg != "" {
			cols = append(cols, a.arg)
		}
	}
	if len(cols) == 0 {
		cols = []string{"1"}
	}
	res := mustExec(t, s, "SELECT "+strings.Join(cols, ", ")+" FROM "+from)
	type group struct {
		key  []types.Value
		rows []exec.Row
	}
	var order []*group
	byKey := map[string]*group{}
	for _, r := range res.Rows {
		var k strings.Builder
		for _, v := range r[:len(keys)] {
			if v.Null {
				k.WriteString("N|")
			} else {
				fmt.Fprintf(&k, "v%q|", v.Key(testNow))
			}
		}
		g := byKey[k.String()]
		if g == nil {
			g = &group{key: r[:len(keys)]}
			byKey[k.String()] = g
			order = append(order, g)
		}
		g.rows = append(g.rows, r)
	}
	if len(keys) == 0 && len(order) == 0 {
		order = append(order, &group{})
	}
	reg := s.Database().Registry()
	out := make([][]string, len(order))
	for i, g := range order {
		for _, v := range g.key {
			out[i] = append(out[i], v.Format())
		}
		col := len(keys)
		for _, a := range aggs {
			if a.arg == "" {
				out[i] = append(out[i], fmt.Sprint(len(g.rows)))
				continue
			}
			in := make([]types.Value, len(g.rows))
			for j, r := range g.rows {
				in[j] = r[col]
			}
			out[i] = append(out[i], refFold(t, reg, a, res.Types[col], in).Format())
			col++
		}
	}
	return out
}

// refFold folds one group's arguments in of static type typ.
func refFold(t *testing.T, reg *blade.Registry, a refAgg, typ *types.Type, in []types.Value) types.Value {
	t.Helper()
	ctx := &blade.Ctx{Now: testNow}
	var vals []types.Value
	seen := map[string]bool{}
	for _, v := range in {
		if v.Null || a.distinct && seen[v.Key(testNow)] {
			continue
		}
		seen[v.Key(testNow)] = true
		vals = append(vals, v)
	}
	if a.name == "count" {
		return types.NewInt(int64(len(vals)))
	}
	if len(vals) == 0 {
		return types.NewNull(typ)
	}
	numeric := typ.Kind == types.KindInt || typ.Kind == types.KindFloat
	switch {
	case a.name == "sum" && typ.Kind == types.KindInt:
		var sum int64
		for _, v := range vals {
			sum += v.Int()
		}
		return types.NewInt(sum)
	case (a.name == "sum" || a.name == "avg") && numeric:
		var sum float64
		for _, v := range vals {
			sum += v.Float()
		}
		if a.name == "avg" {
			sum /= float64(len(vals))
		}
		return types.NewFloat(sum)
	case a.name == "min" || a.name == "max":
		best := vals[0]
		for _, v := range vals[1:] {
			c, err := v.Compare(best, testNow)
			if err != nil {
				t.Fatal(err)
			}
			if a.name == "min" && c < 0 || a.name == "max" && c > 0 {
				best = v
			}
		}
		return best
	case a.name == "length":
		union := refFold(t, reg, refAgg{name: "group_union", arg: a.arg}, typ, in)
		res, err := reg.Resolve("length", []*types.Type{union.T})
		if err != nil {
			t.Fatal(err)
		}
		v, err := res.Routine.Fn(ctx, []types.Value{union})
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	agg, cast, err := reg.ResolveAggregate(a.name, typ)
	if err != nil {
		t.Fatal(err)
	}
	st := agg.New()
	for _, v := range vals {
		if cast != nil {
			if v, err = cast.Fn(ctx, v); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Step(ctx, v); err != nil {
			t.Fatal(err)
		}
	}
	v, err := st.Final(ctx)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// seedAggTables creates the aggregate differential's tables over the
// same columns: g0 with no index, gh with a hash index on k, gp with it
// and a period index on valid, each loaded with n rows, their empty
// twins e0, eh and ep, and the join partner j. About one value in six
// of every column but v is NULL; elements are often empty or
// NOW-relative.
func seedAggTables(t *testing.T, s *engine.Session, r *rand.Rand, n int) {
	t.Helper()
	base := temporal.MustDate(1999, 1, 1)
	day := int64(86400)
	maybe := func(lit string) string {
		if r.Intn(6) == 0 {
			return "NULL"
		}
		return lit
	}
	rows := make([]string, n)
	for i := range rows {
		lo := base + temporal.Chronon(int64(r.Intn(300))*day)
		var ps []string
		for range r.Intn(3) {
			plo := base + temporal.Chronon(int64(r.Intn(300))*day)
			if r.Intn(4) == 0 {
				ps = append(ps, fmt.Sprintf("[%s, NOW]", plo))
			} else {
				ps = append(ps, fmt.Sprintf("[%s, %s]", plo, plo+temporal.Chronon(int64(r.Intn(20))*day+day-1)))
			}
		}
		rows[i] = fmt.Sprintf("(%s, %s, %d, %s, %s, %s, %s)",
			maybe(fmt.Sprint(r.Intn(7))),
			maybe(fmt.Sprintf("'s%d'", r.Intn(5))),
			r.Intn(5),
			maybe(fmt.Sprintf("%d.5", r.Intn(40)-20)),
			maybe(fmt.Sprintf("'%s'", lo)),
			maybe("'{"+strings.Join(ps, ", ")+"}'"),
			maybe(fmt.Sprintf("'[%s, %s]'", lo, lo+temporal.Chronon(int64(r.Intn(9))*day))))
	}
	for _, tbl := range []string{"g0", "gh", "gp", "e0", "eh", "ep"} {
		mustExec(t, s, `CREATE TABLE `+tbl+` (k INT, s VARCHAR, v INT, f FLOAT, at Chronon, valid Element, during Period)`)
		if tbl[1] != '0' {
			mustExec(t, s, `CREATE INDEX `+tbl+`_k ON `+tbl+` (k)`)
		}
		if tbl[1] == 'p' {
			mustExec(t, s, `CREATE INDEX `+tbl+`_valid ON `+tbl+` (valid) USING PERIOD`)
		}
		if tbl[0] == 'g' {
			mustExec(t, s, `INSERT INTO `+tbl+` VALUES `+strings.Join(rows, ", "))
		}
	}
	mustExec(t, s, `CREATE TABLE j (v INT)`)
	mustExec(t, s, `INSERT INTO j VALUES (0), (1), (1), (3), (NULL)`)
}

// aggCases are the aggregates the differential checks, each alone and
// all together: every COUNT form, SUM and AVG over INT and FLOAT, MIN
// and MAX over INT, VARCHAR and Chronon, group_union, its fused length,
// another blade aggregate, and group_union over a Period, which takes
// the implicit cast to Element.
var aggCases = []refAgg{
	countStar,
	{name: "count", arg: "g.v"},
	{name: "count", arg: "g.f"},
	{name: "count", arg: "g.s", distinct: true},
	{name: "sum", arg: "g.v"},
	{name: "sum", arg: "g.f"},
	{name: "avg", arg: "g.v"},
	{name: "avg", arg: "g.f"},
	{name: "min", arg: "g.v"},
	{name: "max", arg: "g.v"},
	{name: "min", arg: "g.s"},
	{name: "max", arg: "g.s"},
	{name: "min", arg: "g.at"},
	{name: "max", arg: "g.at"},
	{name: "sum", arg: "g.v", distinct: true},
	{name: "group_union", arg: "g.valid"},
	{name: "length", arg: "g.valid"},
	{name: "group_intersect", arg: "g.valid"},
	{name: "group_union", arg: "g.during"},
}

// periodic reports whether the operator reads the intervals of aggs
// from a period index on g.valid: every aggregate is COUNT(*),
// group_union(g.valid) or its length, and one is not COUNT(*).
func periodic(aggs []refAgg) bool {
	unions := 0
	for _, a := range aggs {
		switch {
		case a.arg == "g.valid" && (a.name == "group_union" || a.name == "length"):
			unions++
		case a != countStar:
			return false
		}
	}
	return unions > 0
}

// TestAggregateDifferential checks every aggregate × key × key source ×
// input against the grouping reference. The keys are none, INT,
// VARCHAR, two columns and an expression over the unindexed table, and
// k behind a hash index, alone and beside a period index on valid; the
// inputs are the loaded table and its empty twin, each read directly and
// joined to j. EXPLAIN must name the operator's key source: the hash
// index for k read directly, and beside it the period index when the
// aggregates are COUNT(*), group_union(valid) and its length alone
// (periodAggs, among others).
func TestAggregateDifferential(t *testing.T) {
	s := newDB(t)
	seedAggTables(t, s, rand.New(rand.NewSource(83)), 120)
	periodAggs := []refAgg{countStar, {name: "group_union", arg: "g.valid"}, {name: "length", arg: "g.valid"}}
	for _, key := range []struct {
		table string // the table's suffix after g (loaded) or e (empty)
		keys  []string
	}{
		{"0", nil},
		{"0", []string{"g.k"}},
		{"0", []string{"g.s"}},
		{"0", []string{"g.k", "g.s"}},
		{"0", []string{"g.k * 10 + g.v"}},
		{"h", []string{"g.k"}},
		{"p", []string{"g.k"}},
	} {
		for _, input := range []string{"g", "e"} {
			for _, join := range []bool{false, true} {
				from := input + key.table + " g"
				if join {
					from += ", j WHERE g.v = j.v"
				}
				sets := [][]refAgg{aggCases, periodAggs}
				for _, a := range aggCases {
					sets = append(sets, []refAgg{a})
				}
				for _, aggs := range sets {
					q := groupedSQL(from, key.keys, aggs)
					plan := explained(t, s, q)
					want, notWant := "coalesce: hash", "index on"
					switch {
					case len(key.keys) == 0:
						want, notWant = "aggregate: 0 group expr(s)", "coalesce"
					case join || key.table == "0":
					case key.table == "p" && periodic(aggs):
						want, notWant = "coalesce: hash index on k, period index on valid", "join"
					default:
						want, notWant = "coalesce: hash index on k", "period index"
					}
					if !strings.Contains(plan, want) || strings.Contains(plan, notWant) {
						t.Fatalf("%s: want %q without %q:\n%s", q, want, notWant, plan)
					}
					sameGrid(t, q, grid(mustExec(t, s, q)), groupReference(t, s, from, key.keys, aggs))
				}
			}
		}
	}
}
