package exec_test

// A chronon-set reference for group_union and length: the test-only
// model the coalesce operator is checked against. It shares nothing with
// the temporal package's binding, normalisation or merging. A period is
// a pair of endpoint specs (an absolute offset, or NOW plus an offset,
// in seconds from refBase), bound here by plain addition, and a group's
// union is the set of chronons its bound periods cover, one bool per
// second of a small universe. length(group_union(...)) is then the sum
// over maximal runs of (last - first): the number of chronons in the
// set minus the number of runs.
//
// The rows cover the edge cases Mkaouar et al. list for NOW-relative
// data: [start, NOW] periods, [NOW-k, NOW] periods, periods whose start
// lies after NOW (they bind empty and vanish), adjacency beside overlap,
// empty elements, NULL elements and all-NULL groups.

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"tip/internal/engine"
	"tip/internal/temporal"
	"tip/internal/types"
)

var refBase = temporal.MustDate(1998, 1, 1)

// refUniverse bounds every bound endpoint: offsets stay in [0, refUniverse).
const refUniverse = 2600

// refEnd is one endpoint: off seconds from refBase, or from NOW when now
// is set.
type refEnd struct {
	now bool
	off int64
}

func (e refEnd) bind(now int64) int64 {
	if e.now {
		return now + e.off
	}
	return e.off
}

func (e refEnd) literal() string {
	if !e.now {
		return (refBase + temporal.Chronon(e.off)).String()
	}
	if e.off == 0 {
		return "NOW"
	}
	k := -e.off // the generator only looks back from NOW
	return fmt.Sprintf("NOW-0 %02d:%02d:%02d", k/3600, k/60%60, k%60)
}

type refPeriod struct{ lo, hi refEnd }

// refRow is one row of table c (k INT, s VARCHAR, v INT, valid Element);
// nil pointers and a nil valid are NULL.
type refRow struct {
	k     *int64
	s     *string
	v     int64
	valid []refPeriod
	null  bool // valid is NULL
}

func (r refRow) literal() string {
	ps := make([]string, len(r.valid))
	for i, p := range r.valid {
		ps[i] = "[" + p.lo.literal() + ", " + p.hi.literal() + "]"
	}
	return "{" + strings.Join(ps, ", ") + "}"
}

// genRefRows generates n rows, then appends three fixed groups: k = 7
// whose elements are all NULL, k = 8 whose element is empty, and k = 9
// whose period starts after both NOWs the test asks at.
func genRefRows(r *rand.Rand, n int) []refRow {
	ptr := func(v int64) *int64 { return &v }
	str := func(s string) *string { return &s }
	var rows []refRow
	for i := 0; i < n; i++ {
		row := refRow{v: int64(r.Intn(3))}
		if r.Intn(8) != 0 {
			row.k = ptr(int64(r.Intn(6)))
		}
		switch r.Intn(8) {
		case 0:
		case 1:
			// The text the old grouping key gave NULL.
			row.s = str("\x00N")
		default:
			row.s = str(fmt.Sprintf("s%d", r.Intn(4)))
		}
		if r.Intn(8) == 0 {
			row.null = true
			rows = append(rows, row)
			continue
		}
		prevHi := int64(r.Intn(1800))
		for range r.Intn(4) {
			var p refPeriod
			switch r.Intn(5) {
			case 0: // [start, NOW]; a start past NOW binds empty
				p = refPeriod{refEnd{off: int64(r.Intn(2200))}, refEnd{now: true}}
			case 1: // [NOW-k, NOW]
				p = refPeriod{refEnd{now: true, off: -int64(r.Intn(400))}, refEnd{now: true}}
			case 2: // [NOW-k, NOW-j]
				j := int64(r.Intn(100))
				p = refPeriod{refEnd{now: true, off: -j - int64(r.Intn(300))}, refEnd{now: true, off: -j}}
			default: // closed, often adjacent to the previous period
				lo := prevHi + 1
				if r.Intn(2) == 0 {
					lo = int64(r.Intn(2200))
				}
				p = refPeriod{refEnd{off: lo}, refEnd{off: lo + int64(r.Intn(150))}}
				prevHi = p.hi.off
			}
			row.valid = append(row.valid, p)
		}
		rows = append(rows, row)
	}
	return append(rows,
		refRow{k: ptr(7), s: str("s7"), null: true},
		refRow{k: ptr(7), s: str("s7"), null: true},
		refRow{k: ptr(8), s: str("s8")},
		refRow{k: ptr(9), s: str("s9"), valid: []refPeriod{{refEnd{off: 2500}, refEnd{now: true}}}},
	)
}

// refGroup is the model's state of one group at one NOW.
type refGroup struct {
	set        []bool
	saw        bool  // some non-NULL element
	rows, vals int64 // COUNT(*), COUNT(valid)
}

func (g *refGroup) add(r refRow, now int64) {
	g.rows++
	if r.null {
		return
	}
	g.saw, g.vals = true, g.vals+1
	if g.set == nil {
		g.set = make([]bool, refUniverse)
	}
	for _, p := range r.valid {
		for c := p.lo.bind(now); c <= p.hi.bind(now); c++ {
			g.set[c] = true
		}
	}
}

// runs returns the set's maximal runs as [first, last] offsets.
func (g *refGroup) runs() [][2]int64 {
	var out [][2]int64
	for c := int64(0); c < int64(len(g.set)); c++ {
		if !g.set[c] {
			continue
		}
		lo := c
		for c+1 < int64(len(g.set)) && g.set[c+1] {
			c++
		}
		out = append(out, [2]int64{lo, c})
	}
	return out
}

// length is length(group_union(valid)) as formatted by the engine.
func (g *refGroup) length() string {
	if !g.saw {
		return "NULL"
	}
	var total int64
	for _, r := range g.runs() {
		total += r[1] - r[0]
	}
	return temporal.Span(total).String()
}

// element is group_union(valid) as formatted by the engine.
func (g *refGroup) element() string {
	if !g.saw {
		return "NULL"
	}
	var ps []string
	for _, r := range g.runs() {
		ps = append(ps, "["+(refBase+temporal.Chronon(r[0])).String()+", "+(refBase+temporal.Chronon(r[1])).String()+"]")
	}
	return "{" + strings.Join(ps, ", ") + "}"
}

// refKey renders the model's key of a row the way grid renders it.
func refKey(r refRow, byK, byS bool) string {
	var parts []string
	if byK {
		if r.k == nil {
			parts = append(parts, "NULL")
		} else {
			parts = append(parts, fmt.Sprint(*r.k))
		}
	}
	if byS {
		if r.s == nil {
			parts = append(parts, "NULL")
		} else {
			parts = append(parts, *r.s)
		}
	}
	return strings.Join(parts, "|")
}

// seedRef creates and loads table c with the rows, through parameters
// so that a key may hold any text, and a small join partner d.
func seedRef(t *testing.T, s *engine.Session, rows []refRow) {
	t.Helper()
	mustExec(t, s, `CREATE TABLE c (k INT, s VARCHAR, v INT, valid Element)`)
	for _, r := range rows {
		p := map[string]types.Value{
			"k": types.NewNull(types.TInt), "s": types.NewNull(types.TString),
			"v": types.NewInt(r.v), "e": types.NewNull(types.TNull),
		}
		if r.k != nil {
			p["k"] = types.NewInt(*r.k)
		}
		if r.s != nil {
			p["s"] = types.NewString(*r.s)
		}
		if !r.null {
			p["e"] = types.NewString(r.literal())
		}
		mustExecParams(t, s, `INSERT INTO c VALUES (:k, :s, :v, :e)`, p)
	}
	mustExec(t, s, `CREATE TABLE d (v INT)`)
	mustExec(t, s, `INSERT INTO d VALUES (0), (1), (1), (5)`)
}

// coalesceReference asks the fused path, the Element path, the fused
// path beside a MAX and the join input for lengths and elements per
// group at each NOW, and compares every cell with the chronon-set model.
func coalesceReference(t *testing.T, s *engine.Session, rows []refRow) {
	t.Helper()
	dMatches := map[int64]int64{0: 1, 1: 2}
	for _, now := range []int64{1000, 1900} {
		mustExec(t, s, fmt.Sprintf(`SET NOW = '%s'`, refBase+temporal.Chronon(now)))
		model := func(byK, byS, join bool) map[string]*refGroup {
			out := map[string]*refGroup{}
			for _, r := range rows {
				times := int64(1)
				if join {
					times = dMatches[r.v]
				}
				for range times {
					key := refKey(r, byK, byS)
					if out[key] == nil {
						out[key] = &refGroup{}
					}
					out[key].add(r, now)
				}
			}
			return out
		}
		for _, c := range []struct {
			q, plan        string // "fused" or "hash"
			byK, byS, join bool
			cell           func(g *refGroup) []string
		}{
			{`SELECT k, length(group_union(valid)), COUNT(*), COUNT(valid) FROM c GROUP BY k`,
				"fused", true, false, false,
				func(g *refGroup) []string { return []string{g.length(), fmt.Sprint(g.rows), fmt.Sprint(g.vals)} }},
			{`SELECT k, length(group_union(valid)::Element) FROM c GROUP BY k`,
				"hash", true, false, false, func(g *refGroup) []string { return []string{g.length()} }},
			{`SELECT k, length(group_union(valid)), MAX(v) >= 0 FROM c GROUP BY k`,
				"fused", true, false, false, func(g *refGroup) []string { return []string{g.length(), "TRUE"} }},
			{`SELECT k, group_union(valid) FROM c GROUP BY k`,
				"hash", true, false, false, func(g *refGroup) []string { return []string{g.element()} }},
			{`SELECT s, length(group_union(valid)) FROM c GROUP BY s`,
				"fused", false, true, false, func(g *refGroup) []string { return []string{g.length()} }},
			{`SELECT k, s, length(group_union(valid)), group_union(valid) FROM c GROUP BY k, s`,
				"fused", true, true, false,
				func(g *refGroup) []string { return []string{g.length(), g.element()} }},
			{`SELECT c.k, length(group_union(c.valid)), COUNT(*) FROM c, d WHERE c.v = d.v GROUP BY c.k`,
				"fused", true, false, true,
				func(g *refGroup) []string { return []string{g.length(), fmt.Sprint(g.rows)} }},
		} {
			plan := explained(t, s, c.q)
			ran := map[bool]string{true: "hash"}[strings.Contains(plan, "coalesce: hash")]
			if strings.Contains(plan, "length fused") {
				ran = "fused"
			}
			if ran != c.plan {
				t.Fatalf("%s: want the %q path, EXPLAIN says:\n%s", c.q, c.plan, plan)
			}
			want := model(c.byK, c.byS, c.join)
			got := grid(mustExec(t, s, c.q))
			if len(got) != len(want) {
				t.Fatalf("NOW+%d: %s: %d groups, the model has %d", now, c.q, len(got), len(want))
			}
			nKeys := 0
			for _, b := range []bool{c.byK, c.byS} {
				if b {
					nKeys++
				}
			}
			for _, row := range got {
				key := strings.Join(row[:nKeys], "|")
				g := want[key]
				if g == nil {
					t.Fatalf("NOW+%d: %s: group %q is not in the model", now, c.q, key)
				}
				if cells := c.cell(g); fmt.Sprint(row[nKeys:]) != fmt.Sprint(cells) {
					t.Errorf("NOW+%d: %s: group %q = %q, model %q", now, c.q, key, row[nKeys:], cells)
				}
			}
		}
	}
}

// TestNullKeyIsNotText: NULL and the text the old grouping key gave NULL
// ("\x00N") are different keys for the generic grouping path, the
// coalesce operator's typed and encoded keys, DISTINCT and UNION.
func TestNullKeyIsNotText(t *testing.T) {
	s := newDB(t)
	mustExec(t, s, `CREATE TABLE t (s VARCHAR, n INT, valid Element)`)
	for i, key := range []types.Value{types.NewNull(types.TString), types.NewString("\x00N")} {
		mustExecParams(t, s, `INSERT INTO t VALUES (:s, :n, '{[1999-01-01, 1999-01-02]}')`,
			map[string]types.Value{"s": key, "n": types.NewInt(int64(i + 1))})
	}
	for _, q := range []string{
		`SELECT s, COUNT(*) FROM t GROUP BY s`,
		`SELECT s, group_union(valid) FROM t GROUP BY s`,
		`SELECT s, n, group_union(valid) FROM t GROUP BY s, n`,
		`SELECT DISTINCT s FROM t`,
		`SELECT s FROM t UNION SELECT s FROM t`,
	} {
		if n := len(mustExec(t, s, q).Rows); n != 2 {
			t.Errorf("%s: %d rows, want 2 (NULL and the text \\x00N)", q, n)
		}
	}
}
