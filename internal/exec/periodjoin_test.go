package exec_test

// Period-index nested-loop joins: temporal join conditions
// (overlaps/contains between two tables' columns) can be driven by the
// period index. These tests pin plan selection and, more importantly,
// result equivalence with the plain nested-loop path.

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"tip/internal/blade"
	"tip/internal/engine"
	"tip/internal/temporal"
	"tip/internal/types"
)

func seedTemporalJoin(t *testing.T, s *engine.Session, indexed bool, n int, seed int64) {
	t.Helper()
	mustExec(t, s, `CREATE TABLE rx (id INT, valid Element)`)
	mustExec(t, s, `CREATE TABLE visit (id INT, during Period)`)
	if indexed {
		mustExec(t, s, `CREATE INDEX vix ON visit (during) USING PERIOD`)
	}
	r := rand.New(rand.NewSource(seed))
	base := temporal.MustDate(1998, 1, 1)
	for i := 0; i < n; i++ {
		lo := base + temporal.Chronon(r.Int63n(600*86400))
		hi := lo + temporal.Chronon(r.Int63n(60*86400))
		mustExec(t, s, fmt.Sprintf(`INSERT INTO rx VALUES (%d, '%s')`,
			i, temporal.MustPeriod(lo, hi).Element()))
		vlo := base + temporal.Chronon(r.Int63n(600*86400))
		vhi := vlo + temporal.Chronon(r.Int63n(10*86400))
		mustExec(t, s, fmt.Sprintf(`INSERT INTO visit VALUES (%d, '%s')`,
			i, temporal.MustPeriod(vlo, vhi)))
	}
}

const temporalJoinQ = `
	SELECT r.id, v.id FROM rx r, visit v
	WHERE overlaps(v.during, r.valid)
	ORDER BY r.id, v.id`

func pairs(t *testing.T, s *engine.Session) []string {
	t.Helper()
	res := mustExec(t, s, temporalJoinQ)
	out := make([]string, len(res.Rows))
	for i, row := range res.Rows {
		out[i] = row[0].Format() + ":" + row[1].Format()
	}
	sort.Strings(out)
	return out
}

func TestPeriodJoinEquivalence(t *testing.T) {
	plain := newDB(t)
	indexed := newDB(t)
	seedTemporalJoin(t, plain, false, 60, 5)
	seedTemporalJoin(t, indexed, true, 60, 5)
	a, b := pairs(t, plain), pairs(t, indexed)
	if len(a) == 0 {
		t.Fatal("no overlapping pairs generated; bad seed")
	}
	if len(a) != len(b) {
		t.Fatalf("plain %d pairs, indexed %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("pair %d: %s vs %s", i, a[i], b[i])
		}
	}
}

func TestPeriodJoinPlanSelected(t *testing.T) {
	s := newDB(t)
	seedTemporalJoin(t, s, true, 5, 9)
	res := mustExec(t, s, `EXPLAIN `+temporalJoinQ)
	var planText []string
	for _, r := range res.Rows {
		planText = append(planText, r[0].Str())
	}
	joined := strings.Join(planText, "\n")
	if !strings.Contains(joined, "period-index nested loop on during") {
		t.Errorf("plan did not choose the period-index join:\n%s", joined)
	}
	// Without the index the same query nested-loops.
	s2 := newDB(t)
	seedTemporalJoin(t, s2, false, 5, 9)
	res = mustExec(t, s2, `EXPLAIN `+temporalJoinQ)
	planText = planText[:0]
	for _, r := range res.Rows {
		planText = append(planText, r[0].Str())
	}
	if !strings.Contains(strings.Join(planText, "\n"), "nested loop (1 filter(s))") {
		t.Errorf("plain plan unexpected:\n%s", strings.Join(planText, "\n"))
	}
}

func TestPeriodJoinWithExtraFilters(t *testing.T) {
	// Pushed filters on the indexed table must still apply to index
	// candidates.
	s := newDB(t)
	seedTemporalJoin(t, s, true, 40, 11)
	q := `SELECT COUNT(*) FROM rx r, visit v
	      WHERE overlaps(v.during, r.valid) AND v.id < 10 AND r.id >= 5`
	indexedCount := mustExec(t, s, q).Rows[0][0].Int()
	s2 := newDB(t)
	seedTemporalJoin(t, s2, false, 40, 11)
	plainCount := mustExec(t, s2, q).Rows[0][0].Int()
	if indexedCount != plainCount {
		t.Fatalf("indexed %d, plain %d", indexedCount, plainCount)
	}
}

// TestPeriodJoinContainsEmptyElement pins the container-side rule for
// contains joins: an empty element is contained in every element but
// overlaps none, so a period index on the contained side would miss it.
// The join on the contained side stays a nested loop and counts it.
func TestPeriodJoinContainsEmptyElement(t *testing.T) {
	s := newDB(t)
	mustExec(t, s, `CREATE TABLE a (id INT, valid Element)`)
	mustExec(t, s, `CREATE TABLE b (id INT, valid Element)`)
	mustExec(t, s, `CREATE INDEX bix ON b (valid) USING PERIOD`)
	mustExec(t, s, `INSERT INTO a VALUES (1, '{[1999-01-01, 1999-12-31]}')`)
	mustExec(t, s, `INSERT INTO b VALUES (1, '{[1999-03-01, 1999-03-31]}'), (2, '{}')`)
	const q = `SELECT COUNT(*) FROM a, b WHERE contains(a.valid, b.valid)`
	if n := mustExec(t, s, q).Rows[0][0].Int(); n != 2 {
		t.Errorf("contains join counts %d pairs, want 2 (the empty element is contained)", n)
	}
	plan := strings.Join(firstColumn(mustExec(t, s, "EXPLAIN "+q)), "\n")
	if strings.Contains(plan, "period-index") {
		t.Errorf("contains join probes the contained side's index:\n%s", plan)
	}
}

func TestPeriodJoinHashStillPreferred(t *testing.T) {
	// When an equality conjunct exists, the hash join wins the level and
	// the period conjunct stays a plain filter.
	s := newDB(t)
	seedTemporalJoin(t, s, true, 10, 13)
	res := mustExec(t, s, `EXPLAIN SELECT COUNT(*) FROM rx r, visit v
		WHERE r.id = v.id AND overlaps(v.during, r.valid)`)
	var lines []string
	for _, r := range res.Rows {
		lines = append(lines, r[0].Str())
	}
	joined := strings.Join(lines, "\n")
	if !strings.Contains(joined, "hash join") {
		t.Errorf("hash join not preferred:\n%s", joined)
	}
}

// TestPeriodJoinContainsEmptyProbe pins the empty contained side when
// the container side is indexed: the index finds what overlaps a probe,
// and an empty element overlaps nothing, yet every element contains it.
// Under contains an empty bound probe must pair with every row, under
// overlaps with none.
func TestPeriodJoinContainsEmptyProbe(t *testing.T) {
	s := newDB(t)
	mustExec(t, s, `CREATE TABLE a (valid Element)`)
	mustExec(t, s, `CREATE TABLE b (valid Element)`)
	mustExec(t, s, `CREATE INDEX aix ON a (valid) USING PERIOD`)
	mustExec(t, s, `INSERT INTO a VALUES ('{[1999-01-01, 1999-12-31]}'), ('{[2000-01-01, 2000-12-31]}')`)
	mustExec(t, s, `INSERT INTO b VALUES ('{[1999-03-01, 1999-03-31]}'), ('{}')`)
	for _, c := range []struct {
		q    string
		want int64
	}{
		{`SELECT COUNT(*) FROM b, a WHERE contains(a.valid, b.valid)`, 3},
		{`SELECT COUNT(*) FROM b, a WHERE overlaps(a.valid, b.valid)`, 1},
		{`SELECT COUNT(*) FROM a WHERE contains(valid, '{}'::Element)`, 2},
		{`SELECT COUNT(*) FROM a WHERE overlaps(valid, '{}')`, 0},
	} {
		if plan := strings.Join(firstColumn(mustExec(t, s, "EXPLAIN "+c.q)), "\n"); !strings.Contains(plan, "index") {
			t.Errorf("%s does not use the index on a:\n%s", c.q, plan)
		}
		if got := mustExec(t, s, c.q).Rows[0][0].Int(); got != c.want {
			t.Errorf("%s = %d, want %d", c.q, got, c.want)
		}
	}
}

// TestUserOverlapsKeepsRecheck registers an overlaps(Period, Period)
// overload with strict Allen semantics. It resolves ahead of the builtin
// overlaps(Element, Element) for two Periods, so the index no longer
// answers the conjunct: the scan and the join keep it as a re-checked
// filter, and the answers are the overload's, as on a bare table.
func TestUserOverlapsKeepsRecheck(t *testing.T) {
	plain, indexed := newDB(t), newDB(t)
	seedTemporalJoin(t, plain, false, 60, 5)
	seedTemporalJoin(t, indexed, true, 60, 5)
	registerAllenOverlaps(plain, indexed)
	for _, c := range []struct{ q, plan, loose string }{
		{`SELECT COUNT(*) FROM visit WHERE overlaps(during, '[1998-03-01, 1998-06-30]')`,
			"period index on during (1 filter(s) re-checked)",
			`SELECT COUNT(*) FROM visit WHERE overlaps(during, '{[1998-03-01, 1998-06-30]}'::Element)`},
		{`SELECT COUNT(*) FROM visit a, visit v WHERE overlaps(v.during, a.during)`,
			"period-index nested loop on during (1 filter(s) re-checked)",
			`SELECT COUNT(*) FROM visit a, visit v WHERE overlaps(v.during, a.during::Element)`},
	} {
		if plan := explained(t, indexed, c.q); !strings.Contains(plan, c.plan) {
			t.Errorf("%s: the plan does not re-check the user overload:\n%s", c.q, plan)
		}
		got, want := mustExec(t, indexed, c.q).Rows[0][0].Int(), mustExec(t, plain, c.q).Rows[0][0].Int()
		if got != want {
			t.Errorf("%s = %d on the indexed table, %d on the bare one", c.q, got, want)
		}
		// The builtin, reached through an Element cast, answers loose
		// overlap: a larger count here shows the overload ran.
		if n := mustExec(t, indexed, c.loose).Rows[0][0].Int(); n <= got {
			t.Errorf("%s = %d, not above the overload's %d: the fixture does not tell them apart", c.loose, n, got)
		}
	}
}

// registerAllenOverlaps registers, in each session's registry, an
// overlaps(Period, Period) with strict Allen semantics.
func registerAllenOverlaps(sessions ...*engine.Session) {
	for _, s := range sessions {
		reg := s.Database().Registry()
		period, _ := reg.LookupType("Period")
		reg.MustRegisterRoutine(&blade.Routine{
			Name: "overlaps", Params: []*types.Type{period, period}, Result: types.TBool, Strict: true,
			Fn: func(ctx *blade.Ctx, args []types.Value) (types.Value, error) {
				p, q := args[0].Obj().(temporal.Period), args[1].Obj().(temporal.Period)
				return types.NewBool(temporal.PeriodOverlapsAllen(p, q, ctx.Now)), nil
			},
		})
	}
}

// TestPeriodJoinProbeCastFailure drives an exact overlaps join from a
// VARCHAR probe, which the routine's implicit cast parses per outer row.
// Text that parses probes the index; text that does not leaves the index
// out, and the conjunct, tested on every pair as the bare join tests it,
// fails the statement the same way.
func TestPeriodJoinProbeCastFailure(t *testing.T) {
	plain, indexed := newDB(t), newDB(t)
	seedTemporalJoin(t, plain, false, 40, 17)
	seedTemporalJoin(t, indexed, true, 40, 17)
	const q = `SELECT COUNT(*) FROM w, visit v WHERE overlaps(v.during, w.txt)`
	for _, s := range []*engine.Session{plain, indexed} {
		mustExec(t, s, `CREATE TABLE w (txt VARCHAR(40))`)
		mustExec(t, s, `INSERT INTO w VALUES ('[1998-03-01, 1998-05-31]'), ('{[1998-07-01, 1998-07-02], [1999-01-01, 1999-03-01]}')`)
	}
	if plan := explained(t, indexed, q); !strings.Contains(plan, "period-index nested loop on during, exact overlaps") {
		t.Fatalf("the join does not answer overlaps from the index:\n%s", plan)
	}
	got, want := mustExec(t, indexed, q).Rows[0][0].Int(), mustExec(t, plain, q).Rows[0][0].Int()
	if got != want || got == 0 {
		t.Fatalf("%s = %d on the indexed table, %d on the bare one", q, got, want)
	}
	for _, s := range []*engine.Session{plain, indexed} {
		mustExec(t, s, `INSERT INTO w VALUES ('not a period')`)
		if _, err := s.Exec(q, nil); err == nil || !strings.Contains(err.Error(), "not a period") {
			t.Errorf("%s over unparsable text: err = %v, want the cast's error", q, err)
		}
	}
}

// TestPeriodJoinProbeCastFailureWithFilters is the cast failure above
// on a level whose source also has pushed filters: text that does not
// parse leaves the index out, and the join still applies the pushed
// filters and tests the conjunct on every pair that passes them, so it
// fails as the bare join fails and, when no row passes, succeeds alike.
func TestPeriodJoinProbeCastFailureWithFilters(t *testing.T) {
	plain, indexed := newDB(t), newDB(t)
	seedTemporalJoin(t, plain, false, 40, 17)
	seedTemporalJoin(t, indexed, true, 40, 17)
	const (
		q     = `SELECT COUNT(*) FROM w, visit v WHERE overlaps(v.during, w.txt) AND v.id BETWEEN 3 AND 30 AND v.id <> 7`
		empty = `SELECT COUNT(*) FROM w, visit v WHERE overlaps(v.during, w.txt) AND v.id > 1000`
	)
	for _, s := range []*engine.Session{plain, indexed} {
		mustExec(t, s, `CREATE TABLE w (txt VARCHAR(40))`)
		mustExec(t, s, `INSERT INTO w VALUES ('[1998-03-01, 1998-05-31]'), ('{[1998-07-01, 1998-07-02], [1999-01-01, 1999-03-01]}')`)
	}
	if plan := explained(t, indexed, q); !strings.Contains(plan, "period-index nested loop on during, exact overlaps") {
		t.Fatalf("the join does not answer overlaps from the index:\n%s", plan)
	}
	got, want := mustExec(t, indexed, q).Rows[0][0].Int(), mustExec(t, plain, q).Rows[0][0].Int()
	if got != want || got == 0 {
		t.Fatalf("%s = %d on the indexed table, %d on the bare one", q, got, want)
	}
	for _, s := range []*engine.Session{plain, indexed} {
		mustExec(t, s, `INSERT INTO w VALUES ('not a period')`)
		if _, err := s.Exec(q, nil); err == nil || !strings.Contains(err.Error(), "not a period") {
			t.Errorf("%s over unparsable text: err = %v, want the cast's error", q, err)
		}
		if n := mustExec(t, s, empty).Rows[0][0].Int(); n != 0 {
			t.Errorf("%s = %d, want 0", empty, n)
		}
	}
}
