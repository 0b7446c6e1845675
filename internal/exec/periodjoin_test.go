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

	"tip/internal/engine"
	"tip/internal/temporal"
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
