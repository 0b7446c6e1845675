package exec_test

// Allocation pins for the statement shapes of the benchmark's temporal
// and point workloads. testing.AllocsPerRun counts whole statements
// through the engine (plan cache, binding, execution, result), so the
// bounds are about how allocations scale with the rows a statement
// touches: neither a period-index join nor a literal overlap probe pays
// anything per pair or candidate. The race detector inflates allocation
// counts, so the pins skip under -race.

import (
	"fmt"
	"math/rand"
	goruntime "runtime"
	"strings"
	"testing"

	"tip/internal/blade"
	"tip/internal/core"
	"tip/internal/engine"
	"tip/internal/exec"
	"tip/internal/temporal"
	"tip/internal/types"
)

// seedAllocRx loads n rows of (patient, drug, dosage, valid) with eight
// rows per patient and one 1-10 day period each, spread over 1,000 days
// from 1998-01-01, behind a hash index on patient and a period index on
// valid.
func seedAllocRx(t *testing.T, s *engine.Session, n int) {
	t.Helper()
	mustExec(t, s, `CREATE TABLE rx (patient VARCHAR(20), drug VARCHAR(20), dosage INT, valid Element)`)
	mustExec(t, s, `CREATE INDEX rx_patient ON rx (patient)`)
	mustExec(t, s, `CREATE INDEX rx_valid ON rx (valid) USING PERIOD`)
	r := rand.New(rand.NewSource(int64(n)))
	base := temporal.MustDate(1998, 1, 1)
	const day = 86400
	for lo := 0; lo < n; lo += 500 {
		var vals []string
		for i := lo; i < n && i < lo+500; i++ {
			start := base + temporal.Chronon(r.Intn(1000)*day)
			end := start + temporal.Chronon((1+r.Intn(10))*day) - 1
			vals = append(vals, fmt.Sprintf("('p%d', 'd%d', %d, '%s')",
				i/8, r.Intn(20), r.Intn(100), temporal.MustPeriod(start, end).Element()))
		}
		mustExec(t, s, "INSERT INTO rx VALUES "+strings.Join(vals, ", "))
	}
}

// stmtAllocs is the average allocation count of one execution of sql.
func stmtAllocs(t *testing.T, s *engine.Session, sql string, params map[string]types.Value) float64 {
	t.Helper()
	if _, err := s.Exec(sql, params); err != nil { // warm the plan cache
		t.Fatalf("Exec(%s): %v", sql, err)
	}
	return testing.AllocsPerRun(20, func() {
		if _, err := s.Exec(sql, params); err != nil {
			t.Fatalf("Exec(%s): %v", sql, err)
		}
	})
}

// The period-index join and the literal overlap probe the allocation
// pins below measure, each over a period-indexed rx of n rows. Their
// COUNT(*) forms count in the index's answer; the twins read a column,
// so they keep fetching and pairing rows.
const (
	periodJoinQ      = `SELECT COUNT(*) FROM visit v, rx p WHERE v.id BETWEEN 0 AND 3 AND overlaps(p.valid, v.during)`
	literalProbeQ    = `SELECT COUNT(*) FROM rx WHERE overlaps(valid, '[1998-03-01, 1998-06-30]')`
	periodJoinRowQ   = `SELECT COUNT(p.dosage) FROM visit v, rx p WHERE v.id BETWEEN 0 AND 3 AND overlaps(p.valid, v.during)`
	literalProbeRowQ = `SELECT COUNT(dosage) FROM rx WHERE overlaps(valid, '[1998-03-01, 1998-06-30]')`
)

// periodJoinDB seeds rx with n rows beside four visits and checks that
// periodJoinQ joins them through the period index.
func periodJoinDB(t *testing.T, n int) *engine.Session {
	s := newDB(t)
	seedAllocRx(t, s, n)
	mustExec(t, s, `CREATE TABLE visit (id INT, during Period)`)
	mustExec(t, s, `INSERT INTO visit VALUES (0, '[1998-02-01, 1998-08-01]'),
		(1, '[1998-06-01, 1998-12-01]'), (2, '[1999-01-01, 1999-07-01]'), (3, '[1999-09-01, 2000-03-01]')`)
	if plan := strings.Join(firstColumn(mustExec(t, s, "EXPLAIN "+periodJoinQ)), "\n"); !strings.Contains(plan, "period-index nested loop") {
		t.Fatalf("the join did not use the period index:\n%s", plan)
	}
	return s
}

// literalProbeDB seeds rx with n rows and checks that literalProbeQ
// reads them through the period index.
func literalProbeDB(t *testing.T, n int) *engine.Session {
	s := newDB(t)
	seedAllocRx(t, s, n)
	if plan := strings.Join(firstColumn(mustExec(t, s, "EXPLAIN "+literalProbeQ)), "\n"); !strings.Contains(plan, "period index on valid") {
		t.Fatalf("the probe did not use the period index:\n%s", plan)
	}
	return s
}

func TestPeriodJoinAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector inflates allocation counts")
	}
	for _, q := range []string{periodJoinQ, periodJoinRowQ} {
		join := func(n int) (allocs float64, pairs int64) {
			s := periodJoinDB(t, n)
			return stmtAllocs(t, s, q, nil), mustExec(t, s, q).Rows[0][0].Int()
		}
		small, pSmall := join(500)
		large, pLarge := join(5000)
		t.Logf("%s: %.0f allocations for %d pairs, %.0f for %d", q, small, pSmall, large, pLarge)
		if pLarge < 5*pSmall {
			t.Fatalf("pairs %d vs %d: the larger table should give many more", pSmall, pLarge)
		}
		if large >= 1.5*small {
			t.Errorf("%s allocates %.0f objects for %d pairs but %.0f for %d: per-pair allocation is back",
				q, small, pSmall, large, pLarge)
		}
	}
}

func TestLiteralProbeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector inflates allocation counts")
	}
	for _, c := range []struct {
		q     string
		bound float64
	}{
		{literalProbeQ, literalProbeAllocs},
		{literalProbeRowQ, literalProbeRowAllocs},
	} {
		probe := func(n int) (allocs float64, candidates int64) {
			s := literalProbeDB(t, n)
			return stmtAllocs(t, s, c.q, nil), mustExec(t, s, c.q).Rows[0][0].Int()
		}
		small, kSmall := probe(300)
		large, kLarge := probe(3000)
		t.Logf("%s: %.0f allocations over %d candidates, %.0f over %d", c.q, small, kSmall, large, kLarge)
		if kLarge < 5*kSmall {
			t.Fatalf("candidates %d vs %d: the larger table should give many more", kSmall, kLarge)
		}
		if large >= 1.5*small {
			t.Errorf("%s allocates %.0f objects over %d candidates but %.0f over %d: per-candidate allocation is back",
				c.q, large, kLarge, small, kSmall)
		}
		if large > c.bound {
			t.Errorf("%s allocates %.0f objects per statement; the bound is %.0f", c.q, large, c.bound)
		}
	}
}

// TestPeriodProbeBytes pins the bytes, not only the objects, of the
// literal probe and the period-index join: a statement's allocation must
// not grow with the rows the index finds, so neither the index's answer
// nor the scan's output is copied into a slice sized by the candidates.
// Bytes are the TotalAlloc delta over 20 runs, at the same two table
// sizes as the object pins, and the larger may allocate at most 1.5
// times the smaller.
func TestPeriodProbeBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector inflates allocation counts")
	}
	for _, c := range []struct {
		name, q      string
		db           func(*testing.T, int) *engine.Session
		small, large int
	}{
		{"literal probe", literalProbeQ, literalProbeDB, 300, 3000},
		{"literal probe reading a column", literalProbeRowQ, literalProbeDB, 300, 3000},
		{"period-index join", periodJoinQ, periodJoinDB, 500, 5000},
		{"period-index join reading a column", periodJoinRowQ, periodJoinDB, 500, 5000},
	} {
		small := stmtBytes(t, c.db(t, c.small), c.q)
		large := stmtBytes(t, c.db(t, c.large), c.q)
		t.Logf("%s: %.0f bytes per statement over %d rows, %.0f over %d", c.name, small, c.small, large, c.large)
		if large > 1.5*small {
			t.Errorf("%s allocates %.0f bytes per statement over %d rows but %.0f over %d: allocation grows with the candidates",
				c.name, small, c.small, large, c.large)
		}
	}
}

// TestPeriodUpdateBytes pins the bytes of an UPDATE of 100 rows of a
// period-indexed table at 1,000 and 10,000 rows: re-indexing a row must
// not copy the index's entry logs, nor may the WHERE scan allocate per
// row, so the larger table may cost at most 1.5 times the smaller.
func TestPeriodUpdateBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector inflates allocation counts")
	}
	const update = `UPDATE u SET dosage = dosage + 1 WHERE k < 100`
	updateBytes := func(n int) float64 {
		s := newDB(t)
		mustExec(t, s, `CREATE TABLE u (k INT, dosage INT, valid Element)`)
		mustExec(t, s, `CREATE INDEX u_valid ON u (valid) USING PERIOD`)
		base := temporal.MustDate(1998, 1, 1)
		for lo := 0; lo < n; lo += 500 {
			var vals []string
			for i := lo; i < n && i < lo+500; i++ {
				start := base + temporal.Chronon(i%1000*86400)
				vals = append(vals, fmt.Sprintf("(%d, %d, '%s')", i, i%100, temporal.MustPeriod(start, start+86400-1).Element()))
			}
			mustExec(t, s, "INSERT INTO u VALUES "+strings.Join(vals, ", "))
		}
		if got := mustExec(t, s, update).Affected; got != 100 {
			t.Fatalf("UPDATE changed %d rows, want 100", got)
		}
		return stmtBytes(t, s, update)
	}
	small, large := updateBytes(1000), updateBytes(10000)
	t.Logf("%s: %.0f bytes per statement over 1,000 rows, %.0f over 10,000", update, small, large)
	if large > 1.5*small {
		t.Errorf("%s allocates %.0f bytes over 1,000 rows but %.0f over 10,000: the update copies by table size", update, small, large)
	}
}

// stmtBytes is the average number of bytes one execution of sql
// allocates, measured like testing.AllocsPerRun: one warm-up run, then
// the TotalAlloc delta over 20 runs on a single P.
func stmtBytes(t *testing.T, s *engine.Session, sql string) float64 {
	t.Helper()
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(1))
	mustExec(t, s, sql)
	const runs = 20
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	for range runs {
		if _, err := s.Exec(sql, nil); err != nil {
			t.Fatalf("Exec(%s): %v", sql, err)
		}
	}
	goruntime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / runs
}

// TestCoalesceAllocs pins the coalesce operator on the paper's Q4
// shape: one object per output row (the Span's box) plus a constant.
// Grouped by drug (20 groups) the count must not move between 500 and
// 5,000 input rows; grouped by patient (one group per eight rows) the
// constant also covers the doubling growth of group-sized buffers.
func TestCoalesceAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector inflates allocation counts")
	}
	const constant = 128
	byDrug := map[int]float64{}
	for _, n := range []int{500, 5000} {
		s := newDB(t)
		seedAllocRx(t, s, n)
		for _, q := range []string{
			`SELECT drug, length(group_union(valid)) FROM rx GROUP BY drug`,
			`SELECT patient, length(group_union(valid)) FROM rx GROUP BY patient`,
		} {
			if plan := explained(t, s, q); !strings.Contains(plan, "length fused") {
				t.Fatalf("%s: the coalesce operator did not fuse length:\n%s", q, plan)
			}
			groups := len(mustExec(t, s, q).Rows)
			allocs := stmtAllocs(t, s, q, nil)
			t.Logf("%s: %d rows, %d groups: %.0f allocations", q, n, groups, allocs)
			if allocs > float64(groups+constant) {
				t.Errorf("%s over %d rows allocates %.0f objects for %d groups; the bound is groups + %d",
					q, n, allocs, groups, constant)
			}
			if groups == 20 {
				byDrug[n] = allocs
			}
		}
	}
	if byDrug[5000] > byDrug[500] {
		t.Errorf("20 groups: %.0f allocations over 500 rows, %.0f over 5,000: the operator allocates per input row",
			byDrug[500], byDrug[5000])
	}
}

// TestRowExprAllocs pins per-row expressions whose overloads, comparisons
// and casts are chosen at bind time: arithmetic and a comparison over
// INT columns allocate nothing per row, and comparing a routine's Span
// result with a string literal allocates only the Span's box, because
// the literal converts once per statement.
func TestRowExprAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector inflates allocation counts")
	}
	small, large := newDB(t), newDB(t)
	seedAllocRx(t, small, 300)
	seedAllocRx(t, large, 3000)
	for _, c := range []struct {
		sql    string
		perRow float64 // allocations per extra row allowed
	}{
		{`SELECT SUM(dosage + 1) FROM rx`, 0},
		{`SELECT COUNT(*) FROM rx WHERE dosage * 2 > 50`, 0},
		{`SELECT COUNT(*) FROM rx WHERE length(valid) > '3 00:00:00'`, 1},
	} {
		s, l := stmtAllocs(t, small, c.sql, nil), stmtAllocs(t, large, c.sql, nil)
		perRow := (l - s) / 2700
		t.Logf("%s: %.0f allocations over 300 rows, %.0f over 3,000 (%.2f per extra row)", c.sql, s, l, perRow)
		switch {
		case c.perRow == 0 && l >= 1.5*s:
			t.Errorf("%s allocates %.0f objects over 300 rows but %.0f over 3,000: per-row allocation is back", c.sql, s, l)
		case c.perRow > 0 && perRow > c.perRow:
			t.Errorf("%s allocates %.2f objects per extra row; the bound is %.0f", c.sql, perRow, c.perRow)
		}
	}
}

// The point statements of the insert and point-read workloads: a hash
// point read of a patient with eight rows and a parameterised INSERT.
// The bounds are their measured counts (go 1.24, amd64); work on the
// temporal paths must not make either statement allocate more. The
// literal overlap probe of TestLiteralProbeAllocs has a ceiling of its
// own at either table size, for its COUNT(*) form and for its twin
// that reads rows.
const (
	pointReadAllocs       = 48
	insertAllocs          = 30
	literalProbeAllocs    = 82
	literalProbeRowAllocs = 85
)

func TestPointStatementAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector inflates allocation counts")
	}
	s := newDB(t)
	seedAllocRx(t, s, 2000)
	const read = `SELECT drug, dosage, valid FROM rx WHERE patient = :p`
	readParams := map[string]types.Value{"p": types.NewString("p17")}
	if n := len(mustExecParams(t, s, read, readParams).Rows); n != 8 {
		t.Fatalf("point read returned %d rows, want 8", n)
	}
	valid, err := temporal.ParseElement("{[1999-01-01, NOW]}")
	if err != nil {
		t.Fatal(err)
	}
	elem, _ := s.Database().Registry().LookupType("Element")
	insertParams := map[string]types.Value{
		"pat": types.NewString("p9999"), "drug": types.NewString("d1"),
		"dose": types.NewInt(5), "valid": types.NewUDT(elem, valid),
	}
	for _, c := range []struct {
		sql    string
		params map[string]types.Value
		bound  float64
	}{
		{read, readParams, pointReadAllocs},
		{`INSERT INTO rx VALUES (:pat, :drug, :dose, :valid)`, insertParams, insertAllocs},
	} {
		avg := stmtAllocs(t, s, c.sql, c.params)
		t.Logf("%s: %.0f allocations per statement", c.sql, avg)
		if avg > c.bound {
			t.Errorf("%s allocates %.0f objects per statement; the bound is %.0f", c.sql, avg, c.bound)
		}
	}
}

// durableInsertAllocs bounds the INSERT of TestPointStatementAllocs on a
// durable database, where the statement also records its put and
// appends its commit group to the log.
const durableInsertAllocs = 31

func TestDurableInsertAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector inflates allocation counts")
	}
	reg := blade.NewRegistry()
	if _, err := core.Register(reg); err != nil {
		t.Fatal(err)
	}
	db, err := engine.Open(reg, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.SetClock(func() temporal.Chronon { return testNow })
	s := db.NewSession()
	seedAllocRx(t, s, 200)
	valid, err := temporal.ParseElement("{[1999-01-01, NOW]}")
	if err != nil {
		t.Fatal(err)
	}
	elem, _ := reg.LookupType("Element")
	const insert = `INSERT INTO rx VALUES (:pat, :drug, :dose, :valid)`
	avg := stmtAllocs(t, s, insert, map[string]types.Value{
		"pat": types.NewString("p9999"), "drug": types.NewString("d1"),
		"dose": types.NewInt(5), "valid": types.NewUDT(elem, valid),
	})
	t.Logf("durable %s: %.0f allocations per statement", insert, avg)
	if avg > durableInsertAllocs {
		t.Errorf("durable %s allocates %.0f objects per statement; the bound is %d", insert, avg, durableInsertAllocs)
	}
}

func mustExecParams(t *testing.T, s *engine.Session, sql string, params map[string]types.Value) *exec.Result {
	t.Helper()
	res, err := s.Exec(sql, params)
	if err != nil {
		t.Fatalf("Exec(%s): %v", sql, err)
	}
	return res
}
