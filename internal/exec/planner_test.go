package exec_test

// Planner golden tests: each query shape has one plan (a period
// predicate over a period-indexed column probes the index; GROUP BY ...
// group_union runs the coalesce operator's hash grouping), and EXPLAIN /
// EXPLAIN ANALYZE show it.

import (
	"fmt"
	"regexp"
	"strings"
	"testing"

	"tip/internal/engine"
)

func explained(t *testing.T, s *engine.Session, sql string) string {
	t.Helper()
	res, err := s.Exec("EXPLAIN "+sql, nil)
	if err != nil {
		t.Fatalf("EXPLAIN %s: %v", sql, err)
	}
	var lines []string
	for _, r := range res.Rows {
		lines = append(lines, r[0].Str())
	}
	return strings.Join(lines, "\n")
}

// insertBatch inserts n rows (id, k, valid-element) built by gen in
// multi-row VALUES batches.
func insertBatch(t *testing.T, s *engine.Session, table string, n int, gen func(i int) string) {
	t.Helper()
	const batch = 100
	for at := 0; at < n; at += batch {
		hi := at + batch
		if hi > n {
			hi = n
		}
		vals := make([]string, 0, batch)
		for i := at; i < hi; i++ {
			vals = append(vals, gen(i))
		}
		mustExec(t, s, fmt.Sprintf("INSERT INTO %s VALUES %s", table, strings.Join(vals, ", ")))
	}
}

// TestExplainAnalyzeCoalesceHash is the exact golden for the specialised
// coalesce operator: every GROUP BY ... group_union over plain columns
// runs its hash grouping, through a map, or through the hash index on
// the one group column of the one table it reads in full.
func TestExplainAnalyzeCoalesceHash(t *testing.T) {
	s := newDB(t)
	mustExec(t, s, `CREATE TABLE g (k INT, valid Element)`)
	mustExec(t, s, `INSERT INTO g VALUES
		(1, '[1998-01-01, 1998-01-10]'), (1, '[1998-01-05, 1998-01-20]'),
		(2, '[1998-02-01, 1998-02-10]'), (2, '[1998-03-01, 1998-03-10]')`)
	got := analyzed(t, s, `SELECT k, group_union(valid) FROM g GROUP BY k`)
	want := strings.Join([]string{
		"select: 1 source(s) (actual rows=2 loops=1 time=X)",
		"  scan g: full scan (0 filter(s)) (actual rows=4 loops=1 time=X)",
		"  aggregate: 1 group expr(s), 1 aggregate(s); coalesce: hash (actual rows=2 loops=1 time=X)",
		"execution time: X",
		"peak memory: X",
	}, "\n")
	if got != want {
		t.Errorf("coalesce EXPLAIN ANALYZE mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
	mustExec(t, s, `CREATE INDEX gk ON g (k)`)
	got = analyzed(t, s, `SELECT k, length(group_union(valid)) FROM g GROUP BY k`)
	want = strings.Join([]string{
		"select: 1 source(s) (actual rows=2 loops=1 time=X)",
		"  scan g: full scan (0 filter(s)) (actual rows=4 loops=1 time=X)",
		"  aggregate: 1 group expr(s), 1 aggregate(s); coalesce: hash index on k, length fused (actual rows=2 loops=1 time=X)",
		"execution time: X",
		"peak memory: X",
	}, "\n")
	if got != want {
		t.Errorf("indexed coalesce EXPLAIN ANALYZE mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestExplainAnalyzeCoalescePeriod is the golden for the coalesce
// operator fed by a period index: the scan line counts the live slots
// the operator walks, and the aggregate line the index entries it read
// and the rows it fetched — one per group opened, plus, for group 3,
// which no entry reaches, its NULL row and its empty element's row,
// which tell its answer (the empty element) from NULL. Group 4's one
// entry binds empty at NOW, but still shows that the group holds a
// non-NULL element, so none of its rows is fetched again.
func TestExplainAnalyzeCoalescePeriod(t *testing.T) {
	s := newDB(t)
	mustExec(t, s, `CREATE TABLE g (k INT, valid Element)`)
	mustExec(t, s, `CREATE INDEX gk ON g (k)`)
	mustExec(t, s, `CREATE INDEX gv ON g (valid) USING PERIOD`)
	mustExec(t, s, `INSERT INTO g VALUES
		(1, '[1998-01-01, 1998-01-10]'), (1, '[1998-01-05, 1998-01-20]'),
		(2, '{[1998-02-01, 1998-02-10], [1998-03-01, 1998-03-10]}'), (3, NULL), (3, '{}'), (4, '[1999-06-01, NOW]')`)
	mustExec(t, s, `SET NOW = '1999-01-01'`)
	const q = `SELECT k, length(group_union(valid)) FROM g GROUP BY k`
	got := analyzed(t, s, q)
	want := strings.Join([]string{
		"select: 1 source(s) (actual rows=4 loops=1 time=X)",
		"  scan g: full scan (0 filter(s)) (actual rows=6 loops=1 time=X)",
		"  aggregate: 1 group expr(s), 1 aggregate(s); coalesce: hash index on k, period index on valid, length fused (actual rows=4 loops=1 entries=5 fetched=6 time=X)",
		"execution time: X",
		"peak memory: X",
	}, "\n")
	if got != want {
		t.Errorf("period-fed coalesce EXPLAIN ANALYZE mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
	if got := fmt.Sprint(grid(mustExec(t, s, q))); got != "[[1 19] [2 18] [3 0] [4 0]]" {
		t.Errorf("%s = %s", q, got)
	}
}

// TestCoalescePeriodFetchesOneRowPerGroup pins the point of the period
// index input: over the 5,000-row rx, Q4 reads every entry of the period
// index once and fetches one row per group, the row that opens it.
func TestCoalescePeriodFetchesOneRowPerGroup(t *testing.T) {
	s := newDB(t)
	seedAllocRx(t, s, 5000)
	const q = `SELECT patient, length(group_union(valid)) FROM rx GROUP BY patient`
	groups := len(mustExec(t, s, q).Rows)
	m := regexp.MustCompile(`coalesce: hash index on patient, period index on valid, length fused \(actual rows=(\d+) loops=1 entries=(\d+) fetched=(\d+) `).
		FindStringSubmatch(analyzed(t, s, q))
	if m == nil {
		t.Fatalf("%s: no period-fed coalesce line:\n%s", q, analyzed(t, s, q))
	}
	if want := fmt.Sprint(groups); m[1] != want || m[2] != "5000" || m[3] != want {
		t.Errorf("%s: %s groups, %s entries read, %s rows fetched; want %d groups, 5000 entries, %d rows",
			q, m[1], m[2], m[3], groups, groups)
	}
}

// TestPeriodProbeWholeExtent: a period predicate over a period-indexed
// column always probes the index, even when the probe window covers
// every stored period, and the answer is the same before and after a
// load that widens the data extent far past the window.
func TestPeriodProbeWholeExtent(t *testing.T) {
	s := newDB(t)
	mustExec(t, s, `CREATE TABLE t (a INT, valid Element)`)
	mustExec(t, s, `CREATE INDEX tv ON t (valid) USING PERIOD`)
	insertBatch(t, s, "t", 300, func(i int) string {
		return fmt.Sprintf("(%d, '[1998-%02d-%02d, 1998-%02d-%02d]')",
			i, 1+i%11, 1+i%27, 2+i%11, 1+i%27)
	})
	q := `SELECT COUNT(*) FROM t WHERE overlaps(valid, '[1998-01-01, 1998-12-31]')`
	check := func(when string) {
		t.Helper()
		if out := explained(t, s, q); !strings.Contains(out, "period index on valid") {
			t.Fatalf("%s: probe should use the period index:\n%s", when, out)
		}
		if got := mustExec(t, s, q).Rows[0][0].Int(); got != 300 {
			t.Fatalf("%s: answer = %d, want 300", when, got)
		}
	}
	check("whole extent")
	insertBatch(t, s, "t", 4000, func(i int) string {
		return fmt.Sprintf("(%d, '[%d-%02d-%02d, %d-%02d-%02d]')",
			300+i, 2005+i%5, 1+i%12, 1+i%28, 2006+i%5, 1+i%12, 1+i%28)
	})
	check("after widening")
}

// TestIndexMissReadsNothing pins that an index probe finding no row
// answers with no rows instead of scanning the table. The count is the
// same either way, so the test compares the statements' peak memory: a
// scan sizes its output for every row it may return, which for a full
// scan is the whole table. COUNT(*) keeps everything else equal.
func TestIndexMissReadsNothing(t *testing.T) {
	s := newDB(t)
	seedAllocRx(t, s, 2000)
	peak := func(q string) int64 {
		t.Helper()
		res, err := s.Exec("EXPLAIN ANALYZE "+q, nil)
		if err != nil {
			t.Fatalf("EXPLAIN ANALYZE %s: %v", q, err)
		}
		for _, r := range res.Rows {
			var n int64
			if _, err := fmt.Sscanf(r[0].Str(), "peak memory: %d bytes", &n); err == nil {
				return n
			}
		}
		t.Fatalf("EXPLAIN ANALYZE %s reports no peak memory", q)
		return 0
	}
	for _, c := range []struct{ plan, hit, miss string }{
		{"hash index on patient",
			`SELECT COUNT(*) FROM rx WHERE patient = 'p17'`,
			`SELECT COUNT(*) FROM rx WHERE patient = 'nobody'`},
		{"period index on valid",
			`SELECT COUNT(*) FROM rx WHERE overlaps(valid, '[1998-03-01, 1998-03-01]')`,
			`SELECT COUNT(*) FROM rx WHERE overlaps(valid, '[2010-03-01, 2010-03-01]')`},
	} {
		if plan := explained(t, s, c.miss); !strings.Contains(plan, c.plan) {
			t.Fatalf("%s does not use the %s:\n%s", c.miss, c.plan, plan)
		}
		if n := mustExec(t, s, c.hit).Rows[0][0].Int(); n == 0 {
			t.Fatalf("%s counts no rows; the fixture should give some", c.hit)
		}
		if n := mustExec(t, s, c.miss).Rows[0][0].Int(); n != 0 {
			t.Fatalf("%s = %d, want 0", c.miss, n)
		}
		if hit, miss := peak(c.hit), peak(c.miss); miss > hit {
			t.Errorf("%s peaks at %d bytes, above the %d of a probe that finds rows: the miss scanned the table",
				c.miss, miss, hit)
		}
	}
}
