package exec_test

// EXPLAIN ANALYZE golden tests. Wall times are nondeterministic, so the
// time= and execution time fields are normalised before comparison; row
// and loop counts are exact (the seeds are fixed).

import (
	"fmt"
	"regexp"
	"strings"
	"testing"
	"time"

	"tip/internal/engine"
)

var timeRe = regexp.MustCompile(`time=[^)]+\)`)
var execTimeRe = regexp.MustCompile(`execution time: .*`)
var peakMemRe = regexp.MustCompile(`peak memory: .*`)

// analyzed runs EXPLAIN ANALYZE sql and returns the plan with wall
// times replaced by time=X.
func analyzed(t *testing.T, s *engine.Session, sql string) string {
	t.Helper()
	res, err := s.Exec("EXPLAIN ANALYZE "+sql, nil)
	if err != nil {
		t.Fatalf("EXPLAIN ANALYZE %s: %v", sql, err)
	}
	var lines []string
	for _, r := range res.Rows {
		line := timeRe.ReplaceAllString(r[0].Str(), "time=X)")
		line = execTimeRe.ReplaceAllString(line, "execution time: X")
		line = peakMemRe.ReplaceAllString(line, "peak memory: X")
		lines = append(lines, line)
	}
	return strings.Join(lines, "\n")
}

func TestExplainAnalyzePeriodJoin(t *testing.T) {
	s := newDB(t)
	seedTemporalJoin(t, s, true, 5, 9)
	got := analyzed(t, s, temporalJoinQ)
	want := strings.Join([]string{
		"select: 2 source(s) (actual rows=2 loops=1 time=X)",
		"  scan r: full scan (0 filter(s)) (actual rows=5 loops=1 time=X)",
		// The index answers overlaps exactly, so no filter is re-checked.
		"  join v: period-index nested loop on during, exact overlaps (0 filter(s) re-checked) (actual rows=2 loops=1 time=X)",
		"  sort: 2 key(s) (actual rows=2 loops=1 time=X)",
		"execution time: X",
		"peak memory: X",
	}, "\n")
	if got != want {
		t.Errorf("period join EXPLAIN ANALYZE mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestExplainAnalyzePeriodJoinCount pins the streamed last join level:
// its rows are counted as they go to the aggregate, never materialised,
// and the join line must still report every one of them — as many as
// COUNT(*) answers.
func TestExplainAnalyzePeriodJoinCount(t *testing.T) {
	s := newDB(t)
	seedTemporalJoin(t, s, true, 40, 11)
	const q = `SELECT COUNT(*) FROM rx r, visit v WHERE overlaps(v.during, r.valid)`
	count := mustExec(t, s, q).Rows[0][0].Int()
	got := analyzed(t, s, q)
	want := strings.Join([]string{
		"select: 2 source(s) (actual rows=1 loops=1 time=X)",
		"  scan r: full scan (0 filter(s)) (actual rows=40 loops=1 time=X)",
		fmt.Sprintf("  join v: period-index nested loop on during, exact overlaps (0 filter(s) re-checked) (actual rows=%d loops=1 time=X)", count),
		"  aggregate: 0 group expr(s), 1 aggregate(s) (actual rows=1 loops=1 time=X)",
		"execution time: X",
		"peak memory: X",
	}, "\n")
	if count != 95 {
		t.Errorf("COUNT(*) = %d; the fixture (seed 11) gives 95", count)
	}
	if got != want {
		t.Errorf("period join COUNT(*) EXPLAIN ANALYZE mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestExplainAnalyzeOwnTimes pins what the join and aggregate times
// mean once the last join level streams into the aggregate: each line
// reports its own work, so the two never add up to more than the select
// that contains them (plus the microsecond each line is rounded to).
func TestExplainAnalyzeOwnTimes(t *testing.T) {
	s := newDB(t)
	seedTemporalJoin(t, s, true, 300, 11)
	res, err := s.Exec(`EXPLAIN ANALYZE SELECT v.id, COUNT(*) FROM rx r, visit v
		WHERE overlaps(v.during, r.valid) GROUP BY v.id`, nil)
	if err != nil {
		t.Fatal(err)
	}
	lineTime := func(prefix string) time.Duration {
		for _, r := range res.Rows {
			line := strings.TrimSpace(r[0].Str())
			if !strings.HasPrefix(line, prefix) {
				continue
			}
			m := regexp.MustCompile(`time=([^)]+)\)`).FindStringSubmatch(line)
			if m == nil {
				t.Fatalf("no time on %q", line)
			}
			d, err := time.ParseDuration(m[1])
			if err != nil {
				t.Fatalf("%q: %v", line, err)
			}
			return d
		}
		t.Fatalf("no %q line in the plan", prefix)
		return 0
	}
	sel, join, agg := lineTime("select:"), lineTime("join v:"), lineTime("aggregate:")
	if join+agg > sel+2*time.Microsecond {
		t.Errorf("join %v + aggregate %v exceed their select %v: a line counts another's work", join, agg, sel)
	}
}

func TestExplainAnalyzeGroupUnion(t *testing.T) {
	s := newDB(t)
	seedEmp(t, s)
	got := analyzed(t, s, `SELECT dno, COUNT(*) FROM emp GROUP BY dno
		UNION SELECT dno, 0 FROM dept ORDER BY 1, 2`)
	want := strings.Join([]string{
		"select: 1 source(s) (actual rows=3 loops=1 time=X)",
		"  scan emp: full scan (0 filter(s)) (actual rows=5 loops=1 time=X)",
		"  aggregate: 1 group expr(s), 1 aggregate(s); coalesce: hash (actual rows=3 loops=1 time=X)",
		"set operation: UNION (actual rows=6 loops=1 time=X)",
		"select: 1 source(s) (actual rows=3 loops=1 time=X)",
		"  scan dept: full scan (0 filter(s)) (actual rows=3 loops=1 time=X)",
		"sort: 2 key(s) (actual rows=6 loops=1 time=X)",
		"execution time: X",
		"peak memory: X",
	}, "\n")
	if got != want {
		t.Errorf("group/union EXPLAIN ANALYZE mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestExplainCompoundTail: a compound select's ORDER BY and
// OFFSET/LIMIT print their sort and limit/offset lines after the
// operands, and EXPLAIN ANALYZE gives them their actual rows: the
// heap's LIMIT+OFFSET survivors, then the rows OFFSET/LIMIT keeps.
func TestExplainCompoundTail(t *testing.T) {
	s := seedSets(t)
	const q = `SELECT v FROM a UNION SELECT v FROM b ORDER BY 1 DESC LIMIT 2 OFFSET 1`
	res := mustExec(t, s, "EXPLAIN "+q)
	var lines []string
	for _, r := range res.Rows {
		lines = append(lines, r[0].Str())
	}
	got := strings.Join(lines, "\n")
	want := strings.Join([]string{
		"select: 1 source(s)",
		"  scan a: full scan (0 filter(s))",
		"set operation: UNION",
		"select: 1 source(s)",
		"  scan b: full scan (0 filter(s))",
		"sort: 1 key(s) (top-k when limit+offset <= 1024)",
		"limit/offset",
	}, "\n")
	if got != want {
		t.Errorf("compound EXPLAIN mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
	expectRows(t, col0(t, s, q), []string{"3", "2"})

	got = analyzed(t, s, q)
	want = strings.Join([]string{
		"select: 1 source(s) (actual rows=4 loops=1 time=X)",
		"  scan a: full scan (0 filter(s)) (actual rows=4 loops=1 time=X)",
		"set operation: UNION (actual rows=4 loops=1 time=X)",
		"select: 1 source(s) (actual rows=3 loops=1 time=X)",
		"  scan b: full scan (0 filter(s)) (actual rows=3 loops=1 time=X)",
		"sort: 1 key(s) (top-k when limit+offset <= 1024) (actual rows=3 loops=1 time=X)",
		"limit/offset (actual rows=2 loops=1 time=X)",
		"execution time: X",
		"peak memory: X",
	}, "\n")
	if got != want {
		t.Errorf("compound EXPLAIN ANALYZE mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}

	// Without ORDER BY only the limit/offset line joins the plan.
	got = analyzed(t, s, `SELECT v FROM a UNION ALL SELECT v FROM b LIMIT 2 OFFSET 4`)
	want = strings.Join([]string{
		"select: 1 source(s) (actual rows=4 loops=1 time=X)",
		"  scan a: full scan (0 filter(s)) (actual rows=4 loops=1 time=X)",
		"set operation: UNION ALL (actual rows=7 loops=1 time=X)",
		"select: 1 source(s) (actual rows=3 loops=1 time=X)",
		"  scan b: full scan (0 filter(s)) (actual rows=3 loops=1 time=X)",
		"limit/offset (actual rows=2 loops=1 time=X)",
		"execution time: X",
		"peak memory: X",
	}, "\n")
	if got != want {
		t.Errorf("compound UNION ALL EXPLAIN ANALYZE mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}
