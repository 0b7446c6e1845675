package exec_test

import (
	"fmt"
	"strings"
	"testing"
)

func TestExplainScanChoices(t *testing.T) {
	s := newDB(t)
	mustExec(t, s, `CREATE TABLE t (a INT, valid Element)`)
	mustExec(t, s, `CREATE INDEX ta ON t (a)`)
	mustExec(t, s, `CREATE INDEX tv ON t (valid) USING PERIOD`)

	explain := func(sql string) string {
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

	out := explain(`SELECT * FROM t WHERE a = 1`)
	if !strings.Contains(out, "hash index on a") {
		t.Errorf("hash index not chosen:\n%s", out)
	}
	out = explain(`SELECT * FROM t WHERE overlaps(valid, '[1999-01-01, 1999-02-01]')`)
	if !strings.Contains(out, "period index on valid") {
		t.Errorf("period index not chosen:\n%s", out)
	}
	out = explain(`SELECT * FROM t WHERE a > 1`)
	if !strings.Contains(out, "full scan") {
		t.Errorf("range predicate should full-scan:\n%s", out)
	}
}

func TestExplainJoinStrategies(t *testing.T) {
	s := newDB(t)
	seedEmp(t, s)
	explain := func(sql string) string {
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

	out := explain(`SELECT 1 FROM emp e, dept d WHERE e.dno = d.dno`)
	if !strings.Contains(out, "hash join") {
		t.Errorf("equi join should hash:\n%s", out)
	}
	out = explain(`SELECT 1 FROM emp a, emp b WHERE a.sal < b.sal`)
	if !strings.Contains(out, "nested loop") {
		t.Errorf("inequality join should nested-loop:\n%s", out)
	}
	out = explain(`SELECT 1 FROM dept d LEFT JOIN emp e ON d.dno = e.dno`)
	if !strings.Contains(out, "left outer") {
		t.Errorf("left join missing:\n%s", out)
	}
	out = explain(`SELECT dno, COUNT(*) FROM emp GROUP BY dno ORDER BY dno LIMIT 2`)
	if !strings.Contains(out, "aggregate: 1 group expr(s), 1 aggregate(s)") ||
		!strings.Contains(out, "sort: 1 key(s)") || !strings.Contains(out, "limit/offset") {
		t.Errorf("pipeline notes missing:\n%s", out)
	}
	out = explain(`SELECT dno FROM emp UNION SELECT dno FROM dept`)
	if !strings.Contains(out, "set operation: UNION") {
		t.Errorf("set op note missing:\n%s", out)
	}
	// Subqueries indent.
	out = explain(`SELECT 1 FROM dept d WHERE EXISTS (SELECT 1 FROM emp e WHERE e.dno = d.dno)`)
	if !strings.Contains(out, "  select:") {
		t.Errorf("subquery indentation missing:\n%s", out)
	}
}

// TestExplainMovesNoPlanCounter: a plain EXPLAIN binds the statement but
// runs no plan, so it moves no planner.* counter, while running the
// statement and EXPLAIN ANALYZE, which runs it, each move the same ones
// by the same amounts. The statements pick a hash probe, a period
// probe, a full scan, the coalesce operator by map, by hash index and
// from the period index, the global COUNT(*) and the top-K heap.
func TestExplainMovesNoPlanCounter(t *testing.T) {
	s := newDB(t)
	mustExec(t, s, `CREATE TABLE t (a INT, s VARCHAR, valid Element)`)
	mustExec(t, s, `CREATE INDEX ta ON t (a)`)
	mustExec(t, s, `CREATE INDEX tv ON t (valid) USING PERIOD`)
	mustExec(t, s, `INSERT INTO t VALUES (1, 'x', '[1999-01-01, 1999-02-01]'), (2, 'y', NULL), (1, NULL, '{}')`)
	planner := func() map[string]float64 {
		out := map[string]float64{}
		for _, st := range s.Database().Metrics().Snapshot() {
			if strings.HasPrefix(st.Name, "planner.") {
				out[st.Name] = st.Value
			}
		}
		return out
	}
	moved := func(before, after map[string]float64) map[string]float64 {
		out := map[string]float64{}
		for name, v := range after {
			if d := v - before[name]; d != 0 {
				out[name] = d
			}
		}
		return out
	}
	for _, q := range []string{
		`SELECT * FROM t WHERE a = 1`,
		`SELECT a FROM t WHERE overlaps(valid, '[1999-01-01, 1999-01-05]')`,
		`SELECT s, COUNT(*) FROM t GROUP BY s`,
		`SELECT a, length(group_union(valid)) FROM t GROUP BY a`,
		`SELECT a, MAX(s) FROM t GROUP BY a`,
		`SELECT COUNT(*) FROM t`,
		`SELECT a FROM t ORDER BY s LIMIT 2`,
	} {
		before := planner()
		mustExec(t, s, "EXPLAIN "+q)
		if m := moved(before, planner()); len(m) != 0 {
			t.Errorf("EXPLAIN %s moved %v", q, m)
		}
		before = planner()
		mustExec(t, s, q)
		ran := moved(before, planner())
		if len(ran) == 0 {
			t.Errorf("%s moved no planner counter", q)
		}
		before = planner()
		mustExec(t, s, "EXPLAIN ANALYZE "+q)
		if m := moved(before, planner()); fmt.Sprint(m) != fmt.Sprint(ran) {
			t.Errorf("EXPLAIN ANALYZE %s moved %v, running it %v", q, m, ran)
		}
	}
}
