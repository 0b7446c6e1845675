package exec_test

// A global aggregate whose every aggregate is COUNT(*) reads no row: it
// adds whole batches, a scan that needs no filter counts the period
// index's exact answer (or the table's live rows), and a last
// period-index join level counts each outer row's hits. The row path
// stays the reference: every shape's COUNT(*) must equal the number of
// rows the same query returns when it selects a column, on a bare and
// on an indexed fixture, under two NOWs, after deletes, updates of the
// indexed column and a rollback, and inside a transaction reading its
// own writes.

import (
	"fmt"
	"math/rand"
	"testing"

	"tip/internal/engine"
)

// countShapes pairs a COUNT(*) statement with the statement whose rows
// it counts.
var countShapes = []struct{ count, rows string }{
	// Exact probes, in both argument orders.
	{`SELECT COUNT(*) FROM p WHERE overlaps(valid, '[1998-01-25, 1998-02-03]')`,
		`SELECT k FROM p WHERE overlaps(valid, '[1998-01-25, 1998-02-03]')`},
	{`SELECT COUNT(*) FROM p WHERE overlaps('{[1998-01-01, 1998-01-03], [1998-02-08, NOW]}', valid)`,
		`SELECT k FROM p WHERE overlaps('{[1998-01-01, 1998-01-03], [1998-02-08, NOW]}', valid)`},
	// Rows open to NOW, a window after NOW and one that finds nothing.
	{`SELECT COUNT(*) FROM p WHERE overlaps(valid, '[NOW, NOW]')`,
		`SELECT k FROM p WHERE overlaps(valid, '[NOW, NOW]')`},
	{`SELECT COUNT(*) FROM p WHERE overlaps(valid, '[1998-06-01, 1999-01-01]')`,
		`SELECT k FROM p WHERE overlaps(valid, '[1998-06-01, 1999-01-01]')`},
	{`SELECT COUNT(*) FROM p WHERE overlaps(valid, '[2005-01-01, 2005-01-02]')`,
		`SELECT k FROM p WHERE overlaps(valid, '[2005-01-01, 2005-01-02]')`},
	// The whole table, a filter the index does not answer, a derived
	// table.
	{`SELECT COUNT(*) FROM p`, `SELECT k FROM p`},
	{`SELECT COUNT(*) FROM p WHERE overlaps(valid, '[1998-01-10, 1998-02-20]') AND v > 0`,
		`SELECT k FROM p WHERE overlaps(valid, '[1998-01-10, 1998-02-20]') AND v > 0`},
	{`SELECT COUNT(*) FROM (SELECT k FROM p WHERE v > 1) d`, `SELECT k FROM (SELECT k FROM p WHERE v > 1) d`},
	// Period-index joins: two levels, and three whose first join level
	// is a hash join.
	{`SELECT COUNT(*) FROM q, p WHERE overlaps(p.valid, q.during)`,
		`SELECT p.k FROM q, p WHERE overlaps(p.valid, q.during)`},
	{`SELECT COUNT(*) FROM q, q q2, p WHERE q.k = q2.k AND overlaps(p.valid, q2.during)`,
		`SELECT p.k FROM q, q q2, p WHERE q.k = q2.k AND overlaps(p.valid, q2.during)`},
	// A correlated scalar subquery, summed over its outer rows.
	{`SELECT SUM((SELECT COUNT(*) FROM p WHERE overlaps(p.valid, q.during))) FROM q`,
		`SELECT p.k FROM q, p WHERE overlaps(p.valid, q.during)`},
	// HAVING and ORDER BY over COUNT(*); the window is never empty.
	{`SELECT COUNT(*) FROM p WHERE overlaps(valid, '[1998-01-01, 1998-02-01]') HAVING COUNT(*) > 0 ORDER BY COUNT(*)`,
		`SELECT k FROM p WHERE overlaps(valid, '[1998-01-01, 1998-02-01]')`},
}

func TestCountMatchesRows(t *testing.T) {
	plain, indexed := newDB(t), newDB(t)
	for _, s := range []*engine.Session{plain, indexed} {
		seedParity(t, s, rand.New(rand.NewSource(81)), 300)
		mustExec(t, s, `INSERT INTO p VALUES
			(1, 2, '{[1998-01-20, NOW]}', '1998-01-20'), (2, 3, '{[1998-02-10, NOW]}', '1998-02-10'),
			(3, 1, '{[1998-01-02, 1998-01-04], [1998-02-20, NOW]}', '1998-01-02')`)
		mustExec(t, s, `CREATE TABLE q (k INT, during Period)`)
		mustExec(t, s, `INSERT INTO q VALUES
			(0, '[1998-01-03, 1998-01-20]'), (1, '[1998-01-10, 1998-02-05]'), (1, '[1998-02-01, 1998-02-02]'),
			(NULL, '[1998-01-01, 1998-03-01]'), (4, '[1998-02-15, NOW]')`)
	}
	mustExec(t, indexed, `CREATE INDEX pv ON p (valid) USING PERIOD`)
	mustExec(t, indexed, `CREATE INDEX qd ON q (during) USING PERIOD`)

	check := func(when string) {
		t.Helper()
		for _, now := range []string{"1998-02-05", "1998-03-20"} {
			answers := map[string]int64{}
			for name, s := range map[string]*engine.Session{"plain": plain, "indexed": indexed} {
				mustExec(t, s, fmt.Sprintf(`SET NOW = '%s'`, now))
				for _, c := range countShapes {
					before := counter(s, "planner.agg.count")
					got := mustExec(t, s, c.count)
					counted := counter(s, "planner.agg.count") - before
					want := len(mustExec(t, s, c.rows).Rows)
					if moved := counter(s, "planner.agg.count") - before - counted; counted != 1 || moved != 0 {
						t.Errorf("%s: planner.agg.count moved %v for COUNT(*) and %v for its rows, want 1 and 0", c.count, counted, moved)
					}
					if len(got.Rows) != 1 || got.Rows[0][0].Int() != int64(want) {
						t.Fatalf("%s, %s fixture at NOW %s: COUNT(*) = %v, the rows number %d", when, name, now, grid(got), want)
					}
					if n, ok := answers[c.count]; ok && n != int64(want) {
						t.Fatalf("%s at NOW %s: %s counts %d on one fixture and %d on the other", when, now, c.count, n, want)
					}
					answers[c.count] = int64(want)
				}
			}
		}
	}

	check("fresh")
	for _, step := range []struct{ when, sql string }{
		{"after DELETE", `DELETE FROM p WHERE v = 0`},
		{"after an UPDATE of valid", `UPDATE p SET valid = '{[1998-01-26, 1998-01-27]}' WHERE k = 1`},
		{"inside a transaction", `BEGIN; DELETE FROM p WHERE k = 2; UPDATE p SET valid = '{[1998-02-10, NOW]}' WHERE k = 3;
			INSERT INTO p VALUES (5, 1, '{[1998-01-30, 1998-02-02]}', NULL)`},
		{"after ROLLBACK", `ROLLBACK`},
	} {
		for _, s := range []*engine.Session{plain, indexed} {
			if _, err := s.ExecScript(step.sql, nil); err != nil {
				t.Fatalf("%s: %v", step.sql, err)
			}
		}
		check(step.when)
	}
}
