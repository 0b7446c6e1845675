package engine_test

// Resource-governance tests: the SET STATEMENT_MEMORY surface, the
// budget-abort contract (typed error, all-or-nothing writes, reusable
// session) and the accounting-leak invariant — after every statement,
// however it ended, the session and engine-wide accounts must read
// zero, because Reset returns the statement's whole balance to the
// parent. Run under -race these also check the account's atomics.

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"tip/internal/engine"
)

// seedMem loads n rows with keys, values and elements — enough variety
// to drive every buffering operator.
func seedMem(t *testing.T, s *engine.Session, n int) {
	t.Helper()
	mustExec(t, s, `CREATE TABLE m (k INT, v INT, valid Element)`)
	vals := make([]string, 0, n)
	for i := 0; i < n; i++ {
		lo := 1 + i%28
		hi := 1 + (i*5)%28
		vals = append(vals, fmt.Sprintf("(%d, %d, '[1998-01-%02d, 1998-02-%02d]')",
			i%7, i, lo, hi))
	}
	mustExec(t, s, "INSERT INTO m VALUES "+strings.Join(vals, ", "))
}

// drained fails the test unless both the session-level (via the global
// parent) and engine-wide accounts are back to zero.
func drained(t *testing.T, db *engine.Database, when string) {
	t.Helper()
	if used := db.MemAccount().Used(); used != 0 {
		t.Errorf("%s: global account holds %d bytes, want 0", when, used)
	}
}

func TestSetStatementMemory(t *testing.T) {
	db, s := newDB(t)
	seedMem(t, s, 50)

	mustExec(t, s, `SET STATEMENT_MEMORY = '1MB'`)
	if got := s.StmtMem(); got != 1<<20 {
		t.Errorf("StmtMem after '1MB' = %d", got)
	}
	mustExec(t, s, `SET STATEMENT_MEMORY = 4096`)
	if got := s.StmtMem(); got != 4096 {
		t.Errorf("StmtMem after 4096 = %d", got)
	}
	mustExec(t, s, `SET STATEMENT_MEMORY = DEFAULT`)
	if got := s.StmtMem(); got != 0 {
		t.Errorf("StmtMem after DEFAULT = %d", got)
	}
	s.SetDefaultStmtMem(2048)
	mustExec(t, s, `SET STATEMENT_MEMORY = 0`)
	mustExec(t, s, `SET STATEMENT_MEMORY = DEFAULT`)
	if got := s.StmtMem(); got != 2048 {
		t.Errorf("StmtMem after DEFAULT with server default = %d", got)
	}
	for _, bad := range []string{
		`SET STATEMENT_MEMORY = -1`,
		`SET STATEMENT_MEMORY = NULL`,
		`SET STATEMENT_MEMORY = 'lots'`,
		`SET STATEMENT_MEMORY = '64TB'`,
	} {
		if _, err := s.Exec(bad, nil); err == nil {
			t.Errorf("%s accepted", bad)
		}
	}
	drained(t, db, "after SET statements")
}

func TestBudgetAbortTypedAndReusable(t *testing.T) {
	db, s := newDB(t)
	seedMem(t, s, 200)

	mustExec(t, s, `SET STATEMENT_MEMORY = '32KB'`)
	_, err := s.Exec(`SELECT a.k, a.v, b.k, b.v FROM m a, m b ORDER BY a.v, b.v`, nil)
	if !errors.Is(err, engine.ErrMemory) {
		t.Fatalf("cross-product sort under 32KB: err = %v, want ErrMemory", err)
	}
	drained(t, db, "after budget abort")
	// Overshoot past the budget is bounded by the poll cadence: a batch
	// of charges plus the 64KiB runtime-local flush threshold, not the
	// megabytes the statement was heading for.
	if peak := s.MemPeak(); peak <= 0 || peak > 256<<10 {
		t.Errorf("aborted statement peak = %d, want (0, 256KiB]", peak)
	}
	// The session stays usable, and lifting the budget lets it run.
	mustExec(t, s, `SET STATEMENT_MEMORY = 0`)
	res := mustExec(t, s, `SELECT COUNT(*) FROM m`)
	if res.Rows[0][0].Int() != 200 {
		t.Errorf("count = %d", res.Rows[0][0].Int())
	}
	if c := counterValue(db, "stmt.mem_exceeded"); c < 1 {
		t.Errorf("stmt.mem_exceeded = %v, want >= 1", c)
	}
	drained(t, db, "after recovery")
}

// TestBudgetAbortWriteAtomicity: a memory abort inside a write applies
// nothing, exactly like cancellation.
func TestBudgetAbortWriteAtomicity(t *testing.T) {
	db, s := newDB(t)
	seedMem(t, s, 200)
	mustExec(t, s, `CREATE TABLE sink (k INT, v INT, k2 INT, v2 INT)`)

	mustExec(t, s, `SET STATEMENT_MEMORY = '32KB'`)
	_, err := s.Exec(`INSERT INTO sink
		SELECT a.k, a.v, b.k, b.v FROM m a, m b ORDER BY a.v DESC, b.v DESC`, nil)
	if !errors.Is(err, engine.ErrMemory) {
		t.Fatalf("err = %v, want ErrMemory", err)
	}
	mustExec(t, s, `SET STATEMENT_MEMORY = 0`)
	if n := count(t, s, `SELECT COUNT(*) FROM sink`); n != 0 {
		t.Errorf("aborted INSERT left %d rows", n)
	}
	drained(t, db, "after write abort")
}

// TestMemAccountingLeakInvariant drives an operator matrix to every
// kind of ending — success, memory abort, timeout, interrupt, rollback
// — and demands the accounts drain to zero each time.
func TestMemAccountingLeakInvariant(t *testing.T) {
	db, s := newDB(t)
	seedMem(t, s, 300)
	// mi is m behind a hash index on k and a period index on valid, so
	// the paper's Q4 over it reads its periods from the period index.
	mustExec(t, s, `CREATE TABLE mi (k INT, v INT, valid Element)`)
	mustExec(t, s, `CREATE INDEX mi_k ON mi (k)`)
	mustExec(t, s, `CREATE INDEX mi_valid ON mi (valid) USING PERIOD`)
	mustExec(t, s, `INSERT INTO mi SELECT k, v, valid FROM m`)
	const indexQ4 = `SELECT k, length(group_union(valid)) FROM mi GROUP BY k`
	plan := ""
	for _, r := range mustExec(t, s, "EXPLAIN "+indexQ4).Rows {
		plan += r[0].Str() + "\n"
	}
	if !strings.Contains(plan, "coalesce: hash index on k, period index on valid, length fused") {
		t.Fatalf("%s does not read the period index:\n%s", indexQ4, plan)
	}

	matrix := []string{
		// sort (full + top-k)
		`SELECT k, v FROM m ORDER BY v DESC, k`,
		`SELECT k, v FROM m ORDER BY v LIMIT 7 OFFSET 2`,
		// hash join + nested loop
		`SELECT a.k, b.v FROM m a, m b WHERE a.k = b.k ORDER BY a.k, b.v LIMIT 20`,
		// aggregation + DISTINCT aggregate
		`SELECT k, SUM(v), COUNT(DISTINCT v) FROM m GROUP BY k ORDER BY k`,
		// DISTINCT select
		`SELECT DISTINCT k, v FROM m`,
		// coalesce (grouped element union), and Q4 from the indexes
		`SELECT k, group_union(valid) FROM m GROUP BY k ORDER BY k`,
		indexQ4,
		// set operations
		`SELECT k FROM m UNION SELECT v FROM m ORDER BY 1 LIMIT 5`,
		`SELECT k FROM m EXCEPT SELECT 3 FROM m`,
		// write path
		`UPDATE m SET v = v + 0 WHERE k = 1`,
	}

	run := func(name string, prep func(), after func()) {
		for _, q := range matrix {
			prep()
			_, _ = s.Exec(q, nil)
			if after != nil {
				after()
			}
			drained(t, db, name+": "+q)
		}
	}

	// Success (no budget).
	run("success", func() { s.SetDefaultStmtMem(0) }, nil)
	// Memory abort (tiny budget: most of the matrix trips it).
	run("mem-abort", func() { s.SetDefaultStmtMem(8 << 10) }, nil)
	// Timeout racing the executor.
	run("timeout", func() {
		s.SetDefaultStmtMem(0)
		s.SetDefaultStmtTimeout(1 * time.Nanosecond)
	}, func() { s.SetDefaultStmtTimeout(0) })
	// Interrupt landing mid-statement (or pending, aborting the next).
	run("interrupt", func() {
		s.SetDefaultStmtMem(0)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() { defer wg.Done(); s.Interrupt() }()
		wg.Wait()
	}, nil)

	// Rollback: buffered reads inside an explicit transaction, undone.
	s.SetDefaultStmtMem(0)
	mustExec(t, s, `BEGIN`)
	mustExec(t, s, `UPDATE m SET v = v + 1`)
	mustExec(t, s, `SELECT k, v FROM m ORDER BY v DESC LIMIT 3`)
	mustExec(t, s, `ROLLBACK`)
	drained(t, db, "after rollback")
}

// TestAccountingCoverage proves the accountant sees at least 90% of a
// buffering query's real intermediate state: the accounted peak of a
// cross-product sort must come within 10% of (in practice, above) an
// analytic floor on the bytes the operators must hold.
func TestAccountingCoverage(t *testing.T) {
	db, s := newDB(t)
	const n = 120
	seedMem(t, s, n)

	mustExec(t, s, `SELECT a.k, a.v, b.k, b.v FROM m a, m b ORDER BY a.v, b.v, a.k, b.k`)
	peak := s.MemPeak()
	// Floor: the projected cross product alone is n² rows × 4 values
	// (64B each, as the accountant sizes them) — ignoring the join
	// buffers, sort keys and row headers also resident at the sort.
	floor := int64(n) * int64(n) * 4 * 64
	if peak < floor*9/10 {
		t.Errorf("accounted peak %d < 90%% of intermediate-state floor %d", peak, floor)
	}
	drained(t, db, "after coverage query")
}

// TestStreamedScanUnderBudget: a scan hands its rows to the consumer in
// batches, so COUNT(*) over more rows than 32KB of row headers would
// hold (3,000 rows, 72KB) passes under a 32KB budget, through a full
// scan and through an exact period-index probe. The cross-product sort,
// which really holds its input, still busts the same budget.
func TestStreamedScanUnderBudget(t *testing.T) {
	db, s := newDB(t)
	const n = 3000
	seedMem(t, s, n)
	mustExec(t, s, `CREATE INDEX m_valid ON m (valid) USING PERIOD`)
	const probe = `SELECT COUNT(*) FROM m WHERE overlaps(valid, '[1998-01-01, 1998-12-31]')`
	plan := ""
	for _, r := range mustExec(t, s, "EXPLAIN "+probe).Rows {
		plan += r[0].Str() + "\n"
	}
	if !strings.Contains(plan, "period index on valid, exact overlaps") {
		t.Fatalf("the probe does not read the period index:\n%s", plan)
	}

	mustExec(t, s, `SET STATEMENT_MEMORY = '32KB'`)
	for _, q := range []string{`SELECT COUNT(*) FROM m`, probe} {
		if got := count(t, s, q); got != n {
			t.Errorf("%s = %d under 32KB, want %d", q, got, n)
		}
		t.Logf("%s: peak %d bytes", q, s.MemPeak())
		drained(t, db, q)
	}
	_, err := s.Exec(`SELECT a.k, a.v, b.k, b.v FROM m a, m b ORDER BY a.v, b.v`, nil)
	if !errors.Is(err, engine.ErrMemory) {
		t.Fatalf("cross-product sort under 32KB: err = %v, want ErrMemory", err)
	}
	drained(t, db, "after budget abort")
}

func counterValue(db *engine.Database, name string) float64 {
	for _, st := range db.Metrics().Snapshot() {
		if st.Name == name {
			return st.Value
		}
	}
	return 0
}
