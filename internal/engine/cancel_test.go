package engine_test

// Statement cancellation and timeouts at the engine layer: typed
// errors, write atomicity under cancellation, session reusability, and
// the SET STATEMENT_TIMEOUT surface.

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"tip/internal/engine"
	"tip/internal/exec"
)

// fill grows table t to about n rows by repeated self-insertion.
func fill(t *testing.T, s *engine.Session, n int) {
	t.Helper()
	var sb strings.Builder
	sb.WriteString(`INSERT INTO t VALUES (0)`)
	for i := 1; i < 256; i++ {
		fmt.Fprintf(&sb, ", (%d)", i)
	}
	mustExec(t, s, sb.String())
	for rows := 256; rows < n; rows *= 2 {
		mustExec(t, s, `INSERT INTO t SELECT a FROM t`)
	}
}

func TestInterruptPendingAbortsNextStatement(t *testing.T) {
	_, s := newDB(t)
	mustExec(t, s, `CREATE TABLE t (a INT)`)
	fill(t, s, 1024)
	before := count(t, s, `SELECT COUNT(*) FROM t`)

	// An Interrupt with no statement running stays pending and aborts
	// the next statement — the wire contract for a MsgCancel racing a
	// query that has not reached the executor yet.
	s.Interrupt()
	_, err := s.Exec(`INSERT INTO t SELECT a FROM t`, nil)
	if !errors.Is(err, exec.ErrCancelled) {
		t.Fatalf("want ErrCancelled, got %v", err)
	}
	if got := count(t, s, `SELECT COUNT(*) FROM t`); got != before {
		t.Fatalf("cancelled insert applied rows: %d -> %d", before, got)
	}
	// One cancel aborts at most one statement: the session is reusable.
	if got := count(t, s, `SELECT COUNT(*) FROM t`); got != before {
		t.Fatalf("post-cancel count = %d, want %d", got, before)
	}
}

func TestInterruptMidScan(t *testing.T) {
	db, s := newDB(t)
	mustExec(t, s, `CREATE TABLE t (a INT)`)
	fill(t, s, 1<<16)
	before := count(t, s, `SELECT COUNT(*) FROM t`)

	// Race an Interrupt against a scan-heavy aggregate until one lands
	// mid-flight; every cancelled run must leave the table untouched and
	// the session usable.
	cancelled := false
	for attempt := 0; attempt < 200 && !cancelled; attempt++ {
		done := make(chan error, 1)
		go func() {
			_, err := s.Exec(`SELECT COUNT(*), SUM(a) FROM t WHERE a >= 0`, nil)
			done <- err
		}()
		time.Sleep(time.Duration(attempt%20) * 100 * time.Microsecond)
		s.Interrupt()
		err := <-done
		switch {
		case err == nil:
			// Statement won the race; try again.
		case errors.Is(err, exec.ErrCancelled):
			cancelled = true
		default:
			t.Fatalf("unexpected error: %v", err)
		}
	}
	if !cancelled {
		t.Fatal("no attempt cancelled mid-scan")
	}
	if got := count(t, s, `SELECT COUNT(*) FROM t`); got != before {
		t.Fatalf("cancelled read changed the table: %d -> %d", before, got)
	}
	if v, _ := db.Metrics().Snapshot().Get("stmt.cancelled"); v < 1 {
		t.Errorf("stmt.cancelled = %v, want >= 1", v)
	}
}

func TestCancelledWritesApplyNothing(t *testing.T) {
	_, s := newDB(t)
	mustExec(t, s, `CREATE TABLE t (a INT)`)
	fill(t, s, 1024)
	before := count(t, s, `SELECT COUNT(*) FROM t`)

	for _, sql := range []string{
		`INSERT INTO t SELECT a FROM t`,
		`UPDATE t SET a = a + 1000000`,
		`DELETE FROM t WHERE a >= 0`,
	} {
		s.Interrupt()
		if _, err := s.Exec(sql, nil); !errors.Is(err, exec.ErrCancelled) {
			t.Fatalf("%s: want ErrCancelled, got %v", sql, err)
		}
		if got := count(t, s, `SELECT COUNT(*) FROM t`); got != before {
			t.Fatalf("%s: cancelled write applied rows: %d -> %d", sql, before, got)
		}
		if got := count(t, s, `SELECT COUNT(*) FROM t WHERE a >= 1000000`); got != 0 {
			t.Fatalf("%s: cancelled write mutated rows", sql)
		}
	}
}

func TestStatementTimeout(t *testing.T) {
	db, s := newDB(t)
	mustExec(t, s, `CREATE TABLE t (a INT)`)
	fill(t, s, 1<<17)

	mustExec(t, s, `SET STATEMENT_TIMEOUT = 1`)
	if s.StmtTimeout() != time.Millisecond {
		t.Fatalf("StmtTimeout = %v, want 1ms", s.StmtTimeout())
	}
	var timedOut bool
	// The aggregate over 128k rows should take well over 1ms, but don't
	// assume: repeat a few times and require at least one timeout.
	for i := 0; i < 20 && !timedOut; i++ {
		_, err := s.Exec(`SELECT COUNT(*), SUM(a) FROM t WHERE a >= 0`, nil)
		if err != nil {
			if !errors.Is(err, exec.ErrTimeout) {
				t.Fatalf("want ErrTimeout, got %v", err)
			}
			timedOut = true
		}
	}
	if !timedOut {
		t.Fatal("statement never timed out under a 1ms cap")
	}
	if v, _ := db.Metrics().Snapshot().Get("stmt.timeout"); v < 1 {
		t.Errorf("stmt.timeout = %v, want >= 1", v)
	}

	// DEFAULT reverts to the server-installed cap (none here).
	mustExec(t, s, `SET STATEMENT_TIMEOUT = DEFAULT`)
	if s.StmtTimeout() != 0 {
		t.Fatalf("StmtTimeout after DEFAULT = %v, want 0", s.StmtTimeout())
	}
	mustExec(t, s, `SELECT COUNT(*) FROM t`)

	// Duration strings are accepted; garbage and negatives are not.
	mustExec(t, s, `SET STATEMENT_TIMEOUT = '2s'`)
	if s.StmtTimeout() != 2*time.Second {
		t.Fatalf("StmtTimeout = %v, want 2s", s.StmtTimeout())
	}
	if _, err := s.Exec(`SET STATEMENT_TIMEOUT = 'bogus'`, nil); err == nil {
		t.Error("bogus duration accepted")
	}
	if _, err := s.Exec(`SET STATEMENT_TIMEOUT = -5`, nil); err == nil {
		t.Error("negative timeout accepted")
	}
}

// A script statement runs the same lifecycle as Exec: the cap set by
// the script's first statement arms a timer for its second.
func TestScriptHonoursStatementTimeout(t *testing.T) {
	db, s := newDB(t)
	mustExec(t, s, `CREATE TABLE t (a INT)`)
	fill(t, s, 2048)
	_, err := s.ExecScript(`SET STATEMENT_TIMEOUT = 1;
		SELECT COUNT(*) FROM t x, t y WHERE x.a + y.a >= 0`, nil)
	if !errors.Is(err, exec.ErrTimeout) {
		t.Fatalf("4M-pair cross join under a 1ms cap: err = %v, want ErrTimeout", err)
	}
	if v, _ := db.Metrics().Snapshot().Get("stmt.timeout"); v < 1 {
		t.Errorf("stmt.timeout = %v, want >= 1", v)
	}
	// The timeout consumed the token: the session is usable again.
	if _, err := s.ExecScript(`SET STATEMENT_TIMEOUT = DEFAULT; SELECT COUNT(*) FROM t`, nil); err != nil {
		t.Fatalf("script after a timed-out script: %v", err)
	}
}

// One Interrupt aborts at most one statement, through ExecScript as
// through Exec: the script it lands in stops, the next one runs.
func TestScriptCancelDoesNotLeak(t *testing.T) {
	_, s := newDB(t)
	mustExec(t, s, `CREATE TABLE t (a INT)`)
	fill(t, s, 1024)
	const script = `INSERT INTO t SELECT a FROM t; SELECT COUNT(*) FROM t`

	s.Interrupt()
	if _, err := s.ExecScript(script, nil); !errors.Is(err, exec.ErrCancelled) {
		t.Fatalf("script after Interrupt: err = %v, want ErrCancelled", err)
	}
	if got := count(t, s, `SELECT COUNT(*) FROM t`); got != 1024 {
		t.Fatalf("cancelled script applied rows: 1024 -> %d", got)
	}
	res, err := s.ExecScript(script, nil)
	if err != nil {
		t.Fatalf("second script still cancelled: %v", err)
	}
	if got := res.Rows[0][0].Int(); got != 2048 {
		t.Fatalf("second script counted %d rows, want 2048", got)
	}
}

func TestSetDefaultStmtTimeout(t *testing.T) {
	_, s := newDB(t)
	s.SetDefaultStmtTimeout(250 * time.Millisecond)
	if s.StmtTimeout() != 250*time.Millisecond {
		t.Fatalf("StmtTimeout = %v, want 250ms", s.StmtTimeout())
	}
	// A session override wins until DEFAULT restores the server cap.
	mustExec(t, s, `SET STATEMENT_TIMEOUT = '1s'`)
	if s.StmtTimeout() != time.Second {
		t.Fatalf("StmtTimeout = %v, want 1s", s.StmtTimeout())
	}
	mustExec(t, s, `SET STATEMENT_TIMEOUT = DEFAULT`)
	if s.StmtTimeout() != 250*time.Millisecond {
		t.Fatalf("StmtTimeout after DEFAULT = %v, want 250ms", s.StmtTimeout())
	}
}
