package engine

// The log is a statement log, so replaying it rebuilds the live state
// only if frames reach it in the order their statements applied, and
// each writer statement replays against what it read live. These tests
// put a second session's statement between a first statement's apply
// and its log append (the afterApply hook) and require live and
// recovered state to agree. The second statement gets up to a fixed
// wait to finish there; correct locking keeps it out however long it
// waits, so the wait only decides how surely a broken engine fails.

import (
	"sync"
	"testing"
	"time"
)

// interleave runs first on one session and, while first sits between
// its apply and its log append, runs second on another.
func interleave(t *testing.T, db *Database, first, second string) {
	t.Helper()
	a, b := db.NewSession(), db.NewSession()
	done := make(chan error, 1)
	var once sync.Once
	finished := false
	db.afterApply = func(s *Session) {
		if s != a {
			return
		}
		once.Do(func() {
			go func() {
				_, err := b.Exec(second, nil)
				done <- err
			}()
			select {
			case err := <-done:
				finished = true
				if err != nil {
					t.Errorf("%s: %v", second, err)
				}
			case <-time.After(100 * time.Millisecond):
			}
		})
	}
	execSQL(t, a, first)
	if !finished {
		if err := <-done; err != nil {
			t.Errorf("%s: %v", second, err)
		}
	}
	db.afterApply = nil
}

// liveMatchesLog closes db and requires a recovery of its directory to
// hold as many rows of table as db held live.
func liveMatchesLog(t *testing.T, db *Database, table string) {
	t.Helper()
	live := rowCount(t, db.NewSession(), table)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if got := rowCount(t, openEngine(t, db.wal.dir, nil).NewSession(), table); got != live {
		t.Errorf("%s: live COUNT(*) = %d, recovered = %d", table, live, got)
	}
}

// Same table: a DELETE must not apply between an INSERT's apply and
// its log append, or the log holds the DELETE first.
func TestLogOrderSameTable(t *testing.T) {
	db := openEngine(t, t.TempDir(), nil)
	execSQL(t, db.NewSession(), `CREATE TABLE t (a INT)`)
	interleave(t, db, `INSERT INTO t VALUES (1)`, `DELETE FROM t`)
	liveMatchesLog(t, db, "t")
}

// Across tables: a write to u must not land between the read of u by
// INSERT INTO t SELECT ... FROM u and that statement's log append, or
// replay reads a u the statement never saw.
func TestLogOrderCrossTable(t *testing.T) {
	db := openEngine(t, t.TempDir(), nil)
	s := db.NewSession()
	execSQL(t, s, `CREATE TABLE t (a INT)`)
	execSQL(t, s, `CREATE TABLE u (a INT)`)
	execSQL(t, s, `INSERT INTO u VALUES (1)`)
	interleave(t, db, `INSERT INTO t SELECT a FROM u`, `INSERT INTO u VALUES (2)`)
	liveMatchesLog(t, db, "t")
}
