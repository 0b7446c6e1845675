package engine_test

// Durability-policy behavior: fsync accounting per policy, and
// sequence continuity across restart-recover-append cycles (a fresh
// process must continue the numbering of the log and snapshot it
// recovered, or the next recovery reports a bogus sequence gap).

import (
	"testing"
	"time"

	"tip/internal/engine"
)

func walMetric(t *testing.T, db *engine.Database, name string) float64 {
	t.Helper()
	v, _ := db.Metrics().Snapshot().Get(name)
	return v
}

func TestSyncEveryAppendFsyncsBeforeReturn(t *testing.T) {
	db, s := openDir(t, t.TempDir())
	db.SetDurability(engine.SyncEveryAppend, 0)
	mustExec(t, s, `CREATE TABLE t (a INT)`)
	for i := 0; i < 5; i++ {
		mustExec(t, s, `INSERT INTO t VALUES (1)`)
	}
	// Six loggable statements from one session: each one waited for its
	// own fsync (group commit only coalesces concurrent appenders).
	if got := walMetric(t, db, "wal.fsyncs"); got < 6 {
		t.Errorf("wal.fsyncs = %v, want >= 6", got)
	}
	if got := walMetric(t, db, "wal.fsync.latency.count"); got < 6 {
		t.Errorf("fsync latency observations = %v, want >= 6", got)
	}
}

func TestSyncGroupedBatchesFsyncs(t *testing.T) {
	db, s := openDir(t, t.TempDir())
	db.SetDurability(engine.SyncGrouped, time.Millisecond)
	mustExec(t, s, `CREATE TABLE t (a INT)`)
	const inserts = 200
	for i := 0; i < inserts; i++ {
		mustExec(t, s, `INSERT INTO t VALUES (1)`)
	}
	// The background syncer needs a couple of intervals to cover the
	// tail.
	deadline := time.Now().Add(2 * time.Second)
	for walMetric(t, db, "wal.fsyncs") == 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	fsyncs := walMetric(t, db, "wal.fsyncs")
	if fsyncs == 0 {
		t.Fatal("grouped policy never fsynced")
	}
	if appends := walMetric(t, db, "wal.appends"); fsyncs >= appends {
		t.Errorf("wal.fsyncs = %v not batched below wal.appends = %v", fsyncs, appends)
	}
}

// Restart cycles: recover, append more, recover again. Sequence numbers
// must continue across the restart or the second recovery would report
// a gap, and across a checkpoint and the restart after it, where the
// log is empty and the position comes from the snapshot alone.
func TestWALRestartCycleContinuesNumbering(t *testing.T) {
	dir := t.TempDir()
	reopen := func(db *engine.Database) *engine.Session {
		t.Helper()
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		_, s := openDir(t, dir)
		return s
	}

	db1, s1 := openDir(t, dir)
	mustExec(t, s1, `CREATE TABLE t (a INT)`)
	mustExec(t, s1, `INSERT INTO t VALUES (1)`)

	// Second process lifetime: replay, keep logging in the same file.
	s2 := reopen(db1)
	mustExec(t, s2, `INSERT INTO t VALUES (2)`)
	if err := s2.Database().Checkpoint(); err != nil {
		t.Fatal(err)
	}
	mustExec(t, s2, `INSERT INTO t VALUES (3)`)

	// Third lifetime: snapshot + post-checkpoint tail.
	s3 := reopen(s2.Database())
	if got := count(t, s3, `SELECT COUNT(*) FROM t`); got != 3 {
		t.Errorf("rows after two restarts = %d, want 3", got)
	}
	mustExec(t, s3, `INSERT INTO t VALUES (4)`)

	s4 := reopen(s3.Database())
	if got := count(t, s4, `SELECT COUNT(*) FROM t`); got != 4 {
		t.Errorf("rows after three restarts = %d, want 4", got)
	}

	// Fifth lifetime: a checkpoint empties the log, so the reopened
	// database takes its position from the snapshot.
	seq := s4.Database().WALSeq()
	if err := s4.Database().Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s5 := reopen(s4.Database())
	db5 := s5.Database()
	if db5.WALSeq() != seq || db5.WALBase() != seq {
		t.Fatalf("after checkpoint and restart: WALSeq %d, WALBase %d, want both %d", db5.WALSeq(), db5.WALBase(), seq)
	}
	mustExec(t, s5, `INSERT INTO t VALUES (5)`)
	if db5.WALSeq() != seq+1 {
		t.Fatalf("the next commit logged seq %d, want %d", db5.WALSeq(), seq+1)
	}
	s6 := reopen(db5)
	if got := count(t, s6, `SELECT COUNT(*) FROM t`); got != 5 {
		t.Errorf("rows after five restarts = %d, want 5", got)
	}
}
