package engine_test

// Durability-policy behavior: fsync accounting per policy, and epoch /
// sequence continuity across restart-recover-append cycles (a fresh
// process appending to a survivor log must continue its numbering, or
// the next recovery reports a bogus sequence gap).

import (
	"path/filepath"
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
	wal := filepath.Join(t.TempDir(), "wal.log")
	db, s := newWALDB(t, wal)
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
	wal := filepath.Join(t.TempDir(), "wal.log")
	db, s := newWALDB(t, wal)
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
// a gap; epochs must continue across a checkpoint in the middle.
func TestWALRestartCycleContinuesNumbering(t *testing.T) {
	dir := t.TempDir()
	wal := filepath.Join(dir, "wal.log")
	snap := filepath.Join(dir, "snap.tipdb")

	db1, s1 := newWALDB(t, wal)
	mustExec(t, s1, `CREATE TABLE t (a INT)`)
	mustExec(t, s1, `INSERT INTO t VALUES (1)`)
	if err := db1.DisableWAL(); err != nil {
		t.Fatal(err)
	}

	// Second process lifetime: replay, keep logging in the same file.
	s2 := recoverDB(t, wal)
	db2 := s2.Database()
	if err := db2.EnableWAL(wal); err != nil {
		t.Fatal(err)
	}
	mustExec(t, s2, `INSERT INTO t VALUES (2)`)
	if err := db2.Checkpoint(snap); err != nil {
		t.Fatal(err)
	}
	mustExec(t, s2, `INSERT INTO t VALUES (3)`)
	if err := db2.DisableWAL(); err != nil {
		t.Fatal(err)
	}

	// Third lifetime: snapshot + post-checkpoint tail.
	db3, _ := newDB(t)
	if err := db3.Load(snap); err != nil {
		t.Fatal(err)
	}
	if err := db3.ReplayWAL(wal); err != nil {
		t.Fatal(err)
	}
	s3 := db3.NewSession()
	if got := count(t, s3, `SELECT COUNT(*) FROM t`); got != 3 {
		t.Errorf("rows after two restarts = %d, want 3", got)
	}
	if err := db3.EnableWAL(wal); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = db3.DisableWAL() })
	mustExec(t, s3, `INSERT INTO t VALUES (4)`)
	if err := db3.DisableWAL(); err != nil {
		t.Fatal(err)
	}

	db4, _ := newDB(t)
	if err := db4.Load(snap); err != nil {
		t.Fatal(err)
	}
	if err := db4.ReplayWAL(wal); err != nil {
		t.Fatal(err)
	}
	if got := count(t, db4.NewSession(), `SELECT COUNT(*) FROM t`); got != 4 {
		t.Errorf("rows after three restarts = %d, want 4", got)
	}
}
