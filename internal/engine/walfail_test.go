package engine

// White-box test of WAL append failure. When the log write fails AFTER a
// statement has applied in memory, the engine must (a) return the result
// together with an error wrapping ErrWALFailed, (b) keep the in-memory
// change, (c) refuse to log any later statement (sticky failure, so the
// on-disk log stays a consistent replayable prefix), and (d) heal on
// Checkpoint. Needs package engine to reach the wal's file handle and
// to wrap it in a fault-injection sink.

import (
	"errors"
	"os"
	"testing"
	"time"

	"tip/internal/iofault"
	"tip/internal/sql/parse"
)

func newFailDB(t *testing.T) (*Database, *Session, string) {
	t.Helper()
	dir := t.TempDir()
	db := openEngine(t, dir, nil)
	return db, db.NewSession(), dir
}

func execSQL(t *testing.T, s *Session, sql string) {
	t.Helper()
	if _, err := s.Exec(sql, nil); err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
}

func rowCount(t *testing.T, s *Session, table string) int64 {
	t.Helper()
	res, err := s.Exec(`SELECT COUNT(*) FROM `+table, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res.Rows[0][0].Int()
}

func TestWALAppendFailureKeepsMemoryConsistent(t *testing.T) {
	db, s, dir := newFailDB(t)
	execSQL(t, s, `CREATE TABLE t (a INT)`)
	execSQL(t, s, `INSERT INTO t VALUES (1)`)

	// Break the log: close its file out from under the writer. The next
	// append's flush fails.
	if err := db.wal.f.Close(); err != nil {
		t.Fatal(err)
	}

	res, err := s.Exec(`INSERT INTO t VALUES (2)`, nil)
	if !errors.Is(err, ErrWALFailed) {
		t.Fatalf("err = %v, want ErrWALFailed", err)
	}
	if res == nil || res.Affected != 1 {
		t.Fatalf("result alongside WAL failure = %+v, want the applied result", res)
	}
	// The statement applied in memory even though it could not be logged.
	if got := rowCount(t, s, "t"); got != 2 {
		t.Errorf("in-memory rows = %d, want 2", got)
	}
	// The failure is sticky: later loggable statements apply but keep
	// reporting it; reads are unaffected.
	if _, err := s.Exec(`INSERT INTO t VALUES (3)`, nil); !errors.Is(err, ErrWALFailed) {
		t.Errorf("second append after failure: err = %v, want ErrWALFailed", err)
	}
	if got := rowCount(t, s, "t"); got != 3 {
		t.Errorf("in-memory rows = %d, want 3", got)
	}

	// The on-disk log is a consistent prefix: replay sees only the
	// statements appended before the failure.
	db2 := openEngine(t, dir, nil)
	if got := rowCount(t, db2.NewSession(), "t"); got != 1 {
		t.Errorf("replayed prefix rows = %d, want 1", got)
	}
}

func TestWALAppendFailureHealedByCheckpoint(t *testing.T) {
	dir := t.TempDir()
	var sink *iofault.File
	db := openEngine(t, dir, func(f *os.File) walSink {
		sink = iofault.Wrap(f)
		return sink
	})
	s := db.NewSession()
	execSQL(t, s, `CREATE TABLE t (a INT)`)
	sink.SetWriteBudget(0, iofault.FailWrites) // a full disk
	if _, err := s.Exec(`INSERT INTO t VALUES (1)`, nil); !errors.Is(err, ErrWALFailed) {
		t.Fatalf("err = %v, want ErrWALFailed", err)
	}

	// A checkpoint that cannot truncate the log reports the I/O error;
	// once the file works again, a checkpoint clears the sticky failure
	// and logging resumes.
	sink.FailTruncate(true)
	if err := db.Checkpoint(); err == nil {
		t.Fatal("checkpoint over a failing WAL file should fail")
	}
	sink.FailTruncate(false)
	sink.SetWriteBudget(-1, iofault.FailWrites)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	execSQL(t, s, `INSERT INTO t VALUES (2)`)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Recovery from the checkpoint snapshot plus the healed log sees the
	// full post-checkpoint history.
	if got := rowCount(t, openEngine(t, dir, nil).NewSession(), "t"); got != 2 {
		t.Errorf("recovered rows = %d, want 2", got)
	}
}

// A failed background fsync under SyncGrouped is sticky, as a failed
// strict fsync is: the frames it covered may not be on disk, so the next
// commit reports ErrWALFailed and no later fsync counts them durable.
func TestGroupedFsyncFailureSticks(t *testing.T) {
	var sink *iofault.File
	db := openEngine(t, t.TempDir(), func(f *os.File) walSink {
		sink = iofault.Wrap(f)
		return sink
	})
	db.SetDurability(SyncGrouped, time.Hour) // the test runs the ticks
	s := db.NewSession()
	execSQL(t, s, `CREATE TABLE t (a INT)`) // frame 1
	sink.FailSync(true)
	execSQL(t, s, `INSERT INTO t VALUES (1)`) // frame 2, never fsynced
	db.syncTick(db.wal)
	db.syncTick(db.wal)
	sink.FailSync(false)
	if _, err := s.Exec(`INSERT INTO t VALUES (2)`, nil); !errors.Is(err, ErrWALFailed) {
		t.Fatalf("commit after a failed grouped fsync: err = %v, want ErrWALFailed", err)
	}
	db.syncTick(db.wal)
	if synced := db.wal.syncedSeq.Load(); synced >= 2 {
		t.Fatalf("wal.synced_seq = %d: frame 2, whose fsync failed, counts as durable", synced)
	}
}

// Parsing sanity for the script-splitting used by ExecScript's WAL
// logging: each part carries the exact source text of its statement.
func TestParseScriptPartsSourceText(t *testing.T) {
	parts, err := parse.ParseScriptParts(`
		CREATE TABLE t (a INT);
		INSERT INTO t VALUES (1); -- trailing comment
		SELECT *
		  FROM t
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 3 {
		t.Fatalf("parts = %d, want 3", len(parts))
	}
	want := []string{"CREATE TABLE t (a INT)", "INSERT INTO t VALUES (1)", "SELECT *\n\t\t  FROM t"}
	for i, w := range want {
		if parts[i].SQL != w {
			t.Errorf("part %d SQL = %q, want %q", i, parts[i].SQL, w)
		}
	}
}
