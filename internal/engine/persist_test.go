package engine_test

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"tip/internal/engine"
)

// Regression: a snapshot that fails to decode mid-stream used to leave
// the catalog, tables and locks partially populated, so the retry with
// a good snapshot died with "load into non-empty database". Loading now
// decodes into staging state and installs atomically.
func TestLoadFailureLeavesDatabaseRetryable(t *testing.T) {
	dir := t.TempDir()
	db, s := openDir(t, dir)
	mustExec(t, s, `CREATE TABLE t (a INT, valid Element)`)
	mustExec(t, s, `INSERT INTO t VALUES (1, '{[1999-01-01, NOW]}')`)
	mustExec(t, s, `INSERT INTO t VALUES (2, NULL)`)
	mustExec(t, s, `CREATE INDEX tv ON t (valid) USING PERIOD`)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(filepath.Join(dir, "snapshot.tipdb"))
	if err != nil {
		t.Fatal(err)
	}
	// Cut the snapshot inside the row section.
	bad := good[:len(good)-10]
	badDir := t.TempDir()
	if err := os.WriteFile(filepath.Join(badDir, "snapshot.tipdb"), bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := engine.Open(db.Registry(), badDir); !errors.Is(err, engine.ErrBadSnapshot) {
		t.Fatalf("open with a truncated snapshot: err = %v, want ErrBadSnapshot", err)
	}

	db2, _ := newDB(t)
	if err := db2.LoadReplicaSnapshot(bad); !errors.Is(err, engine.ErrBadSnapshot) {
		t.Fatalf("load of truncated snapshot: err = %v, want ErrBadSnapshot", err)
	}
	// The failed load must not have left staging debris behind.
	if err := db2.LoadReplicaSnapshot(good); err != nil {
		t.Fatalf("retry load after failure: %v", err)
	}
	s2 := db2.NewSession()
	if got := count(t, s2, `SELECT COUNT(*) FROM t`); got != 2 {
		t.Errorf("rows after retried load = %d", got)
	}
	// The index came back through the retried load too.
	if got := count(t, s2, `SELECT COUNT(*) FROM t WHERE overlaps(valid, '[1999-06-01, 1999-06-02]')`); got != 1 {
		t.Errorf("index lookup after retried load = %d", got)
	}
}

// A checkpoint's snapshot lands atomically: no .tmp debris after
// success.
func TestCheckpointLeavesNoTempFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snapshot.tipdb")
	db, s := openDir(t, dir)
	mustExec(t, s, `CREATE TABLE t (a INT)`)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("temp file left behind: %v", err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Errorf("snapshot missing: %v", err)
	}
}
