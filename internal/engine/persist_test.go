package engine_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"tip/internal/engine"
)

// frameSource returns a loader source over a snapshot file's bytes,
// one frame body per call; it ends at a frame cut short.
func frameSource(data []byte) func() ([]byte, error) {
	return func() ([]byte, error) {
		n, k := binary.Uvarint(data)
		if k <= 0 || uint64(len(data)-k) < n {
			return nil, nil
		}
		body := data[k : k+int(n)]
		data = data[k+int(n):]
		return body, nil
	}
}

// A snapshot from an earlier checkpoint beside the log a later
// checkpoint left does not meet it: the commits between the two
// checkpoints are in neither file. Open refuses the pair instead of
// coming back without them.
func TestStaleSnapshotBesideNewerLogRefused(t *testing.T) {
	dir := t.TempDir()
	db, s := openDir(t, dir)
	mustExec(t, s, `CREATE TABLE t (a INT)`)
	mustExec(t, s, `INSERT INTO t VALUES (1)`)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "snapshot.tipdb")
	stale, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, s, `INSERT INTO t VALUES (2)`)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	mustExec(t, s, `INSERT INTO t VALUES (3)`)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, stale, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := engine.Open(db.Registry(), dir); !errors.Is(err, engine.ErrWAL) {
		t.Fatalf("Open of a stale snapshot beside a newer log: err = %v, want ErrWAL", err)
	}
}

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
	// Cut the snapshot inside its records.
	bad := good[:len(good)-10]
	badDir := t.TempDir()
	if err := os.WriteFile(filepath.Join(badDir, "snapshot.tipdb"), bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := engine.Open(db.Registry(), badDir); !errors.Is(err, engine.ErrBadSnapshot) {
		t.Fatalf("open with a truncated snapshot: err = %v, want ErrBadSnapshot", err)
	}

	db2, _ := newDB(t)
	if err := db2.LoadReplicaSnapshot(frameSource(bad)); !errors.Is(err, engine.ErrBadSnapshot) {
		t.Fatalf("load of truncated snapshot: err = %v, want ErrBadSnapshot", err)
	}
	// The failed load must not have left staging debris behind.
	if err := db2.LoadReplicaSnapshot(frameSource(good)); err != nil {
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

// One changed byte inside a row value of the snapshot file fails Open
// with ErrBadSnapshot: every frame is checksummed. The unframed format
// this replaced had no checksum, and the changed value loaded.
func TestSnapshotFlippedByteRefused(t *testing.T) {
	dir := t.TempDir()
	db, s := openDir(t, dir)
	mustExec(t, s, `CREATE TABLE t (a INT, name VARCHAR(20))`)
	mustExec(t, s, `INSERT INTO t VALUES (1, 'aspirin')`)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "snapshot.tipdb")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	i := bytes.Index(data, []byte("aspirin"))
	if i < 0 {
		t.Fatal("row value not found in the snapshot")
	}
	data[i] = 'b'
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	db2, err := engine.Open(db.Registry(), dir)
	if err == nil {
		s2 := db2.NewSession()
		res := mustExec(t, s2, `SELECT name FROM t WHERE a = 1`)
		t.Fatalf("Open of a snapshot with a changed byte succeeded; the row reads %v", res.Rows)
	}
	if !errors.Is(err, engine.ErrBadSnapshot) {
		t.Fatalf("Open of a snapshot with a changed byte: err = %v, want ErrBadSnapshot", err)
	}
}

// A snapshot cut exactly at a frame boundary, its end frame missing,
// fails Open the same way.
func TestSnapshotWithoutEndFrameRefused(t *testing.T) {
	dir := t.TempDir()
	db, s := openDir(t, dir)
	mustExec(t, s, `CREATE TABLE t (a INT)`)
	mustExec(t, s, `INSERT INTO t VALUES (1)`)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "snapshot.tipdb")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Whole frames up to the last one, which is the end frame.
	var whole []int
	for off := 0; off < len(data); {
		n, k := binary.Uvarint(data[off:])
		if k <= 0 {
			t.Fatal("bad frame length")
		}
		off += k + int(n)
		whole = append(whole, off)
	}
	if len(whole) < 2 || whole[len(whole)-1] != len(data) {
		t.Fatalf("snapshot frames end at %v of %d bytes", whole, len(data))
	}
	if err := os.WriteFile(path, data[:whole[len(whole)-2]], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := engine.Open(db.Registry(), dir); !errors.Is(err, engine.ErrBadSnapshot) {
		t.Fatalf("Open of a snapshot without its end frame: err = %v, want ErrBadSnapshot", err)
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
