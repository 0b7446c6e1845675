package engine_test

// The WAL as a replication feed: the tail cursor over the log file
// (start position, half-written frames, Checkpoint truncation), the
// append signal it waits on, and the flushed/synced gauges that report
// shipping progress.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"tip/internal/engine"
)

// tailSeqs drains every complete frame the tail holds and returns their
// seqs, checking each body's checksum.
func tailSeqs(t *testing.T, tail *engine.WALTail) []uint64 {
	t.Helper()
	var seqs []uint64
	for {
		body, err := tail.Next()
		if err != nil {
			t.Fatal(err)
		}
		if body == nil {
			return seqs
		}
		seq, _, err := engine.DecodeWALFrameBody(body)
		if err != nil {
			t.Fatal(err)
		}
		seqs = append(seqs, seq)
	}
}

func openTail(t *testing.T, db *engine.Database, after uint64) *engine.WALTail {
	t.Helper()
	tail, err := db.TailWAL(after)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = tail.Close() })
	return tail
}

func TestWALTailFromSeqKeepsItsOffset(t *testing.T) {
	db, s := openDir(t, t.TempDir())
	mustExec(t, s, `CREATE TABLE t (a INT)`)
	for i := 1; i <= 4; i++ {
		mustExec(t, s, fmt.Sprintf(`INSERT INTO t VALUES (%d)`, i))
	}
	tail := openTail(t, db, 2)
	if got := fmt.Sprint(tailSeqs(t, tail)); got != "[3 4 5]" {
		t.Fatalf("frames after seq 2 = %s, want [3 4 5]", got)
	}
	mustExec(t, s, `INSERT INTO t VALUES (5)`)
	if got := fmt.Sprint(tailSeqs(t, tail)); got != "[6]" {
		t.Fatalf("frames after the next append = %s, want [6]", got)
	}
}

// TestWALTailWaitsForHalfWrittenFrame grows a two-frame log file by
// hand from every cut point: a frame whose bytes have only partly
// landed is not shipped, and is shipped whole, once, after the rest
// arrive.
func TestWALTailWaitsForHalfWrittenFrame(t *testing.T) {
	src := t.TempDir()
	_, s := openDir(t, src)
	mustExec(t, s, `CREATE TABLE t (a INT)`)
	mustExec(t, s, `INSERT INTO t VALUES (1)`)
	full, err := os.ReadFile(filepath.Join(src, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	n, k := binary.Uvarint(full)
	firstEnd := k + int(n)

	// The bytes land in the log of a database that appends nothing.
	dir := t.TempDir()
	db, _ := openDir(t, dir)
	path := filepath.Join(dir, "wal.log")
	for cut := 1; cut < len(full); cut++ {
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		tail := openTail(t, db, 0)
		want := "[]"
		if cut >= firstEnd {
			want = "[1]"
		}
		if got := fmt.Sprint(tailSeqs(t, tail)); got != want {
			t.Fatalf("cut at byte %d: shipped %s before the rest landed, want %s", cut, got, want)
		}
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(full[cut:]); err != nil {
			t.Fatal(err)
		}
		_ = f.Close()
		want = "[1 2]"
		if cut >= firstEnd {
			want = "[2]"
		}
		if got := fmt.Sprint(tailSeqs(t, tail)); got != want {
			t.Fatalf("cut at byte %d: shipped %s after the rest landed, want %s", cut, got, want)
		}
	}
}

// TestWALTailAppendSignal checks the channel a caught-up tail waits
// on: one channel for every waiter, closed by the next append, and by
// Close.
func TestWALTailAppendSignal(t *testing.T) {
	db, s := openDir(t, t.TempDir())
	mustExec(t, s, `CREATE TABLE t (a INT)`)
	tail := openTail(t, db, 0)
	closed := func(ch <-chan struct{}) bool {
		select {
		case <-ch:
			return true
		default:
			return false
		}
	}

	ch := tail.Appended()
	if ch == nil || closed(ch) {
		t.Fatal("append signal closed before any append")
	}
	if tail.Appended() != ch {
		t.Fatal("waiting tails got different channels")
	}
	mustExec(t, s, `INSERT INTO t VALUES (1)`)
	if !closed(ch) {
		t.Fatal("append did not close the signal")
	}

	ch = tail.Appended()
	if closed(ch) {
		t.Fatal("fresh signal is already closed")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if !closed(ch) {
		t.Fatal("Close did not close the signal")
	}
	if tail.Appended() != nil {
		t.Fatal("append signal of a closed database is not nil")
	}
}

// TestWALTailAcrossCheckpoint: a tail that had read every frame when a
// Checkpoint truncated the log carries on from offset 0; a tail
// behind the truncation, or opened below the new base, gets ErrWALGone.
func TestWALTailAcrossCheckpoint(t *testing.T) {
	db, s := openDir(t, t.TempDir())
	mustExec(t, s, `CREATE TABLE t (a INT)`)
	for i := 0; i < 3; i++ {
		mustExec(t, s, fmt.Sprintf(`INSERT INTO t VALUES (%d)`, i))
	}
	caughtUp := openTail(t, db, 0)
	if got := fmt.Sprint(tailSeqs(t, caughtUp)); got != "[1 2 3 4]" {
		t.Fatalf("before checkpoint: %s", got)
	}
	behind := openTail(t, db, 0)
	if body, err := behind.Next(); err != nil || body == nil {
		t.Fatalf("behind.Next = %v, %v", body, err)
	}

	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Before anything is appended: the caught-up tail has nothing to
	// ship, and the one behind learns at once that it never will.
	if got := fmt.Sprint(tailSeqs(t, caughtUp)); got != "[]" {
		t.Fatalf("right after checkpoint: %s, want []", got)
	}
	if _, err := behind.Next(); !errors.Is(err, engine.ErrWALGone) {
		t.Fatalf("tail behind the checkpoint: err = %v, want ErrWALGone", err)
	}
	mustExec(t, s, `INSERT INTO t VALUES (3)`)
	mustExec(t, s, `INSERT INTO t VALUES (4)`)
	if got := fmt.Sprint(tailSeqs(t, caughtUp)); got != "[5 6]" {
		t.Fatalf("after checkpoint: %s, want [5 6]", got)
	}
	if _, err := db.TailWAL(3); !errors.Is(err, engine.ErrWALGone) {
		t.Fatalf("tail opened below the base: err = %v, want ErrWALGone", err)
	}
}

func TestWALSeqGauges(t *testing.T) {
	db, s := openDir(t, t.TempDir())
	mustExec(t, s, `CREATE TABLE t (a INT)`)
	mustExec(t, s, `INSERT INTO t VALUES (1)`)

	snap := db.Metrics().Snapshot()
	if got, ok := snap.Get("wal.flushed_seq"); !ok || got != 2 {
		t.Fatalf("wal.flushed_seq = %v (present=%v), want 2", got, ok)
	}
	if _, ok := snap.Get("wal.synced_seq"); !ok {
		t.Fatal("wal.synced_seq gauge missing")
	}
}

func TestReadOnlyRejectsWrites(t *testing.T) {
	db, s := newDB(t)
	mustExec(t, s, `CREATE TABLE t (a INT)`)
	db.SetReadOnly(true)
	if _, err := s.Exec(`INSERT INTO t VALUES (1)`, nil); err == nil || err != engine.ErrReadOnly {
		t.Fatalf("write on read-only db: err = %v, want ErrReadOnly", err)
	}
	// Reads still work.
	if got := count(t, s, `SELECT COUNT(*) FROM t`); got != 0 {
		t.Fatalf("read on read-only db = %d", got)
	}
	// Applying a primary's commit group bypasses the gate: that is how
	// the stream applies.
	primary, ps := openDir(t, t.TempDir())
	mustExec(t, ps, `CREATE TABLE t (a INT)`)
	mustExec(t, ps, `INSERT INTO t VALUES (1)`)
	tail, err := primary.TailWAL(1)
	if err != nil {
		t.Fatal(err)
	}
	defer tail.Close()
	body, err := tail.Next()
	if err != nil || body == nil {
		t.Fatalf("tail: %v, %v", body, err)
	}
	_, payload, err := engine.DecodeWALFrameBody(body)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.ApplyWALPayload(payload); err != nil {
		t.Fatalf("replica apply: %v", err)
	}
	if got := count(t, s, `SELECT COUNT(*) FROM t`); got != 1 {
		t.Fatalf("rows after the replica apply = %d, want 1", got)
	}
}
