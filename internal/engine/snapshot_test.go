package engine

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// snapshotBytes encodes db's current state as a snapshot file's bytes.
func snapshotBytes(tb testing.TB, db *Database) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := db.capture(0).writeTo(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// splitFrames cuts a snapshot file's bytes into its whole frames,
// length prefix included.
func splitFrames(tb testing.TB, data []byte) [][]byte {
	tb.Helper()
	var frames [][]byte
	for len(data) > 0 {
		n, k := binary.Uvarint(data)
		if k <= 0 || uint64(len(data)-k) < n {
			tb.Fatalf("snapshot bytes end inside a frame")
		}
		frames = append(frames, data[:k+int(n)])
		data = data[k+int(n):]
	}
	return frames
}

// bodies returns a loader source over frame bodies held in memory.
func bodies(frames [][]byte) func() ([]byte, error) {
	return func() ([]byte, error) {
		if len(frames) == 0 {
			return nil, nil
		}
		body := frames[0]
		frames = frames[1:]
		return body, nil
	}
}

// snapshotFixture fills a durable database with three tables, one of
// them empty, and a period index and a hash index: under a lowered
// frame bound its snapshot takes many frames.
func snapshotFixture(t *testing.T) (*Database, *Session) {
	t.Helper()
	db := openEngine(t, t.TempDir(), nil)
	s := db.NewSession()
	execSQL(t, s, `CREATE TABLE t (a INT, name VARCHAR(20), valid Element)`)
	execSQL(t, s, `CREATE TABLE u (a INT)`)
	execSQL(t, s, `CREATE TABLE empty (a INT)`)
	for i := 0; i < 60; i++ {
		execSQL(t, s, fmt.Sprintf(`INSERT INTO t VALUES (%d, 'n%d', '{[1999-01-01, NOW]}')`, i, i))
		execSQL(t, s, fmt.Sprintf(`INSERT INTO u VALUES (%d)`, i))
	}
	execSQL(t, s, `DELETE FROM u WHERE a < 10`)
	execSQL(t, s, `CREATE INDEX tv ON t (valid) USING PERIOD`)
	execSQL(t, s, `CREATE INDEX tn ON t (name)`)
	return db, s
}

// Every frame of a checkpoint's snapshot carries at most the frame
// bound, the run is numbered S+1..S+k after the log position S it
// captures, and it ends with the one empty frame; Open brings back
// every row and index.
func TestCheckpointFramesWithinBound(t *testing.T) {
	defer func(n int) { snapshotFrameBytes = n }(snapshotFrameBytes)
	snapshotFrameBytes = 256
	db, _ := snapshotFixture(t)
	pos := db.WALSeq()
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(db.wal.dir, snapshotFile))
	if err != nil {
		t.Fatal(err)
	}
	frames := splitFrames(t, data)
	if len(frames) < 10 {
		t.Fatalf("snapshot of %d bytes took %d frames, want >= 10 under a %d-byte bound", len(data), len(frames), snapshotFrameBytes)
	}
	for i, frame := range frames {
		_, k := binary.Uvarint(frame)
		fr, err := decodeWALFrame(frame[k:])
		if err != nil {
			t.Fatalf("frame %d: %v", i+1, err)
		}
		if fr.seq != pos+uint64(i+1) {
			t.Fatalf("frame %d is seq %d, want seq %d", i+1, fr.seq, pos+uint64(i+1))
		}
		if len(fr.payload) > snapshotFrameBytes {
			t.Fatalf("frame %d payload is %d bytes, bound %d", i+1, len(fr.payload), snapshotFrameBytes)
		}
		if last := i == len(frames)-1; last != (len(fr.payload) == 0) {
			t.Fatalf("frame %d of %d has a %d-byte payload", i+1, len(frames), len(fr.payload))
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2 := openEngine(t, db.wal.dir, nil)
	s2 := db2.NewSession()
	if got := rowCount(t, s2, "t"); got != 60 {
		t.Fatalf("reopened t has %d rows, want 60", got)
	}
	if got := rowCount(t, s2, "u"); got != 50 {
		t.Fatalf("reopened u has %d rows, want 50", got)
	}
	if n := len(db2.cat.TableIndexes("t")); n != 2 {
		t.Fatalf("reopened t has %d indexes, want 2", n)
	}
}

// A replication snapshot streams under the same bound, and a fresh
// database that loads the stream holds the same rows at the same ids.
func TestReplicationSnapshotFramesWithinBound(t *testing.T) {
	defer func(n int) { snapshotFrameBytes = n }(snapshotFrameBytes)
	snapshotFrameBytes = 256
	db, s := snapshotFixture(t)
	snap := db.ReplicationSnapshot()
	if snap.Seq() != db.WALSeq() {
		t.Fatalf("snapshot seq %d, log at %d", snap.Seq(), db.WALSeq())
	}
	var stream [][]byte
	if err := snap.Encode(func(body []byte) error {
		if _, payload, err := DecodeWALFrameBody(body); err != nil || len(payload) > snapshotFrameBytes {
			t.Fatalf("frame %d: %d-byte payload, err %v", len(stream)+1, len(payload), err)
		}
		stream = append(stream, bytes.Clone(body))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(stream) < 10 {
		t.Fatalf("stream took %d frames, want >= 10", len(stream))
	}
	replica := New(db.reg)
	if err := replica.LoadReplicaSnapshot(bodies(stream)); err != nil {
		t.Fatal(err)
	}
	for _, table := range []string{"t", "u", "empty"} {
		q := `SELECT * FROM ` + table + ` ORDER BY a`
		if live, got := resultString(t, s, q), resultString(t, replica.NewSession(), q); live != got {
			t.Errorf("table %s: primary %s, loaded %s", table, live, got)
		}
	}
}

func resultString(t *testing.T, s *Session, q string) string {
	t.Helper()
	res, err := s.Exec(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, r := range res.Rows {
		for _, v := range r {
			b.WriteString(v.Format())
			b.WriteByte(' ')
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// A snapshot cut at any frame boundary short of its end frame, with
// bytes after the end frame, with a frame missing or renumbered, or
// with any one byte changed is refused, and a database that
// refuses it is left as it was.
func TestSnapshotDamageRefused(t *testing.T) {
	defer func(n int) { snapshotFrameBytes = n }(snapshotFrameBytes)
	snapshotFrameBytes = 256
	db, _ := snapshotFixture(t)
	good := snapshotBytes(t, db)
	frames := splitFrames(t, good)
	refused := func(what string, data []byte) {
		t.Helper()
		if _, err := New(db.reg).readSnapshot(bytes.NewReader(data)); !errors.Is(err, ErrBadSnapshot) {
			t.Fatalf("%s: err = %v, want ErrBadSnapshot", what, err)
		}
	}
	cut := 0
	for i, frame := range frames {
		refused(fmt.Sprintf("cut before frame %d of %d", i+1, len(frames)), good[:cut])
		cut += len(frame)
	}
	end := frames[len(frames)-1]
	refused("an end frame twice", append(bytes.Clone(good), end...))
	refused("a byte after the end frame", append(bytes.Clone(good), 0))
	refused("frame 2 missing", bytes.Join(append(frames[:1:1], frames[2:]...), nil))
	_, k := binary.Uvarint(frames[1])
	fr, err := decodeWALFrame(frames[1][k:])
	if err != nil {
		t.Fatal(err)
	}
	moved := appendWALFrame(nil, fr.seq+1, fr.payload)
	refused("frame 2 renumbered", bytes.Join(append(append(frames[:1:1], moved), frames[2:]...), nil))
	for i := 0; i < len(good); i += 7 {
		flipped := bytes.Clone(good)
		flipped[i] ^= 0x20
		refused(fmt.Sprintf("byte %d flipped", i), flipped)
	}

	// A live database keeps its contents through a refused load.
	live := New(db.reg)
	s := live.NewSession()
	execSQL(t, s, `CREATE TABLE keep (a INT)`)
	execSQL(t, s, `INSERT INTO keep VALUES (1)`)
	if err := live.LoadReplicaSnapshot(bodies(bodyList(frames[:len(frames)-1]))); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("load without the end frame: err = %v, want ErrBadSnapshot", err)
	}
	if got := rowCount(t, s, "keep"); got != 1 {
		t.Fatalf("after a refused load: %d rows, want 1", got)
	}
	if _, ok := live.cat.Table("t"); ok {
		t.Fatal("a refused load installed its tables")
	}
}

// bodyList strips the length prefixes off whole frames.
func bodyList(frames [][]byte) [][]byte {
	out := make([][]byte, len(frames))
	for i, f := range frames {
		_, k := binary.Uvarint(f)
		out[i] = f[k:]
	}
	return out
}

// A file in the single-group format this version replaced is refused
// by name.
func TestTIPDB3SnapshotRefused(t *testing.T) {
	dir := t.TempDir()
	old := append(binary.AppendUvarint([]byte("TIPDB3\n"), 1), recCreateTable)
	if err := os.WriteFile(filepath.Join(dir, snapshotFile), old, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(testRegistry(t), dir); !errors.Is(err, ErrBadSnapshot) || !strings.Contains(err.Error(), "TIPDB3") {
		t.Fatalf("Open of a TIPDB3 snapshot: err = %v, want ErrBadSnapshot naming TIPDB3", err)
	}
}

// ReplicationSnapshot holds the checkpoint gate only while it
// captures: a durable autocommit INSERT completes while the encoder is
// paused mid-stream, and the stream still reflects exactly the
// captured position.
func TestReplicationSnapshotEncodesOutsideGate(t *testing.T) {
	defer func(n int) { snapshotFrameBytes = n }(snapshotFrameBytes)
	snapshotFrameBytes = 256
	db, s := snapshotFixture(t)
	snap := db.ReplicationSnapshot()
	var stream [][]byte
	err := snap.Encode(func(body []byte) error {
		stream = append(stream, bytes.Clone(body))
		if len(stream) != 2 {
			return nil
		}
		// Paused between frames 2 and 3: another session commits.
		done := make(chan error, 1)
		go func() {
			w := db.NewSession()
			defer w.Close()
			_, err := w.Exec(`INSERT INTO u VALUES (1000)`, nil)
			done <- err
		}()
		select {
		case err := <-done:
			return err
		case <-time.After(10 * time.Second):
			return errors.New("a commit waited for the snapshot encoder")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if db.WALSeq() != snap.Seq()+1 {
		t.Fatalf("log at seq %d after the mid-stream commit, snapshot at %d", db.WALSeq(), snap.Seq())
	}
	replica := New(db.reg)
	if err := replica.LoadReplicaSnapshot(bodies(stream)); err != nil {
		t.Fatal(err)
	}
	if got, live := rowCount(t, replica.NewSession(), "u"), rowCount(t, s, "u"); got != 50 || live != 51 {
		t.Fatalf("loaded u has %d rows (want 50, the captured state), primary %d (want 51)", got, live)
	}
}
