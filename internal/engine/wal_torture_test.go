package engine

// Crash-torture tests for the durability subsystem. The contract under
// test: whatever prefix of the WAL survives a crash, recovery must
// reconstruct exactly a prefix of the committed statement history —
// never a statement twice (the checkpoint crash window), never damaged
// SQL (checksums), never a statement out of order (sequence numbers).
//
// The log is cut at every frame boundary and at random intra-frame
// offsets; a fault-injection sink (internal/iofault) additionally
// drives the append path itself into short writes and silent "power
// loss" drops.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tip/internal/blade"
	"tip/internal/core"
	"tip/internal/iofault"
	"tip/internal/temporal"
	"tip/internal/types"
)

func testRegistry(t testing.TB) *blade.Registry {
	t.Helper()
	reg := blade.NewRegistry()
	if _, err := core.Register(reg); err != nil {
		t.Fatal(err)
	}
	return reg
}

var tortureNow = temporal.MustDate(1999, 11, 12)

func freshEngine(t testing.TB) *Database {
	t.Helper()
	db := New(testRegistry(t))
	db.SetClock(func() temporal.Chronon { return tortureNow })
	return db
}

// openEngine opens the durable database in dir under the test clock,
// passing its log file through sink when one is given, and closes it
// when the test ends.
func openEngine(t testing.TB, dir string, sink func(*os.File) walSink) *Database {
	t.Helper()
	if sink == nil {
		sink = func(f *os.File) walSink { return f }
	}
	db, err := open(testRegistry(t), dir, sink)
	if err != nil {
		t.Fatal(err)
	}
	db.SetClock(func() temporal.Chronon { return tortureNow })
	t.Cleanup(func() { _ = db.Close() })
	return db
}

// readFile returns the named file of a database directory.
func readFile(t testing.TB, dir, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// tortureWorkload runs the canonical history against s: statement 0
// creates the table, statement i inserts row i. After k statements the
// table holds exactly {1..k-1}.
func tortureWorkload(t *testing.T, s *Session, from, to int) {
	t.Helper()
	if from == 0 {
		execSQL(t, s, `CREATE TABLE t (a INT)`)
		from = 1
	}
	for i := from; i < to; i++ {
		if _, err := s.Exec(`INSERT INTO t VALUES (:a)`, map[string]types.Value{
			"a": types.NewInt(int64(i)),
		}); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
}

// tortureLog runs the first stmts statements of the canonical history on
// a durable database and returns its log.
func tortureLog(t *testing.T, stmts int) []byte {
	t.Helper()
	dir := t.TempDir()
	db := openEngine(t, dir, nil)
	tortureWorkload(t, db.NewSession(), 0, stmts)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	return readFile(t, dir, walFile)
}

// frameBoundaries returns the byte offsets at the end of each complete
// frame in a log (offset 0 excluded).
func frameBoundaries(t *testing.T, data []byte) []int {
	t.Helper()
	var out []int
	off := 0
	for off < len(data) {
		n, k := binary.Uvarint(data[off:])
		if k <= 0 || off+k+int(n) > len(data) {
			t.Fatalf("log does not parse as whole frames at offset %d", off)
		}
		off += k + int(n)
		out = append(out, off)
	}
	return out
}

// assertExactPrefix checks that the table holds exactly the rows
// {1..m-1} that the first m committed statements produced: nothing
// missing, nothing doubled. m == 0 means the CREATE TABLE itself must
// not have survived.
func assertExactPrefix(t *testing.T, db *Database, m int, ctx string) {
	t.Helper()
	s := db.NewSession()
	res, err := s.Exec(`SELECT a FROM t`, nil)
	if m == 0 {
		if err == nil {
			t.Fatalf("%s: table exists but no statement committed", ctx)
		}
		return
	}
	if err != nil {
		t.Fatalf("%s: %v", ctx, err)
	}
	seen := make(map[int64]int, len(res.Rows))
	for _, r := range res.Rows {
		seen[r[0].Int()]++
	}
	if len(res.Rows) != m-1 {
		t.Fatalf("%s: %d rows, want %d", ctx, len(res.Rows), m-1)
	}
	for i := 1; i < m; i++ {
		if seen[int64(i)] != 1 {
			t.Fatalf("%s: row %d appears %d times", ctx, i, seen[int64(i)])
		}
	}
}

// recoverLog opens a fresh directory holding log as its wal.log (and
// snap, if any, as its snapshot) — the disk image a crash left — and
// returns the database with Open's error.
func recoverLog(t *testing.T, snap, log []byte) (*Database, error) {
	t.Helper()
	dir := t.TempDir()
	if snap != nil {
		if err := os.WriteFile(filepath.Join(dir, snapshotFile), snap, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, walFile), log, 0o644); err != nil {
		t.Fatal(err)
	}
	db, err := open(testRegistry(t), dir, func(f *os.File) walSink { return f })
	if err != nil {
		return nil, err
	}
	db.SetClock(func() temporal.Chronon { return tortureNow })
	t.Cleanup(func() { _ = db.Close() })
	return db, nil
}

// replayDamaged replays a damaged log into an in-memory engine through
// the reader Open uses and returns the engine as far as replay got,
// with the error that stopped it. Open over the same log must fail with
// that same error.
func replayDamaged(t *testing.T, log []byte) (*Database, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), walFile)
	if err := os.WriteFile(path, log, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	db := freshEngine(t)
	_, _, err = db.replay(f, 0)
	if _, openErr := recoverLog(t, nil, log); openErr == nil || openErr.Error() != err.Error() {
		t.Fatalf("Open err = %v, replay err = %v", openErr, err)
	}
	return db, err
}

// TestCrashTortureEveryCutPoint cuts a 210-statement log at every frame
// boundary and at random intra-frame offsets. Every boundary cut must
// recover exactly that many statements; every intra-frame cut is a torn
// tail that must recover cleanly to the frames before it, and a
// statement appended after that recovery must survive the next one.
func TestCrashTortureEveryCutPoint(t *testing.T) {
	const stmts = 210
	dir := t.TempDir()
	db := openEngine(t, dir, nil)
	tortureWorkload(t, db.NewSession(), 0, stmts)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	log := readFile(t, dir, walFile)
	bounds := frameBoundaries(t, log)
	if len(bounds) != stmts {
		t.Fatalf("frames = %d, want %d", len(bounds), stmts)
	}

	// Every frame boundary, including the empty log.
	for k, cut := range append([]int{0}, bounds...) {
		rec, err := recoverLog(t, nil, log[:cut])
		if err != nil {
			t.Fatalf("boundary cut %d (frame %d): %v", cut, k, err)
		}
		assertExactPrefix(t, rec, k, "boundary cut")
		_ = rec.Close()
	}

	// Random intra-frame offsets: torn tails.
	cuts := 120
	if testing.Short() {
		cuts = 30
	}
	r := rand.New(rand.NewSource(4711))
	for range cuts {
		cut := 1 + r.Intn(len(log)-1)
		// Frames completed strictly before the cut.
		k := 0
		for k < len(bounds) && bounds[k] <= cut {
			k++
		}
		rec, err := recoverLog(t, nil, log[:cut])
		if err != nil {
			t.Fatalf("intra-frame cut %d: %v", cut, err)
		}
		assertExactPrefix(t, rec, k, "intra-frame cut")
		// Open cut the torn bytes off: the next statement of the
		// history follows the last whole frame, and the next open
		// recovers it.
		tortureWorkload(t, rec.NewSession(), k, k+1)
		if err := rec.Close(); err != nil {
			t.Fatal(err)
		}
		again := openEngine(t, rec.wal.dir, nil)
		assertExactPrefix(t, again, k+1, "append after a torn tail")
		_ = again.Close()
	}
}

// TestCheckpointCrashWindowNoDoubleApply forces the crash window the
// snapshot's position closes: the snapshot is written but the log
// truncate fails. Recovery from that snapshot plus the stale log must not
// double-apply the pre-checkpoint statements, and every cut of the
// combined log must still recover to an exact prefix.
func TestCheckpointCrashWindowNoDoubleApply(t *testing.T) {
	const half, stmts = 51, 101
	dir := t.TempDir()
	var sink *iofault.File
	db := openEngine(t, dir, func(f *os.File) walSink {
		sink = iofault.Wrap(f)
		return sink
	})
	s := db.NewSession()
	tortureWorkload(t, s, 0, half)

	// Checkpoint writes the snapshot, then "crashes" before the
	// truncate: the stale frames ≤ the snapshot's position stay in the
	// log.
	sink.FailTruncate(true)
	if err := db.Checkpoint(); !errors.Is(err, iofault.ErrInjected) {
		t.Fatalf("checkpoint err = %v, want injected truncate failure", err)
	}
	sink.FailTruncate(false)

	// The survivor keeps writing, numbering on past the snapshot.
	tortureWorkload(t, s, half, stmts)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Full recovery: snapshot + stale-plus-fresh log, zero doubles.
	snap, log := readFile(t, dir, snapshotFile), readFile(t, dir, walFile)
	rec, err := recoverLog(t, snap, log)
	if err != nil {
		t.Fatal(err)
	}
	assertExactPrefix(t, rec, stmts, "checkpoint window full recovery")

	// Every boundary cut of the combined log. Cuts inside the stale
	// region recover to the snapshot alone (the first half); cuts past
	// it add the frames past the snapshot before the cut.
	bounds := frameBoundaries(t, log)
	if len(bounds) != stmts { // CREATE + 100 inserts, one frame each
		t.Fatalf("frames = %d, want %d", len(bounds), stmts)
	}
	for k, cut := range append([]int{0}, bounds...) {
		rec, err := recoverLog(t, snap, log[:cut])
		if err != nil {
			t.Fatalf("checkpoint-window cut %d: %v", cut, err)
		}
		// Frames 1..half are stale copies of what the snapshot already
		// holds; only frames past them add statements.
		want := half
		if k > half {
			want = k
		}
		assertExactPrefix(t, rec, want, "checkpoint-window cut")
		_ = rec.Close()
	}
}

// TestWALCorruptMiddleFrameStopsReplay flips a byte inside a middle
// frame: replay must apply the statements before it, stop, and surface
// ErrWAL naming where it stopped — not execute the damaged SQL — and
// Open must refuse the log with that error.
func TestWALCorruptMiddleFrameStopsReplay(t *testing.T) {
	const stmts = 40
	log := tortureLog(t, stmts)
	bounds := frameBoundaries(t, log)
	const victim = stmts / 2
	log[bounds[victim]-1] ^= 0xFF // last byte of frame victim+1's body

	rec, err := replayDamaged(t, log)
	if !errors.Is(err, ErrWAL) {
		t.Fatalf("replay err = %v, want ErrWAL", err)
	}
	if !strings.Contains(err.Error(), "after seq 20") {
		t.Errorf("error does not name the last good seq: %v", err)
	}
	assertExactPrefix(t, rec, victim, "corrupt middle frame")
}

// TestWALSeqGapDetected removes a middle frame entirely: the sequence
// numbers expose the gap even though every remaining frame checksums.
func TestWALSeqGapDetected(t *testing.T) {
	const stmts = 10
	log := tortureLog(t, stmts)
	bounds := frameBoundaries(t, log)
	gapped := append(append([]byte{}, log[:bounds[3]]...), log[bounds[4]:]...)
	rec, err := replayDamaged(t, gapped)
	if !errors.Is(err, ErrWAL) {
		t.Fatalf("replay err = %v, want ErrWAL for seq gap", err)
	}
	assertExactPrefix(t, rec, 4, "seq gap")
}

// TestWALCorruptThroughBothReaders feeds the same damaged logs to both
// consumers of the on-disk framing — Open (recovery) and WALTail (the
// replication feed) — and requires identical verdicts: the tail ships
// exactly the frames replay applies, a torn tail ends both cleanly, and
// real damage stops both with the same ErrWAL naming the frame and the
// last good sequence number.
func TestWALCorruptThroughBothReaders(t *testing.T) {
	const stmts = 8
	dir := t.TempDir()
	db := openEngine(t, dir, nil)
	s := db.NewSession()
	tortureWorkload(t, s, 0, stmts)
	// A ninth frame whose body needs a two-byte length prefix, so a
	// crash can tear the prefix itself.
	execSQL(t, s, `CREATE TABLE `+strings.Repeat("pad", 60)+` (a INT)`)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	log := readFile(t, dir, walFile)
	bounds := frameBoundaries(t, log)
	if _, k := binary.Uvarint(log[bounds[stmts-1]:]); k != 2 {
		t.Fatalf("pad frame length prefix is %d bytes, want 2", k)
	}
	cases := []struct {
		name    string
		log     []byte
		frames  int    // frames both readers must accept before stopping
		wantErr string // "" = the scan ends cleanly
	}{
		{"torn tail inside a body", bytes.Clone(log[:bounds[7]-3]), 7, ""},
		{"torn tail inside a length prefix", bytes.Clone(log[:bounds[7]+1]), 8, ""},
		{"bad checksum", func() []byte {
			b := bytes.Clone(log)
			b[bounds[5]-1] ^= 0xFF // last byte of frame 6
			return b
		}(), 5, "frame 6 (after seq 5)"},
		{"sequence gap", append(bytes.Clone(log[:bounds[2]]), log[bounds[3]:]...), 3, "frame 4 seq 5, want 4"},
		{"impossible length", binary.AppendUvarint(bytes.Clone(log[:bounds[3]]), uint64(walMaxFrame)+1), 4, "frame 5 length"},
	}
	for _, tc := range cases {
		var rec *Database
		var replayErr error
		if tc.wantErr == "" {
			rec, replayErr = recoverLog(t, nil, tc.log)
		} else {
			rec, replayErr = replayDamaged(t, tc.log)
		}
		assertExactPrefix(t, rec, tc.frames, tc.name)
		// The tail reads the same bytes as the log of a database that
		// appends nothing.
		tailed := openEngine(t, t.TempDir(), nil)
		if err := os.WriteFile(filepath.Join(tailed.wal.dir, walFile), tc.log, 0o644); err != nil {
			t.Fatal(err)
		}
		tail, err := tailed.TailWAL(0)
		if err != nil {
			t.Fatal(err)
		}
		read := 0
		var readErr error
		for {
			body, err := tail.Next()
			if readErr = err; err != nil || body == nil {
				break
			}
			if read++; !bytes.Equal(body, log[bounds[read-1]-len(body):bounds[read-1]]) {
				t.Errorf("%s: shipped frame %d is not the logged one", tc.name, read)
			}
		}
		_ = tail.Close()
		if read != tc.frames {
			t.Errorf("%s: WALTail shipped %d frames, want %d", tc.name, read, tc.frames)
		}
		if tc.wantErr == "" {
			if replayErr != nil || readErr != nil {
				t.Errorf("%s: replay err = %v, read err = %v, want a clean end", tc.name, replayErr, readErr)
			}
			continue
		}
		for reader, err := range map[string]error{"Open": replayErr, "WALTail": readErr} {
			if !errors.Is(err, ErrWAL) || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("%s: %s err = %v, want ErrWAL mentioning %q", tc.name, reader, err, tc.wantErr)
			}
		}
	}
}

// TestWALShortWriteStickyAndRecoverable drives the append path into a
// mid-frame short write: the statement reports ErrWALFailed, later
// statements keep reporting it, and the torn log still recovers to the
// pre-failure prefix.
func TestWALShortWriteStickyAndRecoverable(t *testing.T) {
	dir := t.TempDir()
	var sink *iofault.File
	db := openEngine(t, dir, func(f *os.File) walSink {
		sink = iofault.Wrap(f)
		return sink
	})
	s := db.NewSession()
	tortureWorkload(t, s, 0, 5)

	sink.SetWriteBudget(7, iofault.ShortWrite) // tear the next frame mid-bytes
	if _, err := s.Exec(`INSERT INTO t VALUES (5)`, nil); !errors.Is(err, ErrWALFailed) {
		t.Fatalf("short-write append err = %v, want ErrWALFailed", err)
	}
	if _, err := s.Exec(`INSERT INTO t VALUES (6)`, nil); !errors.Is(err, ErrWALFailed) {
		t.Fatalf("append after failure err = %v, want sticky ErrWALFailed", err)
	}

	rec, err := recoverLog(t, nil, readFile(t, dir, walFile))
	if err != nil {
		t.Fatal(err)
	}
	assertExactPrefix(t, rec, 5, "short-write torn log")
}

// TestWALCrashSinkPrefixRecovery runs the whole workload against a sink
// that silently drops everything past a byte budget — the power-loss
// model where the application believes its writes landed. Whatever
// survived must recover to an exact committed prefix.
func TestWALCrashSinkPrefixRecovery(t *testing.T) {
	const stmts = 60
	r := rand.New(rand.NewSource(99))
	budgets := []int64{0, 1, 17, 100, 500, 1500}
	for range 10 {
		budgets = append(budgets, int64(r.Intn(2200)))
	}
	for _, budget := range budgets {
		dir := t.TempDir()
		db := openEngine(t, dir, func(f *os.File) walSink {
			sink := iofault.Wrap(f)
			sink.SetWriteBudget(budget, iofault.Crash)
			return sink
		})
		tortureWorkload(t, db.NewSession(), 0, stmts) // "succeeds": the crash is silent
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}

		rec, err := recoverLog(t, nil, readFile(t, dir, walFile))
		if err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
		// The surviving prefix length is whatever fit the budget.
		s := rec.NewSession()
		res, err := s.Exec(`SELECT COUNT(*) FROM t`, nil)
		if err != nil {
			if budget > 64 { // the CREATE frame is well under 64 bytes
				t.Fatalf("budget %d: table missing: %v", budget, err)
			}
			continue
		}
		m := int(res.Rows[0][0].Int()) + 1
		assertExactPrefix(t, rec, m, "crash sink")
	}
}

// TestWALDeterministicBytes runs the identical parameterized workload
// twice: the logs must be byte-identical (no map-order leakage), which
// is what makes golden log tests possible.
func TestWALDeterministicBytes(t *testing.T) {
	runOnce := func() []byte {
		dir := t.TempDir()
		db := openEngine(t, dir, nil)
		s := db.NewSession()
		execSQL(t, s, `CREATE TABLE t (a INT, b VARCHAR(10), c INT, d INT)`)
		for i := range 20 {
			if _, err := s.Exec(`INSERT INTO t VALUES (:alpha, :beta, :gamma, :delta)`, map[string]types.Value{
				"alpha": types.NewInt(int64(i)),
				"beta":  types.NewString("x"),
				"gamma": types.NewInt(int64(i * 2)),
				"delta": types.NewInt(int64(i * 3)),
			}); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		return readFile(t, dir, walFile)
	}
	a, b := runOnce(), runOnce()
	if string(a) != string(b) {
		t.Fatal("identical runs produced different WAL bytes")
	}
}
