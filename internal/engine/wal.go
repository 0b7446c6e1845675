package engine

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"tip/internal/blade"
	"tip/internal/sql/ast"
)

// Write-ahead logging of commit groups. A durable database is one
// directory (Open): a snapshot plus the log of every commit since, one
// frame of effect records (effects.go) per commit, appended by the
// commit step before it publishes (commit.go). Recovery and replicas
// apply the records and never parse SQL. Checkpoint writes a snapshot
// and truncates the log.
//
// Frame layout (length-prefixed, versioned, checksummed):
//
//	uvarint bodyLen
//	byte    format  — walFormat; older formats are refused with
//	                  ErrWALFormat
//	uint32  CRC32C of the rest of the body (little-endian)
//	uvarint seq     — the log position: consecutive, and never
//	                  restarted by a checkpoint or a reopen
//	payload         — the commit group's records
//
// Replay applies every frame up to the first damaged one and surfaces
// ErrWAL; a frame cut short by a crash (torn tail) ends replay cleanly.
// A snapshot taken at position S numbers its own frames from S+1
// (persist.go), and replay skips the log's frames ≤ S, so if a
// checkpoint's truncate never happens the stale frames are skipped
// rather than applied twice.
//
// Durability is a policy (SetDurability): SyncGrouped, the default,
// bounds the loss window to an interval by fsyncing from a background
// syncer; SyncEveryAppend fsyncs before the commit returns, with
// concurrent appenders sharing one fsync (group commit).

// walMaxFrame bounds a frame's body length, so a corrupt length prefix
// cannot turn into an unbounded allocation at replay; a commit whose
// group would not fit fails (ErrGroupTooLarge). Tests lower it.
var walMaxFrame = 64 << 20

// walFormat is the frame format this version writes. Format 1, the
// statement-text log, began its body with the checksum; format 2 had
// format 3's layout with one more uvarint before the seq.
const walFormat = 3

// maxGroupPayload is the largest group a frame can carry behind the
// body's format byte, checksum and seq.
func maxGroupPayload() int { return walMaxFrame - 1 - 4 - binary.MaxVarintLen64 }

// walCRC is the Castagnoli polynomial table (hardware-accelerated on
// most platforms).
var walCRC = crc32.MakeTable(crc32.Castagnoli)

// SyncPolicy selects when WAL appends are fsynced; see SetDurability.
type SyncPolicy int32

const (
	// SyncGrouped (the default) fsyncs from a background syncer at a
	// fixed interval: a power loss can take back at most the last
	// interval's commits.
	SyncGrouped SyncPolicy = iota
	// SyncEveryAppend fsyncs before a statement's Exec returns.
	// Concurrent appenders are batched into one fsync (group commit).
	SyncEveryAppend
)

// walSink is the file behind the log: an *os.File in production, a
// fault-injection wrapper (internal/iofault) in crash tests. The file
// is opened for appending, so a write after Truncate lands at the new
// end.
type walSink interface {
	io.Writer
	Sync() error
	Truncate(size int64) error
	Close() error
}

// The two files of a durable database directory.
const (
	snapshotFile = "snapshot.tipdb"
	walFile      = "wal.log"
)

// wal is the open log of a durable database. Open fixes it before the
// database is shared; it is never replaced, only sealed by Close.
type wal struct {
	dir   string // the database directory
	mu    sync.Mutex
	f     walSink
	frame []byte // the frame being appended, reused (guarded by mu)
	// failed is the first append error, sticky: once an append fails
	// the log may end in a torn record, so no further records are
	// written — the file stays a consistent (replayable) prefix of the
	// in-memory history until Checkpoint truncates and heals it.
	// errClosed seals the log for good.
	failed error
	// base is the position of the last snapshot: every frame past it is
	// in the file, and catch-up from below it needs a snapshot (see
	// WALBase).
	base atomic.Uint64

	// Group commit: appenders record the highest seq flushed to the
	// file; fsyncs are serialized on syncMu, and one fsync covers every
	// frame flushed before it started, so concurrent SyncEveryAppend
	// committers behind the same fsync all return without a second one.
	// flushedSeq is also the last assigned seq: it only moves under mu.
	flushedSeq atomic.Uint64 // highest seq written through to f
	syncedSeq  atomic.Uint64 // highest seq known durable (fsynced)
	syncMu     sync.Mutex    // serializes fsyncs

	// appended is closed by the next append, then reset to nil; a
	// WALTail waiting at the end of the file allocates it (Appended).
	// Guarded by mu.
	appended chan struct{}

	stop chan struct{} // closed by Close to end the group syncer
	done chan struct{} // closed when the syncer goroutine exits
}

// ErrWAL reports a malformed log: a frame whose checksum does not match
// its bytes, an impossible length, or a sequence gap. Replay applies
// everything before the damaged frame and stops.
var ErrWAL = errors.New("engine: corrupt WAL")

// ErrWALFormat reports a log or snapshot written in a frame format
// this version does not read; the error names the format.
var ErrWALFormat = errors.New("engine: unsupported frame format")

// ErrGroupTooLarge reports a commit whose effects would not fit in one
// log frame. The statement failed before publishing anything.
var ErrGroupTooLarge = errors.New("engine: commit group exceeds the WAL frame limit")

// ErrWALFailed reports that a commit applied in memory but could not be
// appended to the WAL (or, under SyncEveryAppend, not fsynced). The
// statement's result is still returned to the caller; the log stops
// growing so it remains a consistent prefix. Checkpoint clears the
// condition (the snapshot captures the state the log no longer covers).
var ErrWALFailed = errors.New("engine: WAL append failed; statement applied but not logged")

// errClosed is the failure Close seals the log with.
var errClosed = errors.New("engine: database closed")

// SetDurability selects the WAL fsync policy. groupInterval is the
// background fsync cadence for SyncGrouped (ignored by the other
// policies; <=0 keeps the current interval, default 2ms). Safe to call
// at any time.
func (db *Database) SetDurability(p SyncPolicy, groupInterval time.Duration) {
	if groupInterval > 0 {
		db.syncInterval.Store(int64(groupInterval))
	}
	db.syncPolicy.Store(int32(p))
}

// Durability returns the current sync policy.
func (db *Database) Durability() SyncPolicy {
	return SyncPolicy(db.syncPolicy.Load())
}

// Open opens the durable database kept in dir, creating the directory
// if needed. It loads dir/snapshot.tipdb if present, applies the
// groups of dir/wal.log on top of it, cuts a torn tail off the log and
// fsyncs it, and then appends every commit to that same file. Damage
// inside the log fails Open with ErrWAL, a log of the old format with
// ErrWALFormat.
func Open(reg *blade.Registry, dir string) (*Database, error) {
	return open(reg, dir, func(f *os.File) walSink { return f })
}

// open is Open with the log file passed through sink, which crash tests
// use to inject faults into the append path.
func open(reg *blade.Registry, dir string, sink func(*os.File) walSink) (*Database, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("engine: open: %w", err)
	}
	db := New(reg)
	var snapSeq uint64
	if f, err := os.Open(filepath.Join(dir, snapshotFile)); err == nil {
		snapSeq, err = db.readSnapshot(f)
		_ = f.Close()
		if err != nil {
			return nil, err
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("engine: open: %w", err)
	}
	f, err := os.OpenFile(filepath.Join(dir, walFile), os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("engine: open: %w", err)
	}
	w, end, err := db.replay(f, snapSeq)
	if err == nil {
		err = f.Truncate(end)
	}
	if err == nil {
		err = f.Sync()
	}
	if err != nil {
		_ = f.Close()
		return nil, err
	}
	w.dir, w.f = dir, sink(f)
	w.stop, w.done = make(chan struct{}), make(chan struct{})
	w.syncedSeq.Store(w.flushedSeq.Load())
	db.wal = w
	go db.walSyncer(w)
	return db, nil
}

// Close seals the log: it fsyncs and closes the file, and every later
// state-changing statement still applies in memory but fails with
// ErrWALFailed. It returns the log's earlier failure, if any. Close on
// an in-memory database, or a second Close, does nothing.
func (db *Database) Close() error {
	w := db.wal
	if w == nil {
		return nil
	}
	w.mu.Lock()
	err := w.failed
	if err == errClosed {
		w.mu.Unlock()
		return nil
	}
	w.failed = errClosed
	if w.appended != nil {
		close(w.appended)
		w.appended = nil
	}
	w.mu.Unlock()
	close(w.stop)
	<-w.done
	// Appends write through, so only an fsync is outstanding. Held on
	// syncMu, so a SyncEveryAppend committer still waiting finds its
	// frame covered instead of syncing a closed file.
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	if err == nil {
		err = w.f.Sync()
	}
	if err == nil {
		w.syncedSeq.Store(w.flushedSeq.Load())
	}
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// walSyncer is the background group-commit loop: it runs syncTick at
// the configured interval. It runs for every open log (the off-policy
// tick is a couple of atomic loads) so switching policies at runtime
// needs no goroutine management.
func (db *Database) walSyncer(w *wal) {
	defer close(w.done)
	for {
		timer := time.NewTimer(time.Duration(db.syncInterval.Load()))
		select {
		case <-w.stop:
			timer.Stop()
			return
		case <-timer.C:
		}
		db.syncTick(w)
	}
}

// syncTick fsyncs, under SyncGrouped, the frames flushed since the last
// fsync. A failure is sticky, as walSyncTo makes it.
func (db *Database) syncTick(w *wal) {
	target := w.flushedSeq.Load()
	if db.Durability() != SyncGrouped || target <= w.syncedSeq.Load() {
		return
	}
	w.mu.Lock()
	broken := w.failed != nil
	w.mu.Unlock()
	if !broken {
		_ = db.walSyncTo(w, target)
	}
}

// walSyncTo makes frame seq durable: it fsyncs unless a concurrent
// fsync already covered it. One fsync covers every frame flushed before
// it started, which is what batches concurrent committers. A failed
// fsync is sticky in w.failed, like a failed append: the frames it
// covered may not be on disk, so the log takes no more.
func (db *Database) walSyncTo(w *wal, seq uint64) error {
	if w.syncedSeq.Load() >= seq {
		return nil
	}
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	if w.syncedSeq.Load() >= seq {
		return nil
	}
	target := w.flushedSeq.Load()
	start := time.Now()
	err := w.f.Sync()
	db.obs.walFsyncs.Inc()
	db.obs.walFsyncLat.Observe(time.Since(start).Nanoseconds())
	if err != nil {
		w.mu.Lock()
		if w.failed == nil {
			w.failed = err
		}
		w.mu.Unlock()
		db.obs.walFailures.Inc()
		return err
	}
	w.syncedSeq.Store(target)
	return nil
}

// Checkpoint streams a snapshot (persist.go) of the database at the
// log's position S into dir/snapshot.tipdb, then truncates the log:
// recovery needs only the snapshot plus the (empty) log. The snapshot
// carries S, and replay skips every frame ≤ S, so a crash before the
// truncate cannot double-apply the stale frames. It holds the catalog
// lock shared and commitMu throughout, so the published state is the
// one at S and no frame is appended before the truncate.
func (db *Database) Checkpoint() error {
	w := db.wal
	if w == nil {
		return errors.New("engine: Checkpoint needs a database opened with Open")
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	db.commitMu.Lock()
	defer db.commitMu.Unlock()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.failed == errClosed {
		return fmt.Errorf("engine: checkpoint: %w", errClosed)
	}
	seq := w.flushedSeq.Load()
	if err := writeFileAtomic(filepath.Join(w.dir, snapshotFile), db.capture(seq).writeTo); err != nil {
		return fmt.Errorf("engine: checkpoint: %w", err)
	}
	// The snapshot at seq is on disk. Frames appended from here on
	// number from seq+1 and replay on top of it, even if the truncate
	// below fails: the stale frames are ≤ seq and skipped.
	//
	// A failed WAL may end in a torn tail on disk; the snapshot
	// supersedes it, so let the truncate heal the log.
	if err := w.f.Truncate(0); err != nil {
		return fmt.Errorf("engine: checkpoint: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("engine: checkpoint: %w", err)
	}
	w.failed = nil
	// Everything logged so far is inside the snapshot: nothing awaits
	// an fsync.
	w.syncedSeq.Store(seq)
	// The truncate discarded every frame up to seq: a replica below
	// that point must go through a snapshot, and a WALTail sees the
	// truncation as the new WALBase.
	w.base.Store(seq)
	return nil
}

// changesState reports whether a statement writes: DDL and DML.
func changesState(stmt ast.Statement) bool {
	switch stmt.(type) {
	case *ast.CreateTable, *ast.DropTable, *ast.CreateIndex, *ast.DropIndex,
		*ast.Insert, *ast.Update, *ast.Delete:
		return true
	default:
		return false
	}
}

func isCommit(stmt ast.Statement) bool {
	_, ok := stmt.(*ast.Commit)
	return ok
}

// appendWALFrame appends a whole frame — length prefix and body — of
// payload at the given seq.
func appendWALFrame(dst []byte, seq uint64, payload []byte) []byte {
	var pos [binary.MaxVarintLen64]byte
	p := binary.AppendUvarint(pos[:0], seq)
	dst = binary.AppendUvarint(dst, uint64(1+4+len(p)+len(payload)))
	dst = append(dst, walFormat)
	dst = binary.LittleEndian.AppendUint32(dst, crc32.Update(crc32.Checksum(p, walCRC), walCRC, payload))
	return append(append(dst, p...), payload...)
}

// walFrame is one decoded log frame.
type walFrame struct {
	seq     uint64
	payload []byte
}

// decodeWALFrame validates and splits a frame body (everything after
// the length prefix). The payload aliases body. A body whose checksum
// holds for an older format's layout is ErrWALFormat naming it:
// format 2 checksums what follows the format byte, as format 3 does;
// format 1 put the checksum first.
func decodeWALFrame(body []byte) (walFrame, error) {
	if len(body) < 5 {
		return walFrame{}, fmt.Errorf("%w: short frame", ErrWAL)
	}
	rest := body[5:]
	if crc := crc32.Checksum(rest, walCRC) == binary.LittleEndian.Uint32(body[1:]); body[0] != walFormat || !crc {
		switch {
		case body[0] == 2 && crc:
			return walFrame{}, fmt.Errorf("%w: format 2 (two position fields per frame); this version reads format 3", ErrWALFormat)
		case crc32.Checksum(body[4:], walCRC) == binary.LittleEndian.Uint32(body):
			return walFrame{}, fmt.Errorf("%w: format 1 (statement text); this version reads format 3 (commit-group effects)", ErrWALFormat)
		}
		return walFrame{}, fmt.Errorf("%w: bad checksum", ErrWAL)
	}
	seq, n := binary.Uvarint(rest)
	if n <= 0 || seq == 0 {
		return walFrame{}, fmt.Errorf("%w: seq", ErrWAL)
	}
	return walFrame{seq: seq, payload: rest[n:]}, nil
}

// appendGroup appends one commit group to the log and returns its seq.
// The caller holds commitMu, so groups reach the log in the order their
// commits publish.
func (db *Database) appendGroup(payload []byte) (uint64, error) {
	w := db.wal
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.failed != nil {
		db.obs.walFailures.Inc()
		return 0, fmt.Errorf("%w (first failure: %v)", ErrWALFailed, w.failed)
	}
	seq := w.flushedSeq.Load() + 1
	w.frame = appendWALFrame(w.frame[:0], seq, payload)
	size := len(w.frame)
	_, err := w.f.Write(w.frame)
	if cap(w.frame) > 1<<20 {
		w.frame = nil // keep no large group's buffer
	}
	if err != nil {
		w.failed = err
		db.obs.walFailures.Inc()
		return 0, fmt.Errorf("%w: %v", ErrWALFailed, err)
	}
	w.flushedSeq.Store(seq)
	if w.appended != nil {
		close(w.appended)
		w.appended = nil
	}
	db.obs.walAppends.Inc()
	db.obs.walBytes.Add(uint64(size))
	return seq, nil
}

// syncStrict makes frame seq durable before a SyncEveryAppend commit
// returns.
func (db *Database) syncStrict(seq uint64) error {
	if err := db.walSyncTo(db.wal, seq); err != nil {
		return fmt.Errorf("%w: fsync: %v", ErrWALFailed, err)
	}
	return nil
}

// replay applies the groups of the log f on top of a snapshot taken at
// position snap. Frames are read through a bounded buffer, so recovery
// memory scales with the largest record, not the log size. Frames
// ≤ snap are skipped (they are already inside the snapshot: the
// checkpoint crashed before truncating the log); the first frame past
// them must be snap+1, or the snapshot and the log do not meet and
// replay fails with ErrWAL. A frame cut short at the end (a torn
// write) ends replay cleanly; a checksum mismatch or sequence gap stops
// it at the last valid frame and surfaces ErrWAL. It returns the log's
// position — last seq, and snap as the base — as an unopened wal, with
// the offset to keep the file to: just past the last whole frame, or 0
// when no frame is past snap.
func (db *Database) replay(f *os.File, snap uint64) (*wal, int64, error) {
	r := walReader{f: f}
	last := snap // seq of the last frame applied
	for {
		fr, _, ok, err := r.next()
		if err != nil {
			return nil, 0, err
		}
		if !ok {
			break
		}
		if fr.seq <= snap {
			continue
		}
		if fr.seq != last+1 { // the reader keeps later frames consecutive
			return nil, 0, fmt.Errorf("%w: the log resumes at seq %d, but the snapshot ends at seq %d", ErrWAL, fr.seq, snap)
		}
		if err := db.applyGroup(fr.payload); err != nil {
			if errors.Is(err, errBadGroup) {
				err = fmt.Errorf("%w: %w", ErrWAL, err)
			}
			return nil, 0, fmt.Errorf("engine: wal replay of frame %d (seq %d): %w", r.frames, fr.seq, err)
		}
		last = fr.seq
	}
	w := &wal{}
	w.base.Store(snap)
	w.flushedSeq.Store(last)
	if last == snap {
		return w, 0, nil
	}
	return w, r.off, nil
}

// walReader is the one reader of the log's on-disk framing — a uvarint
// body length, then the body — for recovery (Open) and replication
// (WALTail) alike. It reads the file at an offset it keeps between
// calls, checking each frame's length bound, checksum and sequence
// continuity. A frame cut short at the end of the file is left unread:
// it is a torn tail to recovery and a frame still being written to a
// tail, which reads it whole once its remaining bytes land.
type walReader struct {
	f      io.ReaderAt
	off    int64  // file offset of the first unconsumed byte, a frame boundary
	buf    []byte // bytes read from off on, not yet consumed
	store  []byte // backing array of buf
	frames int    // frames consumed since offset 0 (named in errors)
	seq    uint64 // seq of the last consumed frame
}

// next consumes and returns the next complete frame; ok is false when
// the file ends first. body (and fr.payload inside it) alias a buffer
// the next call overwrites. Damage surfaces as ErrWAL naming the
// frame's position and the last good sequence number.
func (r *walReader) next() (fr walFrame, body []byte, ok bool, err error) {
	for {
		n, k := binary.Uvarint(r.buf)
		if k < 0 {
			return fr, nil, false, fmt.Errorf("%w: frame %d length (after seq %d): varint overflow", ErrWAL, r.frames+1, r.seq)
		}
		if k > 0 && n > uint64(walMaxFrame) {
			return fr, nil, false, fmt.Errorf("%w: frame %d length %d (after seq %d)", ErrWAL, r.frames+1, n, r.seq)
		}
		if k == 0 || uint64(len(r.buf)-k) < n {
			need := len(r.buf) + 1
			if k > 0 {
				need = k + int(n)
			}
			if more, err := r.fill(need); !more || err != nil {
				return fr, nil, false, err
			}
			continue
		}
		body = r.buf[k : k+int(n)]
		r.buf = r.buf[k+int(n):]
		r.off += int64(k) + int64(n)
		r.frames++
		if fr, err = decodeWALFrame(body); err != nil {
			return fr, nil, false, fmt.Errorf("frame %d (after seq %d): %w", r.frames, r.seq, err)
		}
		if r.frames > 1 && fr.seq != r.seq+1 {
			return fr, nil, false, fmt.Errorf("%w: frame %d seq %d, want %d", ErrWAL, r.frames, fr.seq, r.seq+1)
		}
		r.seq = fr.seq
		return fr, body, true, nil
	}
}

// fill appends file bytes to r.buf, making room for at least need
// unconsumed bytes; more is false when the file has nothing further.
func (r *walReader) fill(need int) (more bool, err error) {
	if need < 64<<10 {
		need = 64 << 10
	}
	if cap(r.store) < need {
		r.store = make([]byte, need)
	}
	r.store = r.store[:cap(r.store)]
	have := copy(r.store, r.buf)
	m, err := r.f.ReadAt(r.store[have:], r.off+int64(have))
	r.buf = r.store[:have+m]
	if m > 0 {
		return true, nil
	}
	if err != nil && !errors.Is(err, io.EOF) {
		return false, fmt.Errorf("engine: wal read: %w", err)
	}
	return false, nil
}

// reset moves the reader back to offset 0 of a truncated file.
func (r *walReader) reset() {
	*r = walReader{f: r.f, store: r.store}
}
