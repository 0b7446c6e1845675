package engine

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tip/internal/blade"
	"tip/internal/sql/ast"
	"tip/internal/temporal"
	"tip/internal/types"
)

// Statement-level write-ahead logging. Between snapshots, every
// successful state-changing statement (DDL, DML, transaction control)
// is appended to the log together with the NOW it executed under, so a
// restart can replay it with identical temporal semantics. Checkpoint
// writes a snapshot and truncates the log.
//
// The log is a redo log of statements, not of row changes: replay
// re-executes the SQL. A transaction left open at the end of the log
// (crash mid-transaction) is rolled back after replay.
//
// Frame layout (length-prefixed, checksummed, epoch-stamped):
//
//	uvarint bodyLen
//	uint32  CRC32C of the rest of the body (little-endian)
//	uvarint epoch   — durability epoch; frames older than the
//	                  snapshot's epoch are skipped at replay
//	uvarint seq     — frame sequence number, consecutive within a log
//	payload: int64 now, str sql, uvarint nParams,
//	         (str name, str typeName, value)*  — names sorted, so
//	         identical runs produce byte-identical logs
//
// The checksum makes corruption anywhere in a frame detectable: replay
// applies every frame up to the first damaged one and surfaces ErrWAL
// instead of executing damaged SQL. A frame cut short by a crash (torn
// tail) ends replay cleanly. The epoch closes the checkpoint crash
// window: Checkpoint stamps the new snapshot with epoch+1 before
// truncating the log, so if the truncate never happens the stale frames
// are skipped rather than double-applied on top of the snapshot.
//
// Durability is a policy (SetDurability): SyncGrouped, the default,
// bounds the loss window to an interval by fsyncing from a background
// syncer; SyncEveryAppend fsyncs before the statement returns, with
// concurrent appenders sharing one fsync (group commit).

// walMaxFrame bounds a frame's decoded length. A corrupt length prefix
// must not turn into an unbounded allocation at replay; no legitimate
// statement payload approaches this.
const walMaxFrame = 64 << 20

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
// fault-injection wrapper (internal/iofault) in crash tests.
type walSink interface {
	io.Writer
	Sync() error
	Truncate(size int64) error
	Seek(offset int64, whence int) (int64, error)
	Close() error
}

// wal is the open log file.
type wal struct {
	mu sync.Mutex
	f  walSink
	w  *bufio.Writer
	// failed is the first append error, sticky: once an append fails
	// the log may end in a torn record, so no further records are
	// written — the file stays a consistent (replayable) prefix of the
	// in-memory history until Checkpoint truncates and heals it.
	failed error
	epoch  uint64 // stamped on new frames; bumped by Checkpoint (guarded by mu)
	seq    uint64 // last assigned frame seq (guarded by mu)

	// Group commit: appenders record the highest seq flushed to the
	// file; fsyncs are serialized on syncMu, and one fsync covers every
	// frame flushed before it started, so concurrent SyncEveryAppend
	// committers behind the same fsync all return without a second one.
	flushedSeq atomic.Uint64 // highest seq written through to f
	syncedSeq  atomic.Uint64 // highest seq known durable (fsynced)
	syncMu     sync.Mutex    // serializes fsyncs

	// appended is closed by the next append, then reset to nil; a
	// WALTail waiting at the end of the file allocates it (Appended).
	// Guarded by mu.
	appended chan struct{}

	stop chan struct{} // closed by DisableWAL to end the group syncer
	done chan struct{} // closed when the syncer goroutine exits
}

// ErrWAL reports a malformed log: a frame whose checksum does not match
// its bytes, an impossible length, or a sequence gap. Replay applies
// everything before the damaged frame and stops.
var ErrWAL = errors.New("engine: corrupt WAL")

// ErrWALFailed reports that a statement applied in memory but could not
// be appended to the WAL (or, under SyncEveryAppend, not fsynced). The
// statement's result is still returned to the caller; the log stops
// growing so it remains a consistent prefix. Checkpoint clears the
// condition (the snapshot captures the state the log no longer covers).
var ErrWALFailed = errors.New("engine: WAL append failed; statement applied but not logged")

// SetDurability selects the WAL fsync policy. groupInterval is the
// background fsync cadence for SyncGrouped (ignored by the other
// policies; <=0 keeps the current interval, default 2ms). Safe to call
// before or after EnableWAL.
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

// EnableWAL starts appending state-changing statements to path,
// creating the file if needed. Call Load and ReplayWAL first when
// recovering: they establish the durability epoch and the next frame
// sequence number that new appends continue from.
func (db *Database) EnableWAL(path string) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("engine: wal: %w", err)
	}
	if err := db.enableWALSink(f); err != nil {
		_ = f.Close()
		return err
	}
	return nil
}

// enableWALSink installs an already-open sink as the log. Split from
// EnableWAL so crash tests can inject a fault layer.
func (db *Database) enableWALSink(f walSink) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.wal != nil {
		return fmt.Errorf("engine: WAL already enabled")
	}
	w := &wal{
		f:     f,
		w:     bufio.NewWriter(f),
		epoch: db.epoch,
		seq:   db.walSeq,
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	w.flushedSeq.Store(w.seq)
	w.syncedSeq.Store(w.seq)
	db.wal = w
	go db.walSyncer(w)
	return nil
}

// DisableWAL stops logging, fsyncs what was appended and closes the
// file.
func (db *Database) DisableWAL() error {
	db.mu.Lock()
	w := db.wal
	db.wal = nil
	db.mu.Unlock()
	if w == nil {
		return nil
	}
	close(w.stop)
	<-w.done
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.appended != nil {
		close(w.appended)
		w.appended = nil
	}
	flushErr := w.failed
	if flushErr == nil {
		flushErr = w.w.Flush()
	}
	if flushErr == nil {
		flushErr = w.f.Sync()
	}
	closeErr := w.f.Close()
	if flushErr != nil {
		return flushErr
	}
	return closeErr
}

// walSyncer is the background group-commit loop: under SyncGrouped it
// fsyncs any frames flushed since the last sync, bounding the loss
// window to the configured interval. It runs for every enabled WAL
// (the off-policy tick is a couple of atomic loads) so switching
// policies at runtime needs no goroutine management.
func (db *Database) walSyncer(w *wal) {
	defer close(w.done)
	for {
		d := time.Duration(db.syncInterval.Load())
		timer := time.NewTimer(d)
		select {
		case <-w.stop:
			timer.Stop()
			return
		case <-timer.C:
		}
		if SyncPolicy(db.syncPolicy.Load()) != SyncGrouped {
			continue
		}
		if target := w.flushedSeq.Load(); target > w.syncedSeq.Load() {
			w.mu.Lock()
			broken := w.failed != nil
			w.mu.Unlock()
			if !broken {
				_ = db.walSyncTo(w, target) // a failed fsync is caught by the next strict append or Checkpoint
			}
		}
	}
}

// walSyncTo makes frame seq durable: it fsyncs unless a concurrent
// fsync already covered it. One fsync covers every frame flushed before
// it started, which is what batches concurrent committers.
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
		return err
	}
	w.syncedSeq.Store(target)
	return nil
}

// Checkpoint writes a snapshot under the next durability epoch, then
// truncates the log: recovery needs only the snapshot plus the (empty)
// log. The epoch ordering closes the crash window between the two
// steps — a snapshot at epoch e+1 makes replay skip every frame still
// stamped e, so a crash before the truncate cannot double-apply them.
// Writers are quiesced (db.ckpt held exclusively) so no statement
// straddles the snapshot with its WAL frame.
func (db *Database) Checkpoint(snapshotPath string) error {
	db.ckpt.Lock()
	defer db.ckpt.Unlock()
	db.mu.RLock()
	w := db.wal
	epoch := db.epoch
	db.mu.RUnlock()
	if w == nil {
		// No log to truncate: a plain consistent snapshot at the
		// current epoch.
		return db.save(snapshotPath, epoch)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	newEpoch := w.epoch + 1
	if err := db.save(snapshotPath, newEpoch); err != nil {
		return err
	}
	// The snapshot at newEpoch is on disk: commit the epoch so frames
	// appended from here on replay on top of it, even if the truncate
	// below fails — stale frames stay skippable either way.
	w.epoch = newEpoch
	db.mu.Lock()
	db.epoch = newEpoch
	db.mu.Unlock()
	// A failed WAL may hold a poisoned buffered writer and a torn tail
	// on disk; the snapshot supersedes both, so drop the buffer and let
	// the truncate heal the log.
	w.w.Reset(w.f)
	if err := w.f.Truncate(0); err != nil {
		return fmt.Errorf("engine: checkpoint: %w", err)
	}
	if _, err := w.f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("engine: checkpoint: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("engine: checkpoint: %w", err)
	}
	w.failed = nil
	// Everything logged so far is inside the snapshot: nothing awaits
	// an fsync.
	w.flushedSeq.Store(w.seq)
	w.syncedSeq.Store(w.seq)
	// The truncate discarded every frame up to w.seq: a replica below
	// that point must go through a snapshot, and a WALTail sees the
	// truncation as the new WALBase.
	db.mu.Lock()
	db.walBase = w.seq
	db.mu.Unlock()
	return nil
}

// loggable reports whether a statement changes database state and must
// be redone at recovery.
func loggable(stmt ast.Statement) bool {
	switch stmt.(type) {
	case *ast.CreateTable, *ast.DropTable, *ast.CreateIndex, *ast.DropIndex,
		*ast.Insert, *ast.Update, *ast.Delete,
		*ast.Begin, *ast.Commit, *ast.Rollback:
		return true
	default:
		return false
	}
}

// encodeWALPayload serializes one statement. Parameter names are
// sorted so identical runs produce byte-identical logs (map iteration
// order must not leak into the file).
func encodeWALPayload(now temporal.Chronon, sql string, params map[string]types.Value) []byte {
	var buf []byte
	buf = binary.LittleEndian.AppendUint64(buf, uint64(now))
	buf = appendString(buf, sql)
	buf = binary.AppendUvarint(buf, uint64(len(params)))
	names := make([]string, 0, len(params))
	for name := range params {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := params[name]
		buf = appendString(buf, name)
		tname := ""
		if v.T != nil && v.T.Kind != types.KindNull {
			tname = v.T.Name
		}
		buf = appendString(buf, tname)
		buf = v.AppendBinary(buf)
	}
	return buf
}

// encodeWALFrameBody builds a frame body — everything after the length
// prefix: {CRC32C, epoch, seq, payload}. The body is the unit shipped
// verbatim to replication subscribers (MsgWALFrame), so a replica
// verifies the same checksum the local replay would.
func encodeWALFrameBody(epoch, seq uint64, payload []byte) []byte {
	var inner []byte
	inner = binary.AppendUvarint(inner, epoch)
	inner = binary.AppendUvarint(inner, seq)
	inner = append(inner, payload...)
	body := make([]byte, 0, len(inner)+4)
	body = binary.LittleEndian.AppendUint32(body, crc32.Checksum(inner, walCRC))
	return append(body, inner...)
}

// appendWALFrame wraps a payload into a length-prefixed checksummed
// frame under the given epoch and seq.
func appendWALFrame(dst []byte, epoch, seq uint64, payload []byte) []byte {
	body := encodeWALFrameBody(epoch, seq, payload)
	dst = binary.AppendUvarint(dst, uint64(len(body)))
	return append(dst, body...)
}

// walFrame is one decoded log frame.
type walFrame struct {
	epoch   uint64
	seq     uint64
	payload []byte
}

// decodeWALFrame validates and splits a frame body (everything after
// the length prefix). The payload aliases body.
func decodeWALFrame(body []byte) (walFrame, error) {
	if len(body) < 4 {
		return walFrame{}, fmt.Errorf("%w: short frame", ErrWAL)
	}
	sum := binary.LittleEndian.Uint32(body)
	rest := body[4:]
	if crc32.Checksum(rest, walCRC) != sum {
		return walFrame{}, fmt.Errorf("%w: bad checksum", ErrWAL)
	}
	epoch, n := binary.Uvarint(rest)
	if n <= 0 {
		return walFrame{}, fmt.Errorf("%w: epoch", ErrWAL)
	}
	rest = rest[n:]
	seq, n := binary.Uvarint(rest)
	if n <= 0 {
		return walFrame{}, fmt.Errorf("%w: seq", ErrWAL)
	}
	return walFrame{epoch: epoch, seq: seq, payload: rest[n:]}, nil
}

// logStatement appends one executed statement to the WAL and, under
// SyncEveryAppend, fsyncs before returning.
func (db *Database) logStatement(now temporal.Chronon, sql string, params map[string]types.Value) error {
	db.mu.RLock()
	w := db.wal
	db.mu.RUnlock()
	if w == nil {
		return nil
	}
	payload := encodeWALPayload(now, sql, params)
	seq, size, err := func() (uint64, int, error) {
		w.mu.Lock()
		defer w.mu.Unlock()
		if w.failed != nil {
			return 0, 0, fmt.Errorf("%w (first failure: %v)", ErrWALFailed, w.failed)
		}
		body := encodeWALFrameBody(w.epoch, w.seq+1, payload)
		var hdr [binary.MaxVarintLen64]byte
		hn := binary.PutUvarint(hdr[:], uint64(len(body)))
		if _, err := w.w.Write(hdr[:hn]); err != nil {
			w.failed = err
			return 0, 0, fmt.Errorf("%w: %v", ErrWALFailed, err)
		}
		if _, err := w.w.Write(body); err != nil {
			w.failed = err
			return 0, 0, fmt.Errorf("%w: %v", ErrWALFailed, err)
		}
		if err := w.w.Flush(); err != nil {
			w.failed = err
			return 0, 0, fmt.Errorf("%w: %v", ErrWALFailed, err)
		}
		w.seq++
		w.flushedSeq.Store(w.seq)
		if w.appended != nil {
			close(w.appended)
			w.appended = nil
		}
		return w.seq, hn + len(body), nil
	}()
	if err != nil {
		db.obs.walFailures.Inc()
		return err
	}
	db.obs.walAppends.Inc()
	db.obs.walBytes.Add(uint64(size))
	if SyncPolicy(db.syncPolicy.Load()) == SyncEveryAppend {
		if err := db.walSyncTo(w, seq); err != nil {
			w.mu.Lock()
			if w.failed == nil {
				w.failed = err
			}
			w.mu.Unlock()
			db.obs.walFailures.Inc()
			return fmt.Errorf("%w: fsync: %v", ErrWALFailed, err)
		}
	}
	return nil
}

// ReplayWAL re-executes the statements logged in path against this
// database (typically right after loading the matching snapshot).
// Frames are read through a bounded buffer, so recovery memory scales
// with the largest record, not the log size. Each statement runs under
// the NOW it originally executed with; frames from an epoch older than
// the loaded snapshot's are skipped (they are already inside the
// snapshot: the checkpoint crashed before truncating the log). A
// transaction still open at the end of the log is rolled back. A
// truncated trailing record (torn write at crash) ends replay cleanly;
// a checksum mismatch or sequence gap stops replay at the last valid
// frame and surfaces ErrWAL.
func (db *Database) ReplayWAL(path string) error {
	f, err := os.Open(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil
		}
		return fmt.Errorf("engine: wal replay: %w", err)
	}
	defer f.Close()
	db.mu.RLock()
	snapEpoch := db.epoch
	db.mu.RUnlock()

	sess := db.NewSession()
	defer func() {
		if sess.InTransaction() {
			_, _ = sess.ExecStmt(&ast.Rollback{}, nil)
		}
		sess.nowOverride = nil
	}()

	r := walReader{f: f}
	var firstSeq uint64
	maxEpoch := snapEpoch
	for {
		fr, _, ok, err := r.next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		if r.frames == 1 {
			firstSeq = fr.seq
		}
		maxEpoch = max(maxEpoch, fr.epoch)
		if fr.epoch < snapEpoch {
			continue
		}
		if err := db.replayRecord(sess, fr.payload); err != nil {
			return err
		}
	}
	return db.finishReplay(maxEpoch, firstSeq, r.seq, r.frames > 0)
}

// walReader is the one reader of the log's on-disk framing — a uvarint
// body length, then the body — for recovery (ReplayWAL) and replication
// (WALTail) alike. It reads the file at an offset it keeps between
// calls, checking each frame's length bound, checksum and sequence
// continuity. A frame cut short at the end of the file is left unread:
// it is a torn tail to recovery and a frame still being written to a
// tail, which reads it whole once its remaining bytes land.
type walReader struct {
	f      *os.File
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
		if k > 0 && n > walMaxFrame {
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

// finishReplay records where the log started and ended so EnableWAL
// continues the epoch and sequence numbering from there and replication
// knows the oldest frame still on disk (WALBase).
func (db *Database) finishReplay(maxEpoch, firstSeq, lastSeq uint64, haveSeq bool) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if maxEpoch > db.epoch {
		db.epoch = maxEpoch
	}
	if haveSeq && lastSeq > db.walSeq {
		db.walSeq = lastSeq
	}
	if haveSeq {
		db.walBase = firstSeq - 1
	} else {
		db.walBase = db.walSeq
	}
	return nil
}

// decodeWALPayload parses a frame payload into the statement's original
// NOW, SQL text and parameters. Type names resolve through reg.
func decodeWALPayload(reg *blade.Registry, rec []byte) (temporal.Chronon, string, map[string]types.Value, error) {
	if len(rec) < 8 {
		return 0, "", nil, fmt.Errorf("%w: short record", ErrWAL)
	}
	now := temporal.Chronon(binary.LittleEndian.Uint64(rec))
	rec = rec[8:]
	sql, rec, err := readString(rec)
	if err != nil {
		return 0, "", nil, fmt.Errorf("%w: %v", ErrWAL, err)
	}
	nParams, k := binary.Uvarint(rec)
	if k <= 0 {
		return 0, "", nil, fmt.Errorf("%w: param count", ErrWAL)
	}
	rec = rec[k:]
	if nParams > uint64(len(rec)) {
		return 0, "", nil, fmt.Errorf("%w: param count %d", ErrWAL, nParams)
	}
	var params map[string]types.Value
	if nParams > 0 {
		params = make(map[string]types.Value, nParams)
	}
	for range nParams {
		var name, tname string
		if name, rec, err = readString(rec); err != nil {
			return 0, "", nil, fmt.Errorf("%w: %v", ErrWAL, err)
		}
		if tname, rec, err = readString(rec); err != nil {
			return 0, "", nil, fmt.Errorf("%w: %v", ErrWAL, err)
		}
		t := types.TNull
		if tname != "" {
			var ok bool
			if t, ok = reg.LookupType(tname); !ok {
				return 0, "", nil, fmt.Errorf("%w: unknown type %s", ErrWAL, tname)
			}
		}
		var v types.Value
		if t.Kind == types.KindNull {
			if len(rec) < 1 {
				return 0, "", nil, fmt.Errorf("%w: null value", ErrWAL)
			}
			v, rec = types.NewNull(types.TNull), rec[1:]
		} else {
			if v, rec, err = types.DecodeValue(t, rec); err != nil {
				return 0, "", nil, fmt.Errorf("%w: %v", ErrWAL, err)
			}
		}
		params[name] = v
	}
	if len(rec) != 0 {
		return 0, "", nil, fmt.Errorf("%w: trailing bytes in record", ErrWAL)
	}
	return now, sql, params, nil
}

func (db *Database) replayRecord(sess *Session, rec []byte) error {
	now, sql, params, err := decodeWALPayload(db.reg, rec)
	if err != nil {
		return err
	}
	// Replay under the original NOW so NOW-relative semantics match.
	// Parsing goes through the session cache: a replica applying a
	// stream of repeated statements pays the parser once per shape.
	sess.nowOverride = &now
	stmt, err := sess.parseCached(sql)
	if err != nil {
		return fmt.Errorf("engine: wal replay of %q: %w", sql, err)
	}
	if _, err := sess.ExecStmt(stmt, params); err != nil {
		return fmt.Errorf("engine: wal replay of %q: %w", sql, err)
	}
	return nil
}
