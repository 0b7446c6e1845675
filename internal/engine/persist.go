package engine

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"tip/internal/catalog"
	"tip/internal/exec"
	"tip/internal/storage"
)

// Database snapshots. A snapshot is a run of frames in the log's
// framing (wal.go). A snapshot of the database at log position S
// numbers its frames S+1..S+k, so it needs no field of its own for S,
// and replay skips the log's frames ≤ S. Their payloads are groups of
// records (effects.go) that rebuild the database from empty — per
// table a create-table record and a put per row at its row id, then a
// create-index record per index — cut at a record boundary once a
// payload reaches snapshotFrameBytes (a larger record travels alone).
// A frame with an empty payload ends it. One encoder (Snapshot.Encode)
// and one loader (loadSnapshot) serve Checkpoint, Open and replica
// bootstrap; none of them holds the whole database as bytes.

// snapshotFrameBytes is the payload size at which the encoder cuts a
// snapshot frame. Tests lower it.
var snapshotFrameBytes = 1 << 20

// ErrBadSnapshot reports a malformed snapshot: a damaged frame, a
// break in the frame sequence, a run without its end frame or
// with bytes after it, or a file in an older format.
var ErrBadSnapshot = errors.New("engine: bad snapshot")

// writeFileAtomic writes path through write so that a crash leaves
// either the old file or the new one: write to a temp file, fsync it,
// rename over path, fsync the parent directory (the rename itself is
// not durable until the directory entry is).
func writeFileAtomic(path string, write func(io.Writer) error) (err error) {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			_ = os.Remove(tmp)
		}
	}()
	bw := bufio.NewWriterSize(f, 64<<10)
	if err = write(bw); err == nil {
		err = bw.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		return err
	}
	return syncDir(filepath.Dir(path))
}

// syncDir fsyncs a directory so a just-renamed entry survives power
// loss.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Snapshot is the database captured at one log position: each table's
// metadata and published rows, and the index definitions. Slab versions
// are immutable, so a captured Snapshot encodes after the capture's
// locks are released, while writers carry on.
type Snapshot struct {
	seq     uint64
	tables  []*catalog.TableMeta
	rows    []*storage.Version
	indexes []*catalog.IndexMeta
}

// capture pins every table's version in the published state and the
// index definitions. The caller holds the catalog lock shared and
// commitMu, so the state is the one at seq; capture takes no lock
// itself (a nested read lock would deadlock against a waiting DDL).
func (db *Database) capture(seq uint64) *Snapshot {
	s := &Snapshot{seq: seq}
	st := db.state.Load()
	for _, name := range db.cat.TableNames() {
		tbl := db.tables[strings.ToLower(name)]
		s.tables = append(s.tables, tbl.Meta)
		s.rows = append(s.rows, st.tables[tbl.Slot].Rows)
		s.indexes = append(s.indexes, db.cat.TableIndexes(name)...)
	}
	return s
}

// Seq returns the log sequence the snapshot reflects.
func (s *Snapshot) Seq() uint64 { return s.seq }

// Encode passes the snapshot's frame bodies, numbered from Seq()+1, to
// emit in order, ending with the end frame, and stops at emit's first
// error. A body aliases a buffer the encoder reuses.
func (s *Snapshot) Encode(emit func(body []byte) error) error {
	e := snapshotEncoder{seq: s.seq, emit: emit}
	for i, meta := range s.tables {
		e.cut(len(e.payload), appendCreateTable(e.payload, meta))
		s.rows[i].Scan(func(id int, r exec.Row) bool {
			return e.cut(len(e.payload), appendPut(e.payload, meta.Name, id, r))
		})
	}
	for _, im := range s.indexes {
		e.cut(len(e.payload), appendCreateIndex(e.payload, im))
	}
	if len(e.payload) > 0 {
		e.flush(e.payload)
	}
	e.flush(nil)
	return e.err
}

// writeTo writes the snapshot's frames to w, each body behind its
// uvarint length as in wal.log.
func (s *Snapshot) writeTo(w io.Writer) error {
	var prefix [binary.MaxVarintLen64]byte
	return s.Encode(func(body []byte) error {
		_, err := w.Write(binary.AppendUvarint(prefix[:0], uint64(len(body))))
		if err == nil {
			_, err = w.Write(body)
		}
		return err
	})
}

// snapshotEncoder gathers records into a payload and emits it as a
// frame. Its two buffers are reused, so it holds about two frames'
// bytes whatever the database's size.
type snapshotEncoder struct {
	seq     uint64 // seq of the last emitted frame
	payload []byte // records not yet emitted
	frame   []byte
	emit    func(body []byte) error
	err     error
}

// cut takes the payload with one more record appended at mark. If the
// record took it past the bound, the records before it go out as a
// frame; a payload at the bound goes out whole. It reports whether
// encoding may go on.
func (e *snapshotEncoder) cut(mark int, payload []byte) bool {
	e.payload = payload
	if len(e.payload) > snapshotFrameBytes && mark > 0 {
		e.flush(e.payload[:mark])
		e.payload = e.payload[:copy(e.payload, e.payload[mark:])]
	}
	if len(e.payload) >= snapshotFrameBytes {
		e.flush(e.payload)
		e.payload = e.payload[:0]
	}
	return e.err == nil
}

func (e *snapshotEncoder) flush(payload []byte) {
	if e.err == nil {
		e.seq++
		e.frame = appendWALFrame(e.frame[:0], e.seq, payload)
		_, n := binary.Uvarint(e.frame)
		e.err = e.emit(e.frame[n:])
	}
}

// loadSnapshot applies the snapshot whose decoded frames next returns
// (ok false when its source ends) into a staging database, swaps that
// in for the current catalog and tables when the end frame arrives,
// and returns the snapshot's position, its first frame's seq − 1.
// next's errors come back as they are, so next refuses a damaged frame
// itself; a break in the sequence, a group that does not apply, or a
// source that ends first is ErrBadSnapshot. A failed load changes
// nothing. Open loads into a fresh database, a replica into a live one
// (LoadReplicaSnapshot).
func (db *Database) loadSnapshot(next func() (fr walFrame, ok bool, err error)) (uint64, error) {
	if db.wal != nil {
		return 0, fmt.Errorf("engine: cannot replace the contents of a database with a log")
	}
	stage := &Database{
		reg:    db.reg,
		cat:    catalog.New(),
		tables: make(map[string]*exec.Table),
		locks:  make(map[string]*tableLock),
		obs:    db.obs,
	}
	stage.state.Store(&state{})
	var pos uint64
	for n := uint64(1); ; n++ {
		fr, ok, err := next()
		if err != nil {
			return 0, err
		}
		if !ok {
			return 0, fmt.Errorf("%w: ends after frame %d, before its end frame", ErrBadSnapshot, n-1)
		}
		if n == 1 {
			pos = fr.seq - 1 // decodeWALFrame refuses seq 0
		}
		if fr.seq != pos+n {
			err = fmt.Errorf("seq %d, want %d", fr.seq, pos+n)
		}
		if err == nil && len(fr.payload) == 0 {
			break
		}
		if err == nil {
			err = stage.applyGroup(fr.payload)
		}
		if err != nil {
			return 0, fmt.Errorf("%w: frame %d: %v", ErrBadSnapshot, n, err)
		}
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	db.commitMu.Lock()
	defer db.commitMu.Unlock()
	db.cat, db.tables, db.locks = stage.cat, stage.tables, stage.locks
	db.state.Store(stage.state.Load())
	db.gen.Add(1) // the schema changed under every cached plan
	return pos, nil
}

// readSnapshot loads the snapshot file src through walReader and
// returns its position. Older formats are refused by name: the
// unframed ones as ErrBadSnapshot, older frame formats as
// ErrWALFormat too.
func (db *Database) readSnapshot(src io.ReaderAt) (uint64, error) {
	r := walReader{f: src}
	if _, err := r.fill(0); err != nil {
		return 0, err
	}
	for _, old := range []string{"TIPDB2", "TIPDB3"} {
		if bytes.HasPrefix(r.buf, []byte(old)) {
			return 0, fmt.Errorf("%w: format %s is one unframed group; this version reads snapshots framed like wal.log", ErrBadSnapshot, old)
		}
	}
	next := func() (walFrame, bool, error) {
		fr, _, ok, err := r.next()
		if errors.Is(err, ErrWALFormat) {
			return fr, false, fmt.Errorf("%w: %w", ErrBadSnapshot, err)
		}
		if err != nil {
			return fr, false, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
		}
		return fr, ok, nil
	}
	pos, err := db.loadSnapshot(next)
	if err != nil {
		return 0, err
	}
	if _, ok, err := next(); ok || err != nil || len(r.buf) > 0 {
		return 0, fmt.Errorf("%w: bytes after the end frame", ErrBadSnapshot)
	}
	return pos, nil
}
