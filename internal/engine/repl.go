package engine

import (
	"errors"
	"fmt"
)

// Replica-side engine support. A replica database is an ordinary
// engine.Database switched read-only: client sessions can run queries
// (MVCC snapshot reads take no table locks, so they ride alongside the
// apply stream), while state-changing statements get ErrReadOnly. The
// one writer is the replication apply loop, which applies the commit
// groups shipped from the primary through the same applyGroup path
// crash recovery uses — a replica is recovery that never finishes.

// ErrReadOnly reports a state-changing statement sent to a read-only
// replica. Writes belong on the primary.
var ErrReadOnly = errors.New("engine: read-only replica: writes must go to the primary")

// SetReadOnly switches the database in or out of read-only mode. In
// read-only mode, DDL and DML from every session fail with
// ErrReadOnly; ApplyWALPayload still applies.
func (db *Database) SetReadOnly(on bool) { db.readOnly.Store(on) }

// ApplyWALPayload applies one shipped WAL frame payload (the bytes
// after the frame header): a commit group, all of it or none of it.
// Frames must be applied one at a time and in seq order — the caller
// owns that bookkeeping.
func (db *Database) ApplyWALPayload(payload []byte) error {
	return db.applyGroup(payload)
}

// ReplicationSnapshot captures a consistent snapshot for replica
// bootstrap at the WAL seq it reflects: a replica that loads it and
// subscribes from Seq sees every commit exactly once. Commits are held
// off on the checkpoint gate only while the position is read and the
// tables' versions pinned, so no commit straddles the capture and its
// WAL frame; the caller encodes the snapshot afterwards while commits
// go on. An open transaction is in neither: its private versions are
// not published, and its group reaches the log only when it commits.
func (db *Database) ReplicationSnapshot() *Snapshot {
	db.ckpt.Lock()
	defer db.ckpt.Unlock()
	var epoch, seq uint64
	if w := db.wal; w != nil {
		epoch, seq = w.epoch, w.flushedSeq.Load()
	}
	return db.capture(epoch, seq)
}

// LoadReplicaSnapshot replaces the database's entire contents with a
// snapshot shipped from the primary (replica bootstrap and
// re-bootstrap), whose frame bodies next returns as they arrive (see
// loadSnapshot). The old catalog and tables are swapped out atomically
// under the catalog lock once the end frame has applied, and in-flight
// snapshot reads keep their pinned versions; a stream that fails
// before then changes nothing; so does a body that fails to decode,
// which is ErrBadSnapshot. Refused on a database with a log — a
// replica's durability is the primary's.
func (db *Database) LoadReplicaSnapshot(next func() ([]byte, error)) error {
	frames := 0
	_, err := db.loadSnapshot(func() (walFrame, bool, error) {
		body, err := next()
		if body == nil || err != nil {
			return walFrame{}, false, err
		}
		frames++
		fr, err := decodeWALFrame(body)
		if err != nil {
			err = fmt.Errorf("%w: frame %d: %v", ErrBadSnapshot, frames, err)
		}
		return fr, true, err
	})
	return err
}
