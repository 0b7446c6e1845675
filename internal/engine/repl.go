package engine

import (
	"errors"
	"time"
)

// Replica-side engine support. A replica database is an ordinary
// engine.Database switched read-only: client sessions can run queries
// (MVCC snapshot reads take no table locks, so they ride alongside the
// apply stream), while state-changing statements get ErrReadOnly. The
// one writer is the replication apply session, which replays WAL frame
// payloads shipped from the primary through the same replayRecord path
// crash recovery uses — a replica is recovery that never finishes.

// ErrReadOnly reports a state-changing statement sent to a read-only
// replica. Writes belong on the primary.
var ErrReadOnly = errors.New("engine: read-only replica: writes must go to the primary")

// SetReadOnly switches the database in or out of read-only mode. In
// read-only mode, loggable statements (DDL, DML, transaction control)
// from ordinary sessions fail with ErrReadOnly; the replication apply
// session (NewReplicaSession) is exempt.
func (db *Database) SetReadOnly(on bool) { db.readOnly.Store(on) }

// ReadOnly reports whether the database is in read-only replica mode.
func (db *Database) ReadOnly() bool { return db.readOnly.Load() }

// NewReplicaSession opens the replication apply session: the one
// session allowed to change state on a read-only replica. The caller
// (internal/repl) serialises all use of it.
func (db *Database) NewReplicaSession() *Session {
	return &Session{db: db, replApply: true}
}

// ApplyWALPayload re-executes one shipped WAL frame payload (the bytes
// after the frame header) on the replica, under the statement's
// original NOW. The session must come from NewReplicaSession and frames
// must be applied in seq order — the caller owns that bookkeeping.
func (s *Session) ApplyWALPayload(payload []byte) error {
	return s.db.replayRecord(s, payload)
}

// ReplicationSnapshot encodes a consistent snapshot for replica
// bootstrap and returns it with the epoch it carries and the WAL seq it
// reflects: a replica that loads the data and subscribes from seq sees
// every statement exactly once. Writers are quiesced on the checkpoint
// gate while the position is read and the tables encoded, so no
// statement straddles the snapshot and its WAL frame.
//
// An open transaction's applied-so-far statements are inside the
// snapshot but its undo log is not, so a later ROLLBACK frame could not
// be honoured by the bootstrapping replica; the snapshot therefore
// briefly waits for open transactions to finish. If one stays open past
// the wait the snapshot proceeds — a replica that then fails to apply a
// ROLLBACK re-bootstraps, which heals the divergence.
func (db *Database) ReplicationSnapshot() (epoch, seq uint64, data []byte) {
	deadline := time.Now().Add(time.Second)
	for {
		db.ckpt.Lock()
		if db.hz.openTxns() == 0 || time.Now().After(deadline) {
			break
		}
		db.ckpt.Unlock()
		time.Sleep(time.Millisecond)
	}
	defer db.ckpt.Unlock()
	if w := db.wal; w != nil {
		epoch, seq = w.epoch, w.flushedSeq.Load()
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	return epoch, seq, db.encodeSnapshot(epoch)
}

// LoadReplicaSnapshot replaces the database's entire contents with a
// snapshot shipped from the primary (replica bootstrap and
// re-bootstrap). The old catalog and tables are swapped out atomically
// under the catalog lock, and in-flight snapshot reads keep their
// pinned versions. Refused on a database with a log — a replica's
// durability is the primary's.
func (db *Database) LoadReplicaSnapshot(data []byte) error {
	_, err := db.loadSnapshot(data)
	return err
}

// openTxns reports how many transactions are currently open.
func (h *horizonTracker) openTxns() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.txns)
}
