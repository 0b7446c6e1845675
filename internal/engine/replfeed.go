package engine

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// The WAL as a replication feed. A frame body — {format, CRC32C, seq,
// group}, everything after the on-disk length prefix — is the unit of
// shipment: a primary forwards the exact bytes it logged, and a replica
// verifies the same checksum local replay would. The log file is the
// only source of frames: a WALTail reads it through the same walReader
// recovery uses, keeping its byte offset between calls, and waits for
// more on Appended. The append path knows nothing of replicas beyond
// closing one channel when a tail is waiting.

// ErrWALGone reports that frames a tail still owes were truncated out
// of the log by a Checkpoint: the reader must start over from a
// snapshot.
var ErrWALGone = errors.New("engine: WAL frames checkpointed away")

// WALTail follows a database's log file from a sequence number. Next
// returns the following frame bodies in order; at the end of the file
// the caller waits on Appended and calls Next again.
type WALTail struct {
	db    *Database
	f     *os.File
	r     walReader
	after uint64 // seq of the last frame returned (or the start position)
	base  uint64 // WALBase when the reader last started at offset 0
}

// TailWAL opens the database's log file for reading the frames with
// seq > afterSeq. It fails with ErrWALGone if a Checkpoint has already
// truncated some of them.
func (db *Database) TailWAL(afterSeq uint64) (*WALTail, error) {
	if db.wal == nil {
		return nil, errors.New("engine: wal tail: the database has no log")
	}
	t := &WALTail{db: db, after: afterSeq, base: db.WALBase()}
	if afterSeq < t.base {
		return nil, t.gone()
	}
	f, err := os.Open(filepath.Join(db.wal.dir, walFile))
	if err != nil {
		return nil, fmt.Errorf("engine: wal tail: %w", err)
	}
	t.f, t.r.f = f, f
	return t, nil
}

// Close releases the log file.
func (t *WALTail) Close() error { return t.f.Close() }

// Next returns the body of frame after+1, or nil when the file holds no
// complete frame past the tail yet: a frame cut short at the end of
// the file is still being written, not damage. The body aliases a
// buffer the next call reuses. Damage surfaces as ErrWAL, exactly as
// Open reports it.
//
// A Checkpoint truncates the file under the tail; it shows as a new
// WALBase. A tail that had returned every frame up to the new base
// starts over at offset 0, otherwise Next fails with ErrWALGone. Bytes
// read across the truncation fail the checksum or break the sequence,
// so every anomaly re-reads the base before it counts as damage.
func (t *WALTail) Next() ([]byte, error) {
	for {
		if base := t.db.WALBase(); base != t.base {
			if err := t.rewind(base); err != nil {
				return nil, err
			}
		}
		fr, body, ok, err := t.r.next()
		if err == nil && ok && fr.seq > t.after+1 {
			err = t.gone()
		}
		if err != nil {
			if t.db.WALBase() != t.base {
				continue // a truncation, not damage: rewind above
			}
			return nil, err
		}
		if !ok {
			return nil, nil
		}
		if fr.seq > t.after {
			t.after = fr.seq
			return body, nil
		}
	}
}

// rewind restarts the reader at offset 0 of a log truncated down to
// base, if the tail had returned every frame the truncation dropped.
func (t *WALTail) rewind(base uint64) error {
	t.base = base
	if t.after < base {
		return t.gone()
	}
	t.r.reset()
	return nil
}

func (t *WALTail) gone() error {
	return fmt.Errorf("%w: frames after seq %d are no longer in the log", ErrWALGone, t.after)
}

// Appended returns a channel closed by the next append to the log or by
// Close. Take it before the Next call that reaches the end of the file,
// so an append in between is not missed. It is nil once the database
// is closed. The channel is allocated only while a tail waits, so the
// append path pays one nil check whatever the number of tails.
func (t *WALTail) Appended() <-chan struct{} {
	w := t.db.wal
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.failed == errClosed {
		return nil
	}
	if w.appended == nil {
		w.appended = make(chan struct{})
	}
	return w.appended
}

// WALSeq returns the sequence number of the last WAL frame flushed to
// the log (the position a fully caught-up replica converges to); 0 for
// an in-memory database.
func (db *Database) WALSeq() uint64 {
	if db.wal == nil {
		return 0
	}
	return db.wal.flushedSeq.Load()
}

// WALBase returns the position of the database's last snapshot (0
// before the first): every frame past it is in the log file. Catch-up
// from a position below the base is impossible (Checkpoint truncated
// those frames); the subscriber needs a fresh snapshot instead.
func (db *Database) WALBase() uint64 {
	if db.wal == nil {
		return 0
	}
	return db.wal.base.Load()
}

// DecodeWALFrameBody validates a frame body's checksum and returns its
// seq and its payload, which aliases body.
func DecodeWALFrameBody(body []byte) (seq uint64, payload []byte, err error) {
	fr, err := decodeWALFrame(body)
	return fr.seq, fr.payload, err
}
