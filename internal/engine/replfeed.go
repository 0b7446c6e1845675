package engine

import (
	"bytes"
	"errors"
	"fmt"
	"os"
)

// The WAL as a replication feed. A frame body — {CRC32C, epoch, seq,
// payload}, everything after the on-disk length prefix — is the unit of
// shipment: a primary forwards the exact bytes it logged, and a replica
// verifies the same checksum local replay would. Two sources produce
// frames: SubscribeWAL taps appends as they happen (the live tail), and
// ReadWALFrames streams the log file from a given position (catch-up).
// A subscriber that falls behind its buffer is closed rather than
// blocking the append path; it re-catches-up from the file and
// resubscribes, which is the same state machine a reconnecting replica
// runs.

// ReplFrame is one WAL frame as shipped to replication subscribers.
// Body is the full frame body (checksum included); Epoch and Seq are
// pre-decoded for routing without re-parsing.
type ReplFrame struct {
	Epoch uint64
	Seq   uint64
	Body  []byte
}

// WALSub is a live tail subscription. C delivers frames in strict
// append order with no gaps. The channel closes when the subscriber
// overruns its buffer (the append path never blocks on a slow
// consumer), when the WAL is disabled, or on Close.
type WALSub struct {
	C  <-chan ReplFrame
	ch chan ReplFrame
	w  *wal
}

// SubscribeWAL registers a live tail subscription with the given buffer
// capacity. Frames appended after the call are delivered in order;
// frames appended before it are not (read them from the file). Requires
// an enabled WAL.
func (db *Database) SubscribeWAL(buf int) (*WALSub, error) {
	if buf < 1 {
		buf = 1
	}
	db.mu.RLock()
	w := db.wal
	db.mu.RUnlock()
	if w == nil {
		return nil, errors.New("engine: SubscribeWAL: WAL not enabled")
	}
	sub := &WALSub{ch: make(chan ReplFrame, buf), w: w}
	sub.C = sub.ch
	w.mu.Lock()
	if w.subs == nil {
		w.subs = make(map[*WALSub]struct{})
	}
	w.subs[sub] = struct{}{}
	w.mu.Unlock()
	return sub, nil
}

// Close unregisters the subscription and closes its channel. Safe to
// call more than once and safe concurrently with appends.
func (sub *WALSub) Close() {
	w := sub.w
	w.mu.Lock()
	if _, ok := w.subs[sub]; ok {
		delete(w.subs, sub)
		close(sub.ch)
	}
	w.mu.Unlock()
}

// publishLocked fans a freshly appended frame out to the live
// subscribers. Caller holds w.mu, which is what serialises the sends
// into append order. A full subscriber is dropped and closed: the
// append path never waits on a consumer, and the closed channel tells
// the consumer to re-catch-up from the file.
func (w *wal) publishLocked(fr ReplFrame) {
	for sub := range w.subs {
		select {
		case sub.ch <- fr:
		default:
			delete(w.subs, sub)
			close(sub.ch)
		}
	}
}

// WALSeq returns the sequence number of the last WAL frame flushed to
// the log (the position a fully caught-up replica converges to). With
// no WAL enabled it reports the recovery position.
func (db *Database) WALSeq() uint64 {
	db.mu.RLock()
	w := db.wal
	seq := db.walSeq
	db.mu.RUnlock()
	if w == nil {
		return seq
	}
	return w.flushedSeq.Load()
}

// WALBase returns the sequence number preceding the oldest frame still
// retrievable from the log file. Catch-up from a position below the
// base is impossible (Checkpoint truncated those frames); the
// subscriber needs a fresh snapshot instead.
func (db *Database) WALBase() uint64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.walBase
}

// DecodeWALFrameBody validates a frame body's checksum and splits it
// into a ReplFrame. The returned Body and payload alias the input.
func DecodeWALFrameBody(body []byte) (ReplFrame, []byte, error) {
	fr, err := decodeWALFrame(body)
	if err != nil {
		return ReplFrame{}, nil, err
	}
	return ReplFrame{Epoch: fr.epoch, Seq: fr.seq, Body: body}, fr.payload, nil
}

// ReadWALFrames streams the log file at path, calling fn for every
// valid frame with seq > afterSeq, in order. Sequence continuity is
// checked across all scanned frames (not just the delivered ones); a
// torn trailing frame ends the stream cleanly, while corruption or a
// gap surfaces ErrWAL. Delivered frame bodies are freshly allocated, so
// fn may retain them. A missing file streams nothing.
func ReadWALFrames(path string, afterSeq uint64, fn func(ReplFrame) error) error {
	f, err := os.Open(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil
		}
		return fmt.Errorf("engine: wal read: %w", err)
	}
	defer f.Close()
	return scanWALFrames(f, func(fr walFrame, body []byte) (bool, error) {
		if fr.seq <= afterSeq {
			return true, nil
		}
		// Only delivered frames get a retained allocation.
		return true, fn(ReplFrame{Epoch: fr.epoch, Seq: fr.seq, Body: bytes.Clone(body)})
	})
}
