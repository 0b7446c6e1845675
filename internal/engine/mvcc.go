package engine

import (
	"sync"

	"tip/internal/exec"
	"tip/internal/sql/ast"
)

// MVCC bookkeeping. The version clock (Database.vclock) stamps every
// writer statement; committed writers publish immutable table versions
// carrying their sequence, and readers pin versions per statement
// instead of taking table read locks. The horizon tracker knows which
// old sequences are still reachable — by an open transaction (whose
// undo log addresses row slots that must not be reused) or by a
// statement's pinned snapshot (whose hash-index postings must not be
// reclaimed) — and hands writers the oldest one as their reclamation
// horizon.

// horizonTracker records open transactions and in-flight statement
// snapshots. It is a small mutex-guarded registry, not a lock table:
// registration never blocks behind any writer, it only serialises map
// updates.
type horizonTracker struct {
	mu      sync.Mutex
	txns    map[int64]uint64    // open txn id → version clock at begin
	readers map[*Session]uint64 // in-flight statement → min pinned seq
}

func newHorizonTracker() *horizonTracker {
	return &horizonTracker{
		txns:    make(map[int64]uint64),
		readers: make(map[*Session]uint64),
	}
}

func (h *horizonTracker) beginTxn(id int64, seq uint64) {
	h.mu.Lock()
	h.txns[id] = seq
	h.mu.Unlock()
}

func (h *horizonTracker) endTxn(id int64) {
	h.mu.Lock()
	delete(h.txns, id)
	h.mu.Unlock()
}

func (h *horizonTracker) beginRead(s *Session, seq uint64) {
	h.mu.Lock()
	h.readers[s] = seq
	h.mu.Unlock()
}

func (h *horizonTracker) endRead(s *Session) {
	h.mu.Lock()
	delete(h.readers, s)
	h.mu.Unlock()
}

// min returns the oldest sequence still reachable, or cur when nothing
// is registered. Sessions register one statement at a time, so both
// maps stay small.
func (h *horizonTracker) min(cur uint64) uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	m := cur
	for _, seq := range h.txns {
		if seq < m {
			m = seq
		}
	}
	for _, seq := range h.readers {
		if seq < m {
			m = seq
		}
	}
	return m
}

// beginWrite opens a table writer stamped with a fresh version-clock
// sequence. The caller must hold the table's write lock, and — like
// every statement that reaches here through lockTables — have pinned
// its snapshots: captureSnaps registered the session at or below the
// version clock it read, so hz.min is already below seq.
//
// The seq-1 cap restates that as an invariant the writer depends on:
// state this statement itself kills (hash postings, freed slots) is
// stamped seq and must survive until Commit, because Discard has to
// find and revert it. A horizon at seq would let Add's opportunistic
// GC drop a posting the in-flight statement just killed.
func (s *Session) beginWrite(tbl *exec.Table) *exec.TableWriter {
	seq := s.db.vclock.Add(1)
	return tbl.BeginWrite(seq, s.db.hz.min(seq-1))
}

// captureSnaps pins a consistent set of table versions for the named
// footprint tables (lower-cased; unknown names are skipped) and
// registers the statement with the horizon tracker so no writer
// reclaims state these snapshots can still see.
//
// Registration must cover the pinned sequences before any writer can
// consult the horizon, but the value to register is only known after
// pinning — so the capture validates: pin, register the minimum pinned
// sequence, then re-load each table's latest version and retry if any
// advanced in between. Once a pass is stable, every later reclamation
// decision sees this statement's registration, and anything it drops
// (died ≤ horizon ≤ our pinned seqs) was already invisible to these
// snapshots. The caller must hold the catalog lock at least shared and
// must call releaseSnaps when the statement finishes.
func (s *Session) captureSnaps(names []string) {
	if len(names) == 0 {
		return
	}
	if s.snaps == nil {
		s.snaps = make(map[string]*exec.TableVersion, len(names))
	}
	for {
		minSeq := s.db.vclock.Load()
		for _, name := range names {
			tbl, ok := s.db.tables[name]
			if !ok {
				continue
			}
			v := tbl.Snapshot()
			s.snaps[name] = v
			if v.Seq < minSeq {
				minSeq = v.Seq
			}
		}
		if len(s.snaps) == 0 {
			return
		}
		s.db.hz.beginRead(s, minSeq)
		stable := true
		for name, v := range s.snaps {
			if s.db.tables[name].Snapshot() != v {
				stable = false
				break
			}
		}
		if stable {
			return
		}
		s.db.hz.endRead(s)
	}
}

// releaseSnaps drops the statement's pinned snapshots and horizon
// registration.
func (s *Session) releaseSnaps() {
	if len(s.snaps) == 0 {
		return
	}
	s.db.hz.endRead(s)
	for name := range s.snaps {
		delete(s.snaps, name)
	}
}

// Close releases the session's engine-side registrations. An abandoned
// open transaction is rolled back as a logged ROLLBACK, so replay ends
// it where it ended live instead of folding later statements into it;
// a pending Interrupt is cleared first so it cannot abort that
// rollback. Safe to call more than once; the session must not be used
// afterwards.
func (s *Session) Close() {
	if s.tx != nil {
		s.cancel.Reset()
		_, _ = s.runStatement(&ast.Rollback{}, "ROLLBACK", nil)
	}
}
