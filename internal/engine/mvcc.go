package engine

import (
	"sync"

	"tip/internal/exec"
)

// MVCC bookkeeping. The version clock (Database.vclock) stamps every
// writer statement; writers build immutable table versions carrying
// their sequence, and readers pin versions per statement instead of
// taking table read locks. The horizon tracker knows which old
// sequences in-flight statement snapshots still reach — their hash
// postings must not be reclaimed — and hands writers the oldest one as
// their reclamation horizon.

// horizonTracker records in-flight statement snapshots. It is a small
// mutex-guarded registry, not a lock table: registration never blocks
// behind any writer, it only serialises map updates.
type horizonTracker struct {
	mu      sync.Mutex
	readers map[*Session]uint64 // in-flight statement → min pinned seq
}

func newHorizonTracker() *horizonTracker {
	return &horizonTracker{readers: make(map[*Session]uint64)}
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
// is registered. Sessions register one statement at a time, so the map
// stays small.
func (h *horizonTracker) min(cur uint64) uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	m := cur
	for _, seq := range h.readers {
		if seq < m {
			m = seq
		}
	}
	return m
}

// beginWrite opens a writer over the version the statement pinned of
// the named (lower-cased) table — its latest one, under the table's
// lock, or the transaction's own — stamped with a fresh version-clock
// sequence. The horizon is capped at seq-1: postings and slots this
// statement kills are stamped seq and must survive until Discard could
// revert them. Inside a transaction the cap is its first write
// sequence minus one: until COMMIT the published version still reaches
// the postings the transaction killed, and ROLLBACK must find them.
func (s *Session) beginWrite(name string) *exec.TableWriter {
	seq := s.db.vclock.Add(1)
	horizon := s.db.hz.min(seq - 1)
	if tx := s.tx; tx != nil {
		if tx.first == 0 {
			tx.first = seq
		}
		horizon = min(horizon, tx.first-1)
	}
	return s.snaps[name].NewWriter(seq, horizon)
}

// captureSnaps pins a consistent set of table versions for the named
// footprint tables (lower-cased; unknown names are skipped) and
// registers the statement with the horizon tracker so no writer
// reclaims state these snapshots can still see. A table the session's
// transaction wrote pins the transaction's private version.
//
// The value to register is only known after pinning, so the capture
// validates: pin, register the minimum pinned sequence, then re-pin and
// retry if any version changed, or a multi-table commit started or
// finished publishing (db.pub). Once a pass is stable, every later
// reclamation decision sees the registration, and the pinned set holds
// all of every commit or none of it. The caller holds the catalog lock
// at least shared and calls releaseSnaps when the statement finishes.
func (s *Session) captureSnaps(names []string) {
	if len(names) == 0 {
		return
	}
	if s.snaps == nil {
		s.snaps = make(map[string]*exec.TableVersion, len(names))
	}
	for {
		pub := s.db.pub.Load()
		minSeq := s.db.vclock.Load()
		for _, name := range names {
			tbl, ok := s.db.tables[name]
			if !ok {
				continue
			}
			v := s.pin(name, tbl, pub)
			s.snaps[name] = v
			if v.Seq < minSeq {
				minSeq = v.Seq
			}
		}
		if len(s.snaps) == 0 {
			return
		}
		s.db.hz.beginRead(s, minSeq)
		stable := s.db.pub.Load() == pub
		for name, v := range s.snaps {
			if !stable || s.pin(name, s.db.tables[name], pub) != v {
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

// pin returns the version of tbl a statement of s reads while pub (if
// any) is being published: the transaction's private version, else the
// committed one.
func (s *Session) pin(name string, tbl *exec.Table, pub *publication) *exec.TableVersion {
	if t := s.tx.staged(name); t != nil {
		return t.v
	}
	if pub != nil {
		if v, ok := (*pub)[tbl]; ok {
			return v
		}
	}
	return tbl.Snapshot()
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

// Close releases the session's engine-side state: an open transaction
// is rolled back, which logs nothing. Safe to call more than once; the
// session must not be used afterwards.
func (s *Session) Close() {
	if s.tx != nil {
		_ = s.rollback()
	}
}
