package engine

import "tip/internal/exec"

// MVCC bookkeeping. Writers build immutable table versions, rows and
// indexes alike, and readers pin versions per statement instead of
// taking table read locks. The Go garbage collector reclaims whatever
// version no statement or transaction pins any more.

// captureSnaps pins a consistent set of table versions for the named
// footprint tables (lower-cased; unknown names are skipped). A table
// the session's transaction wrote pins the transaction's private
// version.
//
// The capture validates: it pins every table, then re-pins and retries
// if any version changed, or a multi-table commit started or finished
// publishing (db.pub) meanwhile, so the pinned set holds all of every
// commit or none of it. The caller holds the catalog lock at least
// shared and clears s.snaps when the statement finishes.
func (s *Session) captureSnaps(names []string) {
	if len(names) == 0 {
		return
	}
	if s.snaps == nil {
		s.snaps = make(map[string]*exec.TableVersion, len(names))
	}
	for {
		pub := s.db.pub.Load()
		for _, name := range names {
			if tbl, ok := s.db.tables[name]; ok {
				s.snaps[name] = s.pin(name, tbl, pub)
			}
		}
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

// Close releases the session's engine-side state: an open transaction
// is rolled back, which logs nothing. Safe to call more than once; the
// session must not be used afterwards.
func (s *Session) Close() {
	if s.tx != nil {
		_ = s.rollback()
	}
}
