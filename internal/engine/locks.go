package engine

import (
	"sort"
	"strings"
	"sync"

	"tip/internal/exec"
	"tip/internal/sql/ast"
)

// Locking and snapshot acquisition. The catalog lock (Database.mu)
// guards the schema, the tables/locks maps and the WAL handle;
// per-table mutexes serialise writers. A statement's footprint is
// decided up front from its AST (exec.StatementTables), before any
// shared state is touched:
//
//   - DDL takes the catalog lock exclusively and needs nothing else
//     (exclusive catalog hold implies no statement is in flight, so DDL
//     may install new table versions directly).
//   - Everything that binds rows takes the catalog lock shared, then
//     the write locks of exactly the tables it writes, in sorted name
//     order. Read tables take no lock at all: the statement pins an
//     immutable version snapshot of every footprint table instead
//     (captureSnaps), so one long scan never blocks a writer and
//     vice versa.
//   - ROLLBACK writes the tables named in the transaction's undo log.
//   - BEGIN, COMMIT and SET NOW = DEFAULT touch only session-local
//     state and lock nothing. SET NOW = <value> reads its value
//     subquery through pinned snapshots like any other read.
//
// Table locks are only ever acquired while the catalog lock is held
// shared, and only ever created/deleted while it is held exclusively,
// so the locks map is stable during acquisition and a dropped table's
// lock can never be mid-acquisition.

// lockFor acquires every lock stmt needs, pins the statement's table
// snapshots, and returns the matching release function.
func (s *Session) lockFor(stmt ast.Statement) func() {
	switch st := stmt.(type) {
	case *ast.CreateTable, *ast.DropTable, *ast.CreateIndex, *ast.DropIndex:
		s.db.mu.Lock()
		return s.db.mu.Unlock
	case *ast.Begin, *ast.Commit:
		return func() {}
	case *ast.SetNow:
		if st.Value == nil {
			return func() {}
		}
		reads, writes := exec.StatementTables(stmt)
		return s.lockTables(reads, writes)
	case *ast.Rollback:
		var writes []string
		if s.tx != nil {
			seen := map[string]bool{}
			for _, e := range s.tx.UndoEntries() {
				key := strings.ToLower(e.Table)
				if !seen[key] {
					seen[key] = true
					writes = append(writes, key)
				}
			}
		}
		return s.lockTables(nil, writes)
	default:
		reads, writes := exec.StatementTables(stmt)
		return s.lockTables(reads, writes)
	}
}

// lockTables takes the catalog lock shared plus the write locks of the
// written tables in sorted name order, then pins version snapshots of
// the whole footprint (written tables after their lock is held, so the
// pinned version is the latest), and returns the release function.
// Names must be lower-cased; names without a registered table are
// skipped — the statement will fail resolution under the catalog lock
// anyway.
func (s *Session) lockTables(reads, writes []string) func() {
	db := s.db
	db.mu.RLock()
	write := make(map[string]bool, len(reads)+len(writes))
	for _, t := range writes {
		write[t] = true
	}
	for _, t := range reads {
		if _, ok := write[t]; !ok {
			write[t] = false
		}
	}
	names := make([]string, 0, len(write))
	for t := range write {
		if _, ok := db.locks[t]; ok {
			names = append(names, t)
		}
	}
	sort.Strings(names)
	var held []*sync.Mutex
	for _, t := range names {
		// Per-table op counters, counted on the same filtered name list
		// the snapshots use (nonexistent tables never reach here).
		to := db.obs.tableOf(t)
		if write[t] {
			to.writes.Inc()
			l := db.locks[t]
			l.Lock()
			held = append(held, l)
		} else {
			to.reads.Inc()
		}
	}
	s.captureSnaps(names)
	return func() {
		s.releaseSnaps()
		for i := len(held) - 1; i >= 0; i-- {
			held[i].Unlock()
		}
		db.mu.RUnlock()
	}
}

// isDDL reports whether a statement reshapes the schema (and must bump
// the catalog generation on success).
func isDDL(stmt ast.Statement) bool {
	switch stmt.(type) {
	case *ast.CreateTable, *ast.DropTable, *ast.CreateIndex, *ast.DropIndex:
		return true
	default:
		return false
	}
}
