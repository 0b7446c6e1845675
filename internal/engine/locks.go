package engine

import (
	"errors"
	"strings"
	"sync"

	"tip/internal/exec"
	"tip/internal/sql/ast"
)

// Locking and snapshot acquisition. The catalog lock (Database.mu)
// guards the schema and the tables/locks maps; one lock per table
// orders its writers. A statement's footprint is decided up front from
// its AST (exec.StatementTables), before any shared state is touched:
//
//   - DDL takes the catalog lock exclusively, which waits out every
//     running statement, and fails with ErrBusy on a table an open
//     transaction holds.
//   - A DML statement takes the catalog lock shared and the lock of its
//     one written table. The log records what it wrote, not what it
//     read, so it reads other tables as a pure reader does: through
//     pinned versions (captureSnaps), with no lock.
//   - COMMIT takes no lock and ends by releasing the transaction's
//     locks, as ROLLBACK does; statements that bind no table, such as
//     BEGIN, take the catalog lock shared.
//
// Table locks are acquired only under the shared catalog lock and
// created or deleted only under the exclusive one, so the locks map is
// stable during acquisition.

// ErrBusy reports a statement that needs a table an open transaction
// has written: the transaction holds the table until it commits or
// rolls back. Nothing was applied; retry later.
var ErrBusy = errors.New("engine: table is held by an open transaction")

// tableLock is a table's write lock. A writer statement holds it while
// it runs; a transaction keeps it parked from the end of its first
// statement on the table until it ends. A statement waits for a running
// holder, but fails at once with ErrBusy on a parked lock, also when it
// is parked while the statement waits. Nobody waits on a client that
// may be idle, so there is no deadlock to detect — which is also what
// lets COMMIT take the checkpoint gate while it holds table locks, the
// reverse of an autocommit writer's order.
type tableLock struct {
	mu     sync.Mutex
	owner  *Session      // nil when free
	parked bool          // owner is between the statements of its transaction
	wake   chan struct{} // closed at the next release or park; nil while nobody waits
}

// acquire takes the lock for a statement of s, waiting while another
// statement runs under it; s takes back a lock its transaction parked.
func (l *tableLock) acquire(s *Session) error {
	l.mu.Lock()
	for {
		switch {
		case l.owner == nil || l.owner == s:
			l.owner, l.parked = s, false
			l.mu.Unlock()
			return nil
		case l.parked:
			l.mu.Unlock()
			return ErrBusy
		}
		if l.wake == nil {
			l.wake = make(chan struct{})
		}
		wake := l.wake
		l.mu.Unlock()
		<-wake
		l.mu.Lock()
	}
}

// release frees the lock at the end of a statement, or parks it when
// the statement's transaction keeps the table.
func (l *tableLock) release(park bool) {
	l.mu.Lock()
	if park {
		l.parked = true
	} else {
		l.owner, l.parked = nil, false
	}
	if l.wake != nil {
		close(l.wake)
		l.wake = nil
	}
	l.mu.Unlock()
}

// checkFree fails with ErrBusy while an open transaction holds the
// table. DDL calls it under the exclusive catalog lock.
func (db *Database) checkFree(table string) error {
	l := db.locks[strings.ToLower(table)]
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.owner != nil {
		return ErrBusy
	}
	return nil
}

// lockFor acquires every lock stmt needs, pins the statement's table
// snapshots, and returns the matching release function.
func (s *Session) lockFor(stmt ast.Statement) (func(), error) {
	switch stmt.(type) {
	case *ast.CreateTable, *ast.DropTable, *ast.CreateIndex, *ast.DropIndex:
		s.db.mu.Lock()
		return s.db.mu.Unlock, nil
	case *ast.Commit:
		// The transaction's locks outlast its publication and its log
		// append, so the log holds its group before any later writer's.
		if tx := s.tx; tx != nil {
			return tx.release, nil
		}
	}
	tables, write := exec.StatementTables(stmt)
	return s.lockTables(tables, write)
}

// lockTables takes the catalog lock shared and the lock of the written
// table, if any, then pins versions of all the named tables (the
// written table's after its lock is held, so it is the latest one, or
// the transaction's own), and returns the release function. Names must
// be lower-cased; names without a registered table are skipped — the
// statement fails resolution under the catalog lock anyway.
func (s *Session) lockTables(tables []string, write string) (func(), error) {
	db := s.db
	db.mu.RLock()
	wl := db.locks[write]
	if wl != nil {
		db.obs.tableOf(write).writes.Inc()
		if err := wl.acquire(s); err != nil {
			db.mu.RUnlock()
			return nil, err
		}
	}
	names := tables[:0]
	for _, t := range tables {
		if _, ok := db.locks[t]; ok {
			if t != write {
				db.obs.tableOf(t).reads.Inc()
			}
			names = append(names, t)
		}
	}
	s.captureSnaps(names)
	return func() {
		clear(s.snaps)
		if wl != nil {
			wl.release(s.tx.staged(write) != nil)
		}
		db.mu.RUnlock()
	}, nil
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
