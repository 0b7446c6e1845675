package engine

import (
	"errors"
	"strings"
	"sync"

	"tip/internal/exec"
	"tip/internal/sql/ast"
)

// Locking. The order is catalog lock (Database.mu) → table lock →
// commitMu → wal.mu. A statement's footprint comes from its AST
// (exec.StatementTables) before any shared state is touched:
//
//   - DDL takes the catalog lock exclusively, which waits out every
//     running statement, and fails with ErrBusy on a table an open
//     transaction holds.
//   - Any other statement takes the catalog lock shared, a DML statement
//     also the lock of the one table it writes; reads go through the
//     pinned state, with no lock.
//   - COMMIT releases its transaction's table locks after its commit step.
//   - Checkpoint and ReplicationSnapshot take the catalog lock shared,
//     then commitMu.
//
// Table locks are taken under the shared catalog lock and created or
// deleted under the exclusive one, so the locks map is stable meanwhile.

// ErrBusy reports a statement that needs a table an open transaction
// has written: the transaction holds the table until it commits or
// rolls back. Nothing was applied; retry later.
var ErrBusy = errors.New("engine: table is held by an open transaction")

// tableLock is a table's write lock. A writer statement holds it while
// it runs; a transaction keeps it parked from the end of its first
// statement on the table until it ends. A statement waits for a running
// holder, but fails at once with ErrBusy on a parked lock, also when it
// is parked while the statement waits. Nobody waits on a client that
// may be idle, so there is no deadlock to detect.
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

// lockFor acquires every lock stmt needs, pins the published state, and
// returns the matching release function.
func (s *Session) lockFor(stmt ast.Statement) (func(), error) {
	switch stmt.(type) {
	case *ast.CreateTable, *ast.DropTable, *ast.CreateIndex, *ast.DropIndex:
		s.db.mu.Lock()
		return s.db.mu.Unlock, nil
	case *ast.Commit:
		// The transaction's locks outlast its commit step, so the log
		// holds its group before any later writer's of its tables.
		if tx := s.tx; tx != nil {
			return tx.release, nil
		}
	}
	tables, write := exec.StatementTables(stmt)
	return s.lockTables(tables, write)
}

// lockTables takes the catalog lock shared and the lock of the written
// table, if any, then pins the published state (after the write lock,
// so the written table's version in it is the latest), and returns the
// release function. Names must be lower-cased; a name without a table
// fails resolution later, under the catalog lock.
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
	for _, t := range tables {
		if _, ok := db.locks[t]; ok && t != write {
			db.obs.tableOf(t).reads.Inc()
		}
	}
	s.st = db.state.Load()
	return func() {
		s.st = nil
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
