package engine

import (
	"errors"
	"strings"

	"tip/internal/exec"
	"tip/internal/temporal"
)

// Transactions and the commit step. The database publishes one
// immutable state: every table's version, at the slot CREATE TABLE gave
// the table. A statement pins the state with one atomic load (see
// lockTables) and reads it without locks.
//
// A writer statement builds the next version of its table. In
// autocommit it adds the version to the session's pending list. Inside a
// transaction the version stays private: the transaction's later
// statements build on it and read it as an overlay on the pinned state,
// other sessions read the published state, and the transaction keeps the
// table's lock (see tableLock). COMMIT moves the private versions to the
// pending list; ROLLBACK, Session.Close and a crash drop them unlogged.
// DDL adds the versions it installs to the pending list too.
//
// The statement then ends with the commit step, under commitMu: it
// appends the statement's group to the log and publishes its pending
// versions as one new state. A commit is thus visible once its group is
// written, and a multi-table commit is visible whole or not at all.

// ErrDDLInTransaction reports a schema change inside an explicit
// transaction. DDL runs in autocommit only.
var ErrDDLInTransaction = errors.New("engine: DDL inside a transaction is not supported")

// txState is an open transaction.
type txState struct {
	// time is the transaction time, read from the engine clock at
	// BEGIN: the value of NOW for every statement of the transaction
	// (unless the session overrides NOW), after Clifford et al.
	time   temporal.Chronon
	tables []stagedTable // the tables it wrote, in first-write order
	group  []byte        // its effect records (durable databases only)
}

// stagedTable is a table version not yet published.
type stagedTable struct {
	name string // lower-cased in a transaction, as logged in replay
	tbl  *exec.Table
	lock *tableLock         // the transaction's hold on the table
	v    *exec.TableVersion // nil drops the table
}

// staged returns the transaction's private state for the named
// (lower-cased) table, or nil, also when there is no transaction.
func (tx *txState) staged(name string) *stagedTable {
	if tx == nil {
		return nil
	}
	for i := range tx.tables {
		if tx.tables[i].name == name {
			return &tx.tables[i]
		}
	}
	return nil
}

// release gives up the transaction's table locks.
func (tx *txState) release() {
	for _, t := range tx.tables {
		t.lock.release(false)
	}
}

// state is a published state of the database: each table's version at
// the table's slot, nil at a free slot. It is never changed once stored.
type state struct {
	tables []*exec.TableVersion
}

// publish stores the next state: the current one with each staged
// version at its table's slot. The caller holds commitMu.
func (db *Database) publish(staged []stagedTable) {
	if len(staged) == 0 {
		return
	}
	cur := db.state.Load().tables
	n := len(cur)
	for _, t := range staged {
		n = max(n, t.tbl.Slot+1)
	}
	next := make([]*exec.TableVersion, n)
	copy(next, cur)
	for _, t := range staged {
		next[t.tbl.Slot] = t.v
	}
	db.state.Store(&state{tables: next})
}

// commit is the commit step of a statement that wrote something: under
// commitMu it runs the afterApply hook, appends group (if any) to the
// log, and publishes the session's pending versions. A failed append
// still publishes: the commit applies in memory and reports ErrWALFailed
// (see Exec). Under SyncEveryAppend the fsync waits after commitMu is
// released, so concurrent commits share one fsync.
func (s *Session) commit(group []byte) error {
	db := s.db
	var seq uint64
	var err error
	db.commitMu.Lock()
	if db.afterApply != nil {
		db.afterApply(s)
	}
	if len(group) > 0 {
		seq, err = db.appendGroup(group)
	}
	db.publish(s.pending)
	db.commitMu.Unlock()
	clear(s.pending)
	s.pending = s.pending[:0]
	if err == nil && seq > 0 && db.Durability() == SyncEveryAppend {
		err = db.syncStrict(seq)
	}
	return err
}

// endWrite ends the writer of a statement that succeeded: the new
// version goes to the pending list in autocommit, or stays private to
// the transaction. A group too large to log fails the statement
// instead, and the writer is dropped.
func (s *Session) endWrite(name string, tbl *exec.Table, w *exec.TableWriter) error {
	if s.fx != nil && len(*s.fx) > maxGroupPayload() {
		return ErrGroupTooLarge
	}
	v := w.Commit()
	tx := s.tx
	if tx == nil {
		s.pending = append(s.pending, stagedTable{tbl: tbl, v: v})
	} else if t := tx.staged(name); t != nil {
		t.v = v
	} else {
		tx.tables = append(tx.tables, stagedTable{name: name, tbl: tbl, lock: s.db.locks[name], v: v})
	}
	return nil
}

// Table resolves a table for the running statement (exec.Tables): the
// version its transaction wrote, else the one in the pinned state.
func (s *Session) Table(name string) (*exec.Table, *exec.TableVersion, bool) {
	key := strings.ToLower(name)
	tbl, ok := s.db.tables[key]
	if !ok {
		return nil, nil, false
	}
	if t := s.tx.staged(key); t != nil {
		return tbl, t.v, true
	}
	return tbl, s.st.tables[tbl.Slot], true
}

// rollback drops the open transaction: its private versions are
// dropped and its locks released.
func (s *Session) rollback() error {
	tx := s.tx
	if tx == nil {
		return errNoTxn
	}
	s.tx = nil
	tx.release()
	return nil
}

// Close releases the session's engine-side state: an open transaction
// is rolled back, which logs nothing. Safe to call more than once; the
// session must not be used afterwards.
func (s *Session) Close() {
	if s.tx != nil {
		_ = s.rollback()
	}
}

var errNoTxn = errors.New("engine: no open transaction")
