package engine

import (
	"errors"

	"tip/internal/exec"
	"tip/internal/temporal"
)

// Transactions and commit publication. A writer statement builds the
// next version of its table. In autocommit it publishes the version at
// once and logs its effects as a group of one. Inside a transaction the
// version stays private: the transaction's later statements build on it
// and read it, other sessions read the committed version, and the
// transaction keeps the table's lock (see tableLock). COMMIT publishes
// the private versions and logs the transaction's effects as one
// group; ROLLBACK, Session.Close and a crash drop them unlogged.

// ErrDDLInTransaction reports a schema change inside an explicit
// transaction. DDL runs in autocommit only.
var ErrDDLInTransaction = errors.New("engine: DDL inside a transaction is not supported")

// txState is an open transaction.
type txState struct {
	// time is the transaction time, read from the engine clock at
	// BEGIN: the value of NOW for every statement of the transaction
	// (unless the session overrides NOW), after Clifford et al.
	time   temporal.Chronon
	tables []*stagedTable // the tables it wrote, in first-write order
	group  []byte         // its effect records (durable databases only)
}

// stagedTable is a table version a commit is about to publish.
type stagedTable struct {
	name string // lower-cased for a transaction; as logged for replay
	tbl  *exec.Table
	lock *tableLock // the transaction's hold on the table; nil in replay
	v    *exec.TableVersion
}

// staged returns the transaction's private state for the named
// (lower-cased) table, or nil, also when there is no transaction.
func (tx *txState) staged(name string) *stagedTable {
	if tx == nil {
		return nil
	}
	for _, t := range tx.tables {
		if t.name == name {
			return t
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

// publication is a multi-table commit in progress: the versions its
// tables had before it.
type publication map[*exec.Table]*exec.TableVersion

// publish installs a commit's versions. A commit of several tables
// installs them one by one and posts the old ones in db.pub meanwhile:
// captureSnaps pins those until db.pub clears, so a statement sees all
// of the commit or none of it. pubMu admits one such commit at a time.
func (db *Database) publish(tables []*stagedTable) {
	if len(tables) <= 1 {
		for _, t := range tables {
			t.tbl.Install(t.v)
		}
		return
	}
	db.pubMu.Lock()
	defer db.pubMu.Unlock()
	p := make(publication, len(tables))
	for _, t := range tables {
		p[t.tbl] = t.tbl.Snapshot()
	}
	db.pub.Store(&p)
	for i, t := range tables {
		t.tbl.Install(t.v)
		if i == 0 && db.midPublish != nil {
			db.midPublish()
		}
	}
	db.pub.Store(nil)
}

// endWrite ends the writer of a statement that succeeded: it publishes
// the new version in autocommit, or keeps it private to the
// transaction. A group too large to log fails the statement instead,
// and the writer is dropped.
func (s *Session) endWrite(name string, tbl *exec.Table, w *exec.TableWriter) error {
	if s.fx != nil && len(*s.fx) > maxGroupPayload() {
		return ErrGroupTooLarge
	}
	v := w.Commit()
	tx := s.tx
	if tx == nil {
		tbl.Install(v)
		return nil
	}
	t := tx.staged(name)
	if t == nil {
		t = &stagedTable{name: name, tbl: tbl, lock: s.db.locks[name]}
		tx.tables = append(tx.tables, t)
	}
	t.v = v
	return nil
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

var errNoTxn = errors.New("engine: no open transaction")
