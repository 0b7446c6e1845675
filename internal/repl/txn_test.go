package repl_test

import (
	"errors"
	"testing"

	"tip/internal/engine"
)

// Replica side of the interleaved-transaction repros: A BEGIN; INSERT 1
// · B INSERT 2 · A ROLLBACK leaves B's row alone, on the primary and on
// the replica. B's INSERT meets A's hold on t (ErrBusy) and is retried
// after the ROLLBACK, as a client would.
func TestReplicaInterleavedRollback(t *testing.T) {
	p := startPrimary(t)
	p.mustExec(t, `CREATE TABLE t (a INT)`)
	r := startReplica(t, p.srv.Addr())
	r.converge(t, p)
	a, b := p.db.NewSession(), p.db.NewSession()
	defer a.Close()
	defer b.Close()
	exec := func(s *engine.Session, sql string) error {
		_, err := s.Exec(sql, nil)
		return err
	}
	for _, sql := range []string{`BEGIN`, `INSERT INTO t VALUES (1)`} {
		if err := exec(a, sql); err != nil {
			t.Fatal(err)
		}
	}
	busy := exec(b, `INSERT INTO t VALUES (2)`)
	if busy != nil && !errors.Is(busy, engine.ErrBusy) {
		t.Fatal(busy)
	}
	if err := exec(a, `ROLLBACK`); err != nil {
		t.Fatal(err)
	}
	if busy != nil {
		if err := exec(b, `INSERT INTO t VALUES (2)`); err != nil {
			t.Fatal(err)
		}
	}
	r.converge(t, p)
	if live, replica := rows(t, p.db, "t"), rows(t, r.db, "t"); live != "2 " || replica != "2 " {
		t.Fatalf("rows primary %q, replica %q; want \"2 \" on both", live, replica)
	}
}

// A BEGIN · B BEGIN: two transactions open at once while a replica
// bootstraps. The snapshot holds neither; each arrives as its commit
// group.
func TestReplicaConcurrentBegins(t *testing.T) {
	p := startPrimary(t)
	p.mustExec(t, `CREATE TABLE t (a INT)`)
	p.mustExec(t, `CREATE TABLE u (a INT)`)
	a, b := p.db.NewSession(), p.db.NewSession()
	defer a.Close()
	defer b.Close()
	for _, step := range []struct {
		s   *engine.Session
		sql string
	}{{a, `BEGIN`}, {b, `BEGIN`}, {a, `INSERT INTO t VALUES (1)`}, {b, `INSERT INTO u VALUES (2)`}} {
		if _, err := step.s.Exec(step.sql, nil); err != nil {
			t.Fatalf("%s: %v", step.sql, err)
		}
	}
	r := startReplica(t, p.srv.Addr())
	r.converge(t, p)
	if n := countRows(t, r.db, "t") + countRows(t, r.db, "u"); n != 0 {
		t.Fatalf("replica bootstrapped with %d uncommitted rows", n)
	}
	for _, s := range []*engine.Session{a, b} {
		if _, err := s.Exec(`COMMIT`, nil); err != nil {
			t.Fatal(err)
		}
	}
	r.converge(t, p)
	for _, table := range []string{"t", "u"} {
		if live, replica := rows(t, p.db, table), rows(t, r.db, table); live != replica || live == "" {
			t.Errorf("table %s: primary %q, replica %q", table, live, replica)
		}
	}
}
