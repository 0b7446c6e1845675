package server_test

// Multi-session stress against the wire server (run with -race): writer
// sessions hammer disjoint tables inside transactions while reader
// sessions scan across all of them. Along the way every session checks
// that its own NOW override stays private and that rolled-back work
// does not outlive its transaction.

import (
	"fmt"
	"sync"
	"testing"

	"tip/internal/blade"
	"tip/internal/client"
	"tip/internal/core"
	"tip/internal/server"
	"tip/internal/types"
)

func connect(t *testing.T, srv *server.Server) *client.Conn {
	t.Helper()
	reg := blade.NewRegistry()
	core.MustRegister(reg)
	c, err := client.Connect(srv.Addr(), reg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

func TestMultiSessionStress(t *testing.T) {
	const (
		nTables = 4
		writers = 4 // one per table: disjoint write sets
		readers = 3
		txns    = 30 // per writer; even indexes commit, odd roll back
	)
	srv := start(t)
	setup := connect(t, srv)
	for i := 0; i < nTables; i++ {
		if _, err := setup.Exec(fmt.Sprintf(`CREATE TABLE t%d (a INT, valid Element)`, i), nil); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, writers+readers)
	fail := func(format string, args ...any) { errs <- fmt.Errorf(format, args...) }

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := connect(t, srv)
			// Each writer pins a distinct session NOW; it must never leak
			// into any other session.
			now := fmt.Sprintf("%d-01-01", 2000+w)
			if _, err := c.Exec(`SET NOW = '`+now+`'`, nil); err != nil {
				fail("writer %d set now: %v", w, err)
				return
			}
			table := fmt.Sprintf("t%d", w)
			for i := 0; i < txns; i++ {
				steps := []string{
					`BEGIN`,
					fmt.Sprintf(`INSERT INTO %s VALUES (:v, '{[1999-01-01, NOW]}')`, table),
				}
				if i%2 == 0 {
					steps = append(steps, `COMMIT`)
				} else {
					steps = append(steps, `ROLLBACK`)
				}
				for _, sql := range steps {
					if _, err := c.Exec(sql, map[string]types.Value{"v": types.NewInt(int64(i))}); err != nil {
						fail("writer %d %s: %v", w, sql, err)
						return
					}
				}
				if i%5 == 0 {
					res, err := c.Exec(`SELECT now()`, nil)
					if err != nil {
						fail("writer %d now(): %v", w, err)
						return
					}
					if got := res.Rows[0][0].Format(); got != now {
						fail("writer %d saw now = %s, want its own override %s", w, got, now)
						return
					}
				}
			}
		}(w)
	}

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c := connect(t, srv)
			for i := 0; i < 60; i++ {
				table := fmt.Sprintf("t%d", (r+i)%nTables)
				// Temporal scan through the period predicate path.
				res, err := c.Exec(fmt.Sprintf(
					`SELECT COUNT(*) FROM %s WHERE overlaps(valid, '[1999-02-01, 1999-03-01]')`, table), nil)
				if err != nil {
					fail("reader %d scan %s: %v", r, table, err)
					return
				}
				// Never more rows than the writer ever commits (the even
				// indexes) plus one: transactions roll back by undo log and
				// statements snapshot published versions, so a reader
				// legitimately sees the writer's one in-flight uncommitted
				// INSERT (TestUncommittedInsertVisibleUntilRollback). The
				// exact count after the run proves the rollbacks.
				if got := res.Rows[0][0].Int(); got > (txns+1)/2+1 {
					fail("reader %d saw %d rows in %s: rolled-back work leaked", r, got, table)
					return
				}
				// Readers never SET NOW, so they see the server clock, not
				// any writer's override.
				if i%10 == 0 {
					res, err := c.Exec(`SELECT now()`, nil)
					if err != nil {
						fail("reader %d now(): %v", r, err)
						return
					}
					if got := res.Rows[0][0].Format(); got != "1999-11-12" {
						fail("reader %d saw now = %s: a writer's override leaked", r, got)
						return
					}
				}
			}
		}(r)
	}

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// Exactly the committed transactions survive.
	for i := 0; i < nTables; i++ {
		res, err := setup.Exec(fmt.Sprintf(`SELECT COUNT(*) FROM t%d`, i), nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Rows[0][0].Int(); got != (txns+1)/2 {
			t.Errorf("t%d rows = %d, want %d committed", i, got, (txns+1)/2)
		}
	}
}

// TestUncommittedInsertVisibleUntilRollback pins the isolation level
// (DESIGN.md, "Isolation"): a statement snapshots the published table
// versions, and a transaction publishes each statement as it applies —
// rollback is an undo log, not deferred visibility. So another session
// sees an open transaction's INSERT, and stops seeing it once the
// transaction rolls back.
func TestUncommittedInsertVisibleUntilRollback(t *testing.T) {
	srv := start(t)
	a, b := connect(t, srv), connect(t, srv)
	count := func(c *client.Conn) int64 {
		t.Helper()
		res, err := c.Exec(`SELECT COUNT(*) FROM t`, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res.Rows[0][0].Int()
	}
	for _, sql := range []string{`CREATE TABLE t (a INT)`, `BEGIN`, `INSERT INTO t VALUES (1)`} {
		if _, err := a.Exec(sql, nil); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	if got := count(b); got != 1 {
		t.Errorf("session B sees %d rows while A's transaction is open, want 1", got)
	}
	if _, err := a.Exec(`ROLLBACK`, nil); err != nil {
		t.Fatal(err)
	}
	if got := count(b); got != 0 {
		t.Errorf("session B sees %d rows after A rolled back, want 0", got)
	}
}
