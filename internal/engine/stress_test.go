package engine_test

// Concurrency stress: the engine promises statement-level serialisation
// (one writer per table, readers on snapshots). Mixed concurrent
// workloads must neither race (run with -race) nor violate counting
// invariants.

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"tip/internal/engine"
	"tip/internal/types"
)

// params builds a one-entry INT parameter map.
func params(name string, v int64) map[string]types.Value {
	return map[string]types.Value{name: types.NewInt(v)}
}

func TestConcurrentReadersAndWriters(t *testing.T) {
	db, setup := newDB(t)
	mustExec(t, setup, `CREATE TABLE t (w INT, v Element)`)
	mustExec(t, setup, `CREATE INDEX tv ON t (v) USING PERIOD`)

	const writers = 4
	const readers = 4
	const perWriter = 50
	var wg sync.WaitGroup
	var inserted atomic.Int64
	errs := make(chan error, writers+readers)

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := db.NewSession()
			for i := 0; i < perWriter; i++ {
				// Bump before the insert can become visible, so the
				// reader invariant (rows seen <= counter) is sound: a
				// post-insert bump leaves a window where a reader sees
				// the row before the counter moved.
				inserted.Add(1)
				_, err := s.Exec(`INSERT INTO t VALUES (:w, '{[1999-01-01, 1999-06-01]}')`,
					params("w", int64(w)))
				if err != nil {
					inserted.Add(-1)
					errs <- err
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := db.NewSession()
			for i := 0; i < 100; i++ {
				res, err := s.Exec(`SELECT COUNT(*) FROM t WHERE overlaps(v, '[1999-02-01, 1999-03-01]')`, nil)
				if err != nil {
					errs <- err
					return
				}
				// Monotonic sanity: never more rows than insert
				// attempts so far (the counter is bumped before the
				// row can become visible).
				if got := res.Rows[0][0].Int(); got > inserted.Load() {
					errs <- errCount{got: got, max: inserted.Load()}
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := count(t, setup, `SELECT COUNT(*) FROM t`); got != writers*perWriter {
		t.Errorf("final count = %d, want %d", got, writers*perWriter)
	}
}

type errCount struct{ got, max int64 }

func (e errCount) Error() string { return "reader saw more rows than were ever inserted" }

// TestConcurrentTransactionsPerSession runs one transaction per session
// at a time on a shared table. A transaction that finds the table held
// by another's gets ErrBusy, rolls back and retries, as a client would.
func TestConcurrentTransactionsPerSession(t *testing.T) {
	db, setup := newDB(t)
	mustExec(t, setup, `CREATE TABLE t (a INT)`)
	const workers = 4
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := db.NewSession()
			for i := 0; i < 20; {
				if _, err := s.Exec(`BEGIN`, nil); err != nil {
					errs <- err
					return
				}
				if _, err := s.Exec(`INSERT INTO t VALUES (:w)`, params("w", int64(w))); errors.Is(err, engine.ErrBusy) {
					if _, err := s.Exec(`ROLLBACK`, nil); err != nil {
						errs <- err
						return
					}
					runtime.Gosched()
					continue
				} else if err != nil {
					errs <- err
					return
				}
				stmt := `COMMIT`
				if i%2 == 1 {
					stmt = `ROLLBACK`
				}
				if _, err := s.Exec(stmt, nil); err != nil {
					errs <- err
					return
				}
				i++
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// Each worker committed half its 20 transactions.
	if got := count(t, setup, `SELECT COUNT(*) FROM t`); got != workers*10 {
		t.Errorf("committed rows = %d, want %d", got, workers*10)
	}
}
