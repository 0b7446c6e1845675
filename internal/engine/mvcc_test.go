package engine

// MVCC snapshot semantics, end to end. These tests live inside the
// package so they can pin statement snapshots deterministically
// (lockTables), hold lock-table mutexes like an in-flight writer would,
// and inspect installed table versions — things the public API hides on
// purpose. `make mvcc-smoke` runs everything named TestMVCC* under the
// race detector.

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"tip/internal/blade"
	"tip/internal/core"
	"tip/internal/exec"
	"tip/internal/temporal"
)

func newMVCCDB(t *testing.T) (*Database, *Session) {
	t.Helper()
	reg := blade.NewRegistry()
	if _, err := core.Register(reg); err != nil {
		t.Fatal(err)
	}
	db := New(reg)
	db.SetClock(func() temporal.Chronon { return temporal.MustDate(1999, 11, 12) })
	return db, db.NewSession()
}

func mvccExec(t *testing.T, s *Session, sql string) *exec.Result {
	t.Helper()
	res, err := s.Exec(sql, nil)
	if err != nil {
		t.Fatalf("Exec(%s): %v", sql, err)
	}
	return res
}

// TestMVCCScanSeesOldVersionAfterUpdate pins a statement snapshot the
// way every read statement does, commits an UPDATE and a DELETE from
// another session, and checks the pinned version still serves the old
// rows while a fresh statement sees the new ones.
func TestMVCCScanSeesOldVersionAfterUpdate(t *testing.T) {
	db, s1 := newMVCCDB(t)
	mvccExec(t, s1, `CREATE TABLE t (a INT)`)
	mvccExec(t, s1, `INSERT INTO t VALUES (1), (2), (3)`)

	release := s1.lockTables([]string{"t"}, nil)
	snap := s1.snaps["t"]
	if snap == nil {
		t.Fatal("statement did not pin a snapshot")
	}

	s2 := db.NewSession()
	mvccExec(t, s2, `UPDATE t SET a = 99`)
	mvccExec(t, s2, `DELETE FROM t WHERE a = 99`) // empties the table

	// The pinned version is immutable: all three original values.
	var got []int64
	snap.Rows.Scan(func(_ int, r exec.Row) bool {
		got = append(got, r[0].Int())
		return true
	})
	release()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("pinned snapshot rows = %v, want [1 2 3]", got)
	}
	// A fresh statement reads the latest version.
	res := mvccExec(t, s1, `SELECT COUNT(*) FROM t`)
	if res.Rows[0][0].Int() != 0 {
		t.Fatalf("latest version has %d rows, want 0", res.Rows[0][0].Int())
	}
}

// TestMVCCScanSeesPreRollbackVersion pins a snapshot of a transaction's
// applied-but-uncommitted state; ROLLBACK publishes the reverted
// version, and the pinned snapshot must keep serving the pre-rollback
// rows.
func TestMVCCScanSeesPreRollbackVersion(t *testing.T) {
	db, s1 := newMVCCDB(t)
	mvccExec(t, s1, `CREATE TABLE t (a INT)`)
	mvccExec(t, s1, `INSERT INTO t VALUES (1), (2)`)

	s2 := db.NewSession()
	mvccExec(t, s2, `BEGIN`)
	mvccExec(t, s2, `UPDATE t SET a = a + 10`)

	release := s1.lockTables([]string{"t"}, nil)
	snap := s1.snaps["t"]
	mvccExec(t, s2, `ROLLBACK`)

	sum := int64(0)
	snap.Rows.Scan(func(_ int, r exec.Row) bool {
		sum += r[0].Int()
		return true
	})
	release()
	if sum != 23 { // 11 + 12: the pre-rollback state
		t.Fatalf("pinned snapshot sum = %d, want 23", sum)
	}
	res := mvccExec(t, s1, `SELECT COUNT(*) FROM t WHERE a < 10`)
	if res.Rows[0][0].Int() != 2 {
		t.Fatal("rollback did not restore the original rows")
	}
}

// TestMVCCInsertAtRollbackTargetsSlot opens a transaction, deletes a
// row, lets another session insert into the same table, and rolls back:
// the horizon gate must have kept the deleted slot unused so InsertAt
// revives exactly it, and the concurrent insert must survive.
func TestMVCCInsertAtRollbackTargetsSlot(t *testing.T) {
	db, s1 := newMVCCDB(t)
	mvccExec(t, s1, `CREATE TABLE t (a INT)`)
	mvccExec(t, s1, `INSERT INTO t VALUES (0), (1), (2)`)

	mvccExec(t, s1, `BEGIN`)
	mvccExec(t, s1, `DELETE FROM t WHERE a = 1`) // frees slot 1 inside the txn

	s2 := db.NewSession()
	mvccExec(t, s2, `INSERT INTO t VALUES (7)`) // must not reuse slot 1

	snap := db.tables["t"].Snapshot()
	if _, ok := snap.Rows.Get(1); ok {
		t.Fatal("slot 1 was reused while the deleting transaction was open")
	}
	if snap.Rows.Capacity() != 4 {
		t.Fatalf("capacity = %d, want 4 (new slot for the concurrent insert)", snap.Rows.Capacity())
	}

	mvccExec(t, s1, `ROLLBACK`)
	snap = db.tables["t"].Snapshot()
	r, ok := snap.Rows.Get(1)
	if !ok || r[0].Int() != 1 {
		t.Fatalf("slot 1 after rollback = %v, %v; want the restored row (1)", r, ok)
	}
	res := mvccExec(t, s1, `SELECT COUNT(*) FROM t`)
	if res.Rows[0][0].Int() != 4 {
		t.Fatalf("rows after rollback = %d, want 4", res.Rows[0][0].Int())
	}
}

// TestMVCCStaleFreeEntryRollback is the regression test for the stale
// free-list entry bug: a slot deleted, revived by rollback, and deleted
// again by a second (still open) transaction leaves the first death's
// free entry queued with a stamp already behind the horizon. A
// concurrent insert must not reuse the slot off that stale entry — the
// open transaction's rollback has to find its slot still dead, or the
// whole rollback aborts with its changes left applied.
func TestMVCCStaleFreeEntryRollback(t *testing.T) {
	db, s1 := newMVCCDB(t)
	mvccExec(t, s1, `CREATE TABLE t (a INT)`)
	mvccExec(t, s1, `INSERT INTO t VALUES (0), (1), (2)`)

	mvccExec(t, s1, `BEGIN`)
	mvccExec(t, s1, `DELETE FROM t WHERE a = 1`) // frees slot 1, stamp d
	mvccExec(t, s1, `ROLLBACK`)                  // revives slot 1; {1, d} goes stale

	mvccExec(t, s1, `BEGIN`)
	mvccExec(t, s1, `DELETE FROM t WHERE a = 1`) // frees slot 1 again, stamp n > d

	s2 := db.NewSession()
	mvccExec(t, s2, `INSERT INTO t VALUES (7)`) // d is behind the horizon; n is not

	snap := db.tables["t"].Snapshot()
	if _, ok := snap.Rows.Get(1); ok {
		t.Fatal("stale free entry handed slot 1 out under the open transaction")
	}
	mvccExec(t, s1, `ROLLBACK`) // InsertAt must find slot 1 still dead
	res := mvccExec(t, s1, `SELECT COUNT(*) FROM t`)
	if res.Rows[0][0].Int() != 4 {
		t.Fatalf("rows after rollback = %d, want 4", res.Rows[0][0].Int())
	}
	if r, ok := db.tables["t"].Snapshot().Rows.Get(1); !ok || r[0].Int() != 1 {
		t.Fatalf("slot 1 after rollback = %v, %v; want the restored row (1)", r, ok)
	}
}

// TestMVCCReadersOffLockTable holds a table's write lock the way an
// in-flight writer statement does and checks that reads of that same
// table — and SET NOW with a value, which reads through snapshots too —
// complete without blocking.
func TestMVCCReadersOffLockTable(t *testing.T) {
	db, s1 := newMVCCDB(t)
	mvccExec(t, s1, `CREATE TABLE x (a INT)`)
	mvccExec(t, s1, `INSERT INTO x VALUES (1), (2)`)

	db.locks["x"].Lock() // a writer statement is "in flight" on x
	defer db.locks["x"].Unlock()

	done := make(chan error, 1)
	go func() {
		s2 := db.NewSession()
		if res, err := s2.Exec(`SELECT COUNT(*) FROM x`, nil); err != nil {
			done <- err
		} else if res.Rows[0][0].Int() != 2 {
			done <- fmt.Errorf("count = %d, want 2", res.Rows[0][0].Int())
		} else if _, err := s2.Exec(`SET NOW = '1995-06-01'`, nil); err != nil {
			done <- err
		} else {
			done <- nil
		}
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("read statements blocked behind a table writer")
	}
}

// TestMVCCConcurrentScanAtomicity runs analyst scans (plain, hash-index
// probe, and period-index candidates) beside a writer that flips every
// row in single statements. Each scan must observe a whole version:
// all-old or all-new, never a mix. Run under -race this also proves the
// snapshot structures are handed across goroutines cleanly.
func TestMVCCConcurrentScanAtomicity(t *testing.T) {
	db, s := newMVCCDB(t)
	mvccExec(t, s, `CREATE TABLE t (k VARCHAR(8), valid Period)`)
	const rows = 40
	for i := 0; i < rows; i++ {
		mvccExec(t, s, `INSERT INTO t VALUES ('x', '[1998-01-01, 1998-12-31]')`)
	}
	mvccExec(t, s, `CREATE INDEX t_k ON t (k)`)
	mvccExec(t, s, `CREATE INDEX t_valid ON t (valid) USING PERIOD`)

	queries := []string{
		`SELECT COUNT(*) FROM t WHERE k = 'x'`,
		`SELECT COUNT(*) FROM t WHERE overlaps(valid, '[1998-03-01, 1998-03-10]')`,
		`SELECT COUNT(*) FROM t`,
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for _, q := range queries[:2] {
		wg.Add(1)
		go func(q string) {
			defer wg.Done()
			a := db.NewSession()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := a.Exec(q, nil)
				if err != nil {
					errs <- err
					return
				}
				if n := res.Rows[0][0].Int(); n != 0 && n != rows {
					errs <- fmt.Errorf("%s saw partial statement: %d of %d", q, n, rows)
					return
				}
			}
		}(q)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		a := db.NewSession()
		for {
			select {
			case <-stop:
				return
			default:
			}
			res, err := a.Exec(queries[2], nil)
			if err != nil {
				errs <- err
				return
			}
			if n := res.Rows[0][0].Int(); n != rows {
				errs <- fmt.Errorf("COUNT(*) = %d, want %d (inserts/deletes are not running)", n, rows)
				return
			}
		}
	}()

	w := db.NewSession()
	for i := 0; i < 60; i++ {
		mvccExec(t, w, `UPDATE t SET k = 'y', valid = '[2002-01-01, 2002-12-31]'`)
		mvccExec(t, w, `UPDATE t SET k = 'x', valid = '[1998-01-01, 1998-12-31]'`)
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
}

// TestMVCCVersionGC asserts superseded table versions are reclaimed by
// the garbage collector once unpinned — the version chain must not
// accumulate.
func TestMVCCVersionGC(t *testing.T) {
	db, s := newMVCCDB(t)
	mvccExec(t, s, `CREATE TABLE t (a INT)`)
	mvccExec(t, s, `INSERT INTO t VALUES (1)`)

	collected := make(chan struct{})
	func() {
		old := db.tables["t"].Snapshot()
		runtime.SetFinalizer(old, func(*exec.TableVersion) { close(collected) })
	}()
	for i := 0; i < 8; i++ {
		mvccExec(t, s, `UPDATE t SET a = a + 1`)
	}
	deadline := time.After(10 * time.Second)
	for {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-deadline:
			t.Fatal("superseded table version never collected")
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// TestMVCCChurnCapacityBounded drives delete/insert churn through SQL
// and checks slot reuse keeps table capacity bounded — the engine-level
// face of the old Heap.Compact tombstone leak.
func TestMVCCChurnCapacityBounded(t *testing.T) {
	db, s := newMVCCDB(t)
	mvccExec(t, s, `CREATE TABLE t (a INT)`)
	for i := 0; i < 50; i++ {
		mvccExec(t, s, fmt.Sprintf(`INSERT INTO t VALUES (%d)`, i))
	}
	for round := 0; round < 300; round++ {
		mvccExec(t, s, fmt.Sprintf(`DELETE FROM t WHERE a = %d`, round%50))
		mvccExec(t, s, fmt.Sprintf(`INSERT INTO t VALUES (%d)`, round%50))
	}
	cap := db.tables["t"].Snapshot().Rows.Capacity()
	if cap > 60 {
		t.Fatalf("capacity after churn = %d slots for 50 rows; tombstones leak", cap)
	}
}

// TestMVCCNoGoroutineLeak runs a concurrent scan/write burst and checks
// the engine spawned nothing that outlives it.
func TestMVCCNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	db, s := newMVCCDB(t)
	mvccExec(t, s, `CREATE TABLE t (a INT)`)
	mvccExec(t, s, `INSERT INTO t VALUES (1), (2), (3)`)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sess := db.NewSession()
			defer sess.Close()
			for i := 0; i < 50; i++ {
				var err error
				if g%2 == 0 {
					_, err = sess.Exec(`SELECT COUNT(*) FROM t`, nil)
				} else {
					_, err = sess.Exec(`UPDATE t SET a = a + 1`, nil)
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	s.Close()
	for i := 0; i < 100; i++ {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines: %d before, %d after", before, runtime.NumGoroutine())
}

// TestMVCCSessionCloseReleasesHorizon checks an abandoned open
// transaction stops pinning the reclamation horizon once its session is
// closed, so churn after the close reuses slots again.
func TestMVCCSessionCloseReleasesHorizon(t *testing.T) {
	db, s := newMVCCDB(t)
	mvccExec(t, s, `CREATE TABLE t (a INT)`)
	mvccExec(t, s, `INSERT INTO t VALUES (1)`)

	zombie := db.NewSession()
	mvccExec(t, zombie, `BEGIN`)
	mvccExec(t, zombie, `INSERT INTO t VALUES (2)`)
	zombie.Close() // connection died without COMMIT/ROLLBACK

	db.hz.mu.Lock()
	open := len(db.hz.txns)
	db.hz.mu.Unlock()
	if open != 0 {
		t.Fatalf("%d transactions still pin the horizon after Close", open)
	}
}
