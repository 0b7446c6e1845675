package engine

// MVCC snapshot semantics, end to end. These tests live inside the
// package so they can pin statement snapshots deterministically
// (lockTables), hold table locks like an in-flight writer would,
// and inspect installed table versions — things the public API hides on
// purpose. `make mvcc-smoke` runs everything named TestMVCC* under the
// race detector.

import (
	"errors"
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

// published returns the named table's version in the published state.
func (db *Database) published(name string) *exec.TableVersion {
	return db.state.Load().tables[db.tables[name].Slot]
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

	release, _ := s1.lockTables([]string{"t"}, "")
	_, snap, _ := s1.Table("t")
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

// TestMVCCScanSeesPreRollbackVersion pins a snapshot while another
// session's transaction holds an uncommitted UPDATE: the snapshot
// serves the committed rows, the transaction reads its own, and after
// ROLLBACK the pinned and the latest version both still hold the
// committed rows.
func TestMVCCScanSeesPreRollbackVersion(t *testing.T) {
	db, s1 := newMVCCDB(t)
	mvccExec(t, s1, `CREATE TABLE t (a INT)`)
	mvccExec(t, s1, `INSERT INTO t VALUES (1), (2)`)

	s2 := db.NewSession()
	mvccExec(t, s2, `BEGIN`)
	mvccExec(t, s2, `UPDATE t SET a = a + 10`)
	if got := mvccExec(t, s2, `SELECT SUM(a) FROM t`).Rows[0][0].Int(); got != 23 {
		t.Fatalf("transaction reads sum %d of its own rows, want 23", got)
	}

	release, _ := s1.lockTables([]string{"t"}, "")
	_, snap, _ := s1.Table("t")
	mvccExec(t, s2, `ROLLBACK`)

	sum := int64(0)
	snap.Rows.Scan(func(_ int, r exec.Row) bool {
		sum += r[0].Int()
		return true
	})
	release()
	if sum != 3 { // 1 + 2: the committed state
		t.Fatalf("pinned snapshot sum = %d, want 3", sum)
	}
	res := mvccExec(t, s1, `SELECT COUNT(*) FROM t WHERE a < 10`)
	if res.Rows[0][0].Int() != 2 {
		t.Fatal("rollback did not leave the committed rows")
	}
}

// TestMVCCRollbackKeepsPublishedSlots opens a transaction that deletes
// a row: another session still reads the row and gets ErrBusy writing
// the table, ROLLBACK leaves the row in its slot, and the other
// session's retry then lands in a new slot.
func TestMVCCRollbackKeepsPublishedSlots(t *testing.T) {
	db, s1 := newMVCCDB(t)
	mvccExec(t, s1, `CREATE TABLE t (a INT)`)
	mvccExec(t, s1, `INSERT INTO t VALUES (0), (1), (2)`)

	mvccExec(t, s1, `BEGIN`)
	mvccExec(t, s1, `DELETE FROM t WHERE a = 1`) // frees slot 1 in the private version

	s2 := db.NewSession()
	if got := mvccExec(t, s2, `SELECT COUNT(*) FROM t`).Rows[0][0].Int(); got != 3 {
		t.Fatalf("other session reads %d rows during the transaction, want the committed 3", got)
	}
	if _, err := s2.Exec(`INSERT INTO t VALUES (7)`, nil); !errors.Is(err, ErrBusy) {
		t.Fatalf("insert into the held table: err = %v, want ErrBusy", err)
	}

	mvccExec(t, s1, `ROLLBACK`)
	if r, ok := db.published("t").Rows.Get(1); !ok || r[0].Int() != 1 {
		t.Fatalf("slot 1 after rollback = %v, %v; want the committed row (1)", r, ok)
	}
	mvccExec(t, s2, `INSERT INTO t VALUES (7)`)
	snap := db.published("t")
	if snap.Rows.Capacity() != 4 || snap.Rows.Len() != 4 {
		t.Fatalf("capacity %d, len %d after the retry; want 4 and 4", snap.Rows.Capacity(), snap.Rows.Len())
	}
}

// TestMVCCStaleFreeEntryRollback repeats a delete and a rollback on one
// slot, the pattern that once left a stale free-list entry behind.
// Rollback now drops a private version, so the published free list
// never holds the slot, and an insert after both rollbacks must append
// rather than land on the live row.
func TestMVCCStaleFreeEntryRollback(t *testing.T) {
	db, s1 := newMVCCDB(t)
	mvccExec(t, s1, `CREATE TABLE t (a INT)`)
	mvccExec(t, s1, `INSERT INTO t VALUES (0), (1), (2)`)
	for range 2 {
		mvccExec(t, s1, `BEGIN`)
		mvccExec(t, s1, `DELETE FROM t WHERE a = 1`)
		mvccExec(t, s1, `ROLLBACK`)
	}
	s2 := db.NewSession()
	mvccExec(t, s2, `INSERT INTO t VALUES (7)`)
	if r, ok := db.published("t").Rows.Get(1); !ok || r[0].Int() != 1 {
		t.Fatalf("slot 1 = %v, %v; want the committed row (1)", r, ok)
	}
	if res := mvccExec(t, s1, `SELECT COUNT(*) FROM t`); res.Rows[0][0].Int() != 4 {
		t.Fatalf("rows = %d, want 4", res.Rows[0][0].Int())
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

	writer := db.NewSession()
	if err := db.locks["x"].acquire(writer); err != nil { // a writer statement is "in flight" on x
		t.Fatal(err)
	}
	defer db.locks["x"].release(false)

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
		old := db.published("t")
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
// and checks that every insert reuses the slot the delete before it
// freed, so capacity stays at the live row count — the engine-level
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
	if cap := db.published("t").Rows.Capacity(); cap != 50 {
		t.Fatalf("capacity after churn = %d slots for 50 rows; want 50", cap)
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

// TestMVCCSessionCloseDropsTransaction checks an abandoned open
// transaction is dropped when its session closes: its table is free
// again, its insert gone, and churn after the close reuses slots.
func TestMVCCSessionCloseDropsTransaction(t *testing.T) {
	db, s := newMVCCDB(t)
	mvccExec(t, s, `CREATE TABLE t (a INT)`)
	mvccExec(t, s, `INSERT INTO t VALUES (1)`)

	zombie := db.NewSession()
	mvccExec(t, zombie, `BEGIN`)
	mvccExec(t, zombie, `INSERT INTO t VALUES (2)`)
	zombie.Close() // connection died without COMMIT/ROLLBACK

	mvccExec(t, s, `INSERT INTO t VALUES (3)`) // ErrBusy if the lock were still held
	for range 5 {
		mvccExec(t, s, `DELETE FROM t WHERE a = 3`)
		mvccExec(t, s, `INSERT INTO t VALUES (3)`)
	}
	snap := db.published("t")
	if snap.Rows.Len() != 2 || snap.Rows.Capacity() != 2 {
		t.Fatalf("len %d, capacity %d after the close and the churn; want 2 and 2", snap.Rows.Len(), snap.Rows.Capacity())
	}
}
