package engine

// Transactions as commit groups: a transaction's writes stay private
// until COMMIT publishes them and logs their effects as one group, so
// the log, recovery and replicas see commits, never the statements of
// an open transaction. These tests interleave sessions by hand and
// compare live, recovered and (in internal/repl) replica state.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tip/internal/exec"
	"tip/internal/temporal"
)

// recovered closes db and returns a session on a fresh open of its
// directory.
func recovered(t *testing.T, db *Database) *Session {
	t.Helper()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	return openEngine(t, db.wal.dir, nil).NewSession()
}

func walSize(t *testing.T, db *Database) int64 {
	t.Helper()
	info, err := os.Stat(filepath.Join(db.wal.dir, walFile))
	if err != nil {
		t.Fatal(err)
	}
	return info.Size()
}

// A BEGIN; INSERT 1 · B INSERT 2 · A ROLLBACK: B's row is the only one,
// live and recovered. B writes the held table on one path (it gets
// ErrBusy and retries after the ROLLBACK, as a client does) and another
// table on the other (it commits while A's transaction is open).
func TestInterleavedRollbackRecovers(t *testing.T) {
	for _, table := range []string{"t", "u"} {
		t.Run("B writes "+table, func(t *testing.T) {
			db := openEngine(t, t.TempDir(), nil)
			a, b := db.NewSession(), db.NewSession()
			execSQL(t, a, `CREATE TABLE t (a INT)`)
			execSQL(t, a, `CREATE TABLE u (a INT)`)
			execSQL(t, a, `BEGIN`)
			execSQL(t, a, `INSERT INTO t VALUES (1)`)
			insert := `INSERT INTO ` + table + ` VALUES (2)`
			_, err := b.Exec(insert, nil)
			if table == "t" && !errors.Is(err, ErrBusy) || table == "u" && err != nil {
				t.Fatalf("%s during A's transaction: %v", insert, err)
			}
			execSQL(t, a, `ROLLBACK`)
			if err != nil {
				execSQL(t, b, insert)
			}
			live := rowCount(t, b, "t") + rowCount(t, b, "u")
			rec := recovered(t, db)
			if got := rowCount(t, rec, "t") + rowCount(t, rec, "u"); live != 1 || got != 1 {
				t.Fatalf("rows live = %d, recovered = %d; want 1 and 1", live, got)
			}
		})
	}
}

// A BEGIN · B BEGIN: two transactions open at once, both commit, and
// the database opens again with both.
func TestConcurrentBeginsRecover(t *testing.T) {
	db := openEngine(t, t.TempDir(), nil)
	a, b := db.NewSession(), db.NewSession()
	execSQL(t, a, `CREATE TABLE t (a INT)`)
	execSQL(t, a, `CREATE TABLE u (a INT)`)
	execSQL(t, a, `BEGIN`)
	execSQL(t, b, `BEGIN`)
	execSQL(t, a, `INSERT INTO t VALUES (1)`)
	execSQL(t, b, `INSERT INTO u VALUES (2)`)
	execSQL(t, b, `INSERT INTO u VALUES (3)`)
	execSQL(t, a, `COMMIT`)
	execSQL(t, b, `COMMIT`)
	rec := recovered(t, db)
	if gt, gu := rowCount(t, rec, "t"), rowCount(t, rec, "u"); gt != 1 || gu != 2 {
		t.Fatalf("recovered t = %d, u = %d; want 1 and 2", gt, gu)
	}
}

// A crash between two statements of a transaction recovers neither,
// and neither statement added a byte to the log.
func TestCrashMidTransactionRecoversNeither(t *testing.T) {
	dir := t.TempDir()
	db := openEngine(t, dir, nil)
	s := db.NewSession()
	execSQL(t, s, `CREATE TABLE t (a INT)`)
	execSQL(t, s, `INSERT INTO t VALUES (1)`)
	before := walSize(t, db)
	execSQL(t, s, `BEGIN`)
	execSQL(t, s, `INSERT INTO t VALUES (2)`)
	execSQL(t, s, `UPDATE t SET a = 3 WHERE a = 1`)
	if after := walSize(t, db); after != before {
		t.Fatalf("an open transaction's statements grew wal.log from %d to %d bytes", before, after)
	}
	crashed := t.TempDir()
	if err := os.WriteFile(filepath.Join(crashed, walFile), readFile(t, dir, walFile), 0o644); err != nil {
		t.Fatal(err)
	}
	rec := openEngine(t, crashed, nil).NewSession()
	res, err := rec.Exec(`SELECT a FROM t`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 1 {
		t.Fatalf("recovered rows = %v, want [[1]]", res.Rows)
	}
}

// A transaction deletes a row and re-inserts its key. Until COMMIT the
// published version still holds the deleted row, and a fresh reader
// must find it through the hash index: the re-insert's posting
// maintenance may not reclaim the posting the transaction killed. The
// same holds after ROLLBACK, which revives it.
func TestTxnKeepsKilledHashPostings(t *testing.T) {
	db, a := newMVCCDB(t)
	mvccExec(t, a, `CREATE TABLE t (k VARCHAR(8), v INT)`)
	mvccExec(t, a, `CREATE INDEX t_k ON t (k)`)
	mvccExec(t, a, `INSERT INTO t VALUES ('a', 1)`)
	b := db.NewSession()
	lookup := func() string {
		t.Helper()
		var got []string
		for _, r := range mvccExec(t, b, `SELECT v FROM t WHERE k = 'a'`).Rows {
			got = append(got, r[0].Format())
		}
		return strings.Join(got, ",")
	}
	var plan string
	for _, r := range mvccExec(t, b, `EXPLAIN SELECT v FROM t WHERE k = 'a'`).Rows {
		plan += r[0].Str() + "\n"
	}
	if !strings.Contains(plan, "hash") {
		t.Fatalf("the lookup does not probe the hash index:\n%s", plan)
	}
	for _, end := range []string{`ROLLBACK`, `COMMIT`} {
		mvccExec(t, a, `BEGIN`)
		mvccExec(t, a, `DELETE FROM t WHERE k = 'a'`)
		mvccExec(t, a, `INSERT INTO t VALUES ('a', 2)`)
		mvccExec(t, a, `INSERT INTO t VALUES ('a', 3)`)
		if got := lookup(); got != "1" {
			t.Fatalf("before %s a fresh reader finds %q under 'a', want the committed \"1\"", end, got)
		}
		mvccExec(t, a, end)
	}
	if got := lookup(); got != "2,3" {
		t.Fatalf("after COMMIT a reader finds %q under 'a', want \"2,3\"", got)
	}
}

// A statement that runs while a two-table commit is in its commit step
// sees both tables as they were before the commit.
func TestCommitPublishesAllTablesAtOnce(t *testing.T) {
	db, a := newMVCCDB(t)
	mvccExec(t, a, `CREATE TABLE t (a INT)`)
	mvccExec(t, a, `CREATE TABLE u (a INT)`)
	mvccExec(t, a, `INSERT INTO t VALUES (1)`)
	mvccExec(t, a, `INSERT INTO u VALUES (1)`)
	b := db.NewSession()
	pairs := func() int64 { return mvccExec(t, b, `SELECT COUNT(*) FROM t, u`).Rows[0][0].Int() }

	mvccExec(t, a, `BEGIN`)
	mvccExec(t, a, `INSERT INTO t VALUES (2)`)
	mvccExec(t, a, `INSERT INTO u VALUES (2)`)
	var mid int64 = -1
	db.afterApply = func(*Session) { mid = pairs() }
	mvccExec(t, a, `COMMIT`)
	db.afterApply = nil
	if mid != 1 {
		t.Fatalf("mid-publication reader counts %d pairs, want 1 (none of the commit); 2 is half of it", mid)
	}
	if got := pairs(); got != 4 {
		t.Fatalf("after COMMIT: %d pairs, want 4", got)
	}
}

// blockingSink is a log file whose next Write, once armed, signals
// entered and waits for release.
type blockingSink struct {
	*os.File
	armed   atomic.Bool
	entered chan struct{}
	release chan struct{}
}

func (b *blockingSink) Write(p []byte) (int, error) {
	if b.armed.CompareAndSwap(true, false) {
		b.entered <- struct{}{}
		<-b.release
	}
	return b.File.Write(p)
}

// A commit is invisible until its group is written: a reader that runs
// while an INSERT sits in its log write does not see the row.
func TestCommitInvisibleUntilWritten(t *testing.T) {
	sink := &blockingSink{entered: make(chan struct{}), release: make(chan struct{})}
	db := openEngine(t, t.TempDir(), func(f *os.File) walSink {
		sink.File = f
		return sink
	})
	a, b := db.NewSession(), db.NewSession()
	execSQL(t, a, `CREATE TABLE t (a INT)`)
	sink.armed.Store(true)
	done := make(chan error, 1)
	go func() {
		_, err := a.Exec(`INSERT INTO t VALUES (1)`, nil)
		done <- err
	}()
	<-sink.entered
	during := rowCount(t, b, "t")
	close(sink.release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if during != 0 {
		t.Fatalf("a reader counts %d rows while the INSERT's group is being written, want 0", during)
	}
	if got := rowCount(t, b, "t"); got != 1 {
		t.Fatalf("after the write: %d rows, want 1", got)
	}
}

// Two autocommit writers on one table wait for each other's running
// statements and never see ErrBusy.
func TestAutocommitWritersNeverBusy(t *testing.T) {
	db, s := newMVCCDB(t)
	mvccExec(t, s, `CREATE TABLE t (a INT)`)
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := db.NewSession()
			for range 300 {
				if _, err := w.Exec(`INSERT INTO t VALUES (1)`, nil); err != nil {
					errs <- err
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
	if got := rowCount(t, s, "t"); got != 600 {
		t.Fatalf("rows = %d, want 600", got)
	}
}

// A statement waiting for a table's lock gives up with ErrBusy when the
// statement it waits for leaves the lock to its open transaction, and
// DDL on a held table fails the same way.
func TestWaiterGivesUpOnTransactionHold(t *testing.T) {
	db, a := newMVCCDB(t)
	mvccExec(t, a, `CREATE TABLE t (a INT)`)
	mvccExec(t, a, `BEGIN`)
	mvccExec(t, a, `INSERT INTO t VALUES (1)`)
	l := db.locks["t"]
	if err := l.acquire(a); err != nil { // A's next statement on t is running
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := db.NewSession().Exec(`INSERT INTO t VALUES (2)`, nil)
		done <- err
	}()
	for waiting := false; !waiting; runtime.Gosched() {
		l.mu.Lock()
		waiting = l.wake != nil
		l.mu.Unlock()
	}
	l.release(true) // A's statement ends; its transaction keeps the table
	if err := <-done; !errors.Is(err, ErrBusy) {
		t.Fatalf("waiting insert: err = %v, want ErrBusy", err)
	}
	b := db.NewSession()
	for _, ddl := range []string{`CREATE INDEX t_a ON t (a)`, `DROP TABLE t`} {
		if _, err := b.Exec(ddl, nil); !errors.Is(err, ErrBusy) {
			t.Errorf("%s on the held table: err = %v, want ErrBusy", ddl, err)
		}
	}
	if _, err := a.Exec(`CREATE TABLE v (a INT)`, nil); !errors.Is(err, ErrDDLInTransaction) {
		t.Errorf("DDL inside a transaction: err = %v, want ErrDDLInTransaction", err)
	}
	mvccExec(t, a, `ROLLBACK`)
	mvccExec(t, b, `INSERT INTO t VALUES (2)`)
}

// A failed statement leaves its transaction as it was: its rows are
// gone, the earlier statements' stay, and COMMIT logs only those.
func TestFailedStatementLeavesTransaction(t *testing.T) {
	db := openEngine(t, t.TempDir(), nil)
	s := db.NewSession()
	execSQL(t, s, `CREATE TABLE t (a INT NOT NULL)`)
	execSQL(t, s, `BEGIN`)
	execSQL(t, s, `INSERT INTO t VALUES (1)`)
	if _, err := s.Exec(`INSERT INTO t VALUES (2), (NULL)`, nil); err == nil {
		t.Fatal("NOT NULL violation accepted")
	}
	if got := rowCount(t, s, "t"); got != 1 {
		t.Fatalf("transaction sees %d rows after the failed statement, want 1", got)
	}
	execSQL(t, s, `COMMIT`)
	if got := rowCount(t, recovered(t, db), "t"); got != 1 {
		t.Fatalf("recovered rows = %d, want 1", got)
	}
}

// A log written in the statement-text format, a log and a snapshot of
// epoch-stamped format 2 frames, and a TIPDB2 snapshot are refused
// with typed errors naming the format, not read as damage.
func TestOldFormatsRefused(t *testing.T) {
	dir := t.TempDir()
	// A format 1 frame: CRC32C first, then epoch, seq and a payload.
	inner := []byte{0, 1, 'x'}
	body := append(binary.LittleEndian.AppendUint32(nil, crc32.Checksum(inner, walCRC)), inner...)
	frame := append([]byte{byte(len(body))}, body...)
	if err := os.WriteFile(filepath.Join(dir, walFile), frame, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(testRegistry(t), dir); !errors.Is(err, ErrWALFormat) || errors.Is(err, ErrWAL) {
		t.Fatalf("Open of a format 1 log: err = %v, want ErrWALFormat", err)
	}
	// A format 2 frame: format byte, CRC32C of the rest, then epoch,
	// seq and a payload (here empty, as a snapshot's end frame).
	inner = []byte{0, 1}
	body = append(binary.LittleEndian.AppendUint32([]byte{2}, crc32.Checksum(inner, walCRC)), inner...)
	frame = append([]byte{byte(len(body))}, body...)
	for _, name := range []string{walFile, snapshotFile} {
		dir = t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, name), frame, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(testRegistry(t), dir); !errors.Is(err, ErrWALFormat) || errors.Is(err, ErrWAL) || !strings.Contains(err.Error(), "format 2") {
			t.Fatalf("Open of a format 2 %s: err = %v, want ErrWALFormat naming format 2", name, err)
		}
	}
	dir = t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, snapshotFile), []byte("TIPDB2\n\x00\x00\x00"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(testRegistry(t), dir); !errors.Is(err, ErrBadSnapshot) || !strings.Contains(err.Error(), "TIPDB2") {
		t.Fatalf("Open of a TIPDB2 snapshot: err = %v, want ErrBadSnapshot naming TIPDB2", err)
	}
}

// A commit whose group would not fit in one log frame fails before it
// publishes: nothing applied, nothing logged. Inside a transaction the
// statement that would overflow the group fails and the transaction
// keeps what it had.
func TestOversizedGroupFailsBeforePublish(t *testing.T) {
	defer func(n int) { walMaxFrame = n }(walMaxFrame)
	walMaxFrame = 4 << 10
	db := openEngine(t, t.TempDir(), nil)
	s := db.NewSession()
	execSQL(t, s, `CREATE TABLE t (s VARCHAR(8000))`)
	big := `INSERT INTO t VALUES ('` + strings.Repeat("x", 3000) + `')`
	before := walSize(t, db)
	if _, err := s.Exec(big+`, ('`+strings.Repeat("y", 3000)+`')`, nil); !errors.Is(err, ErrGroupTooLarge) {
		t.Fatalf("oversized autocommit: err = %v, want ErrGroupTooLarge", err)
	}
	if got := rowCount(t, s, "t"); got != 0 || walSize(t, db) != before {
		t.Fatalf("after the oversized statement: %d rows, wal.log %d bytes (was %d)", got, walSize(t, db), before)
	}
	execSQL(t, s, `BEGIN`)
	execSQL(t, s, big)
	if _, err := s.Exec(big, nil); !errors.Is(err, ErrGroupTooLarge) {
		t.Fatalf("overflowing statement in a transaction: err = %v, want ErrGroupTooLarge", err)
	}
	execSQL(t, s, `COMMIT`)
	if got := rowCount(t, recovered(t, db), "t"); got != 1 {
		t.Fatalf("recovered rows = %d, want 1", got)
	}
}

// Replay places every row at its logged id: a recovered table holds the
// same rows under the same ids as the live one, across a snapshot with
// holes and logged slot reuse, and its later inserts overwrite nothing.
func TestRecoveredRowIDsMatchLive(t *testing.T) {
	db := openEngine(t, t.TempDir(), nil)
	s := db.NewSession()
	execSQL(t, s, `CREATE TABLE t (a INT)`)
	insert := func(s *Session, from, to int) {
		for i := from; i < to; i++ {
			execSQL(t, s, fmt.Sprintf(`INSERT INTO t VALUES (%d)`, i))
		}
	}
	insert(s, 0, 8)
	for _, a := range []int{7, 3, 1} { // the live free list runs 7, 3, 1; the snapshot's 1, 3
		execSQL(t, s, fmt.Sprintf(`DELETE FROM t WHERE a = %d`, a))
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	insert(s, 10, 14) // reuses slots 7, 3 and 1, then appends
	execSQL(t, s, `DELETE FROM t WHERE a = 4`)
	insert(s, 20, 22)
	ids := func(db *Database) map[int]int64 {
		m := map[int]int64{}
		db.published("t").Rows.Scan(func(id int, r exec.Row) bool {
			m[id] = r[0].Int()
			return true
		})
		return m
	}
	live := ids(db)
	rec := recovered(t, db)
	if got := ids(rec.db); !maps.Equal(got, live) {
		t.Fatalf("recovered id → row %v, live %v", got, live)
	}
	insert(rec, 30, 36)
	got := ids(rec.db)
	for id, a := range live {
		if got[id] != a {
			t.Fatalf("row %d at id %d was overwritten by %d", a, id, got[id])
		}
	}
	if len(got) != len(live)+6 {
		t.Fatalf("%d rows after six more inserts, want %d", len(got), len(live)+6)
	}
}

// Regression: the engine clock used to be a plain field, racing with
// sessions reading NOW and beginning transactions on other goroutines
// (caught by -race when the browser repinned NOW mid-query). It is
// stored atomically.
func TestSetClockConcurrent(t *testing.T) {
	db := New(testRegistry(t))
	a, b := temporal.MustDate(1999, 1, 1), temporal.MustDate(2000, 1, 1)
	db.SetClock(func() temporal.Chronon { return a })
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		c := a
		if g%2 == 1 {
			c = b
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				db.SetClock(func() temporal.Chronon { return c })
			}
		}()
	}
	for g := 0; g < 4; g++ {
		s := db.NewSession()
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer s.Close()
			for i := 0; i < 200; i++ {
				if now := s.Now(); now != a && now != b {
					t.Errorf("Now = %v, want one of the pinned clocks", now)
					return
				}
				if _, err := s.Exec(`BEGIN`, nil); err != nil {
					t.Error(err)
					return
				}
				if tt := s.tx.time; tt != a && tt != b {
					t.Errorf("transaction time = %v, want one of the pinned clocks", tt)
				}
				if _, err := s.Exec(`ROLLBACK`, nil); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// Without SetClock, NOW and a transaction's time read the wall clock.
func TestClockDefaultsToWallClock(t *testing.T) {
	s := New(testRegistry(t)).NewSession()
	before := temporal.ChrononOf(time.Now())
	if now := s.Now(); now < before {
		t.Errorf("Now = %v, before the wall clock's %v", now, before)
	}
	execSQL(t, s, `BEGIN`)
	if tt := s.tx.time; tt < before {
		t.Errorf("transaction time = %v, before the wall clock's %v", tt, before)
	}
}
