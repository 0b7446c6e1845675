package tip

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"tip/internal/temporal"
)

func openPinned() (*DB, *Session) {
	db := Open()
	db.SetClock(temporal.MustDate(1999, 11, 12))
	return db, db.Session()
}

func TestPublicAPIQuickstart(t *testing.T) {
	_, s := openPinned()
	s.MustExec(`CREATE TABLE Prescription (patient VARCHAR(20), drug VARCHAR(20), valid Element)`, nil)
	s.MustExec(`INSERT INTO Prescription VALUES ('Mr.Showbiz', 'Diabeta', '{[1999-10-01, NOW]}')`, nil)
	res, err := s.Exec(`SELECT patient, length(valid) FROM Prescription WHERE drug = :d`,
		map[string]any{"d": "Diabeta"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	sp, ok := res.Rows[0][1].Obj().(Span)
	if !ok || sp != 42*temporal.Day {
		t.Errorf("length = %v", res.Rows[0][1].Format())
	}
}

func TestParamConversions(t *testing.T) {
	_, s := openPinned()
	s.MustExec(`CREATE TABLE t (a INT, f FLOAT, b BOOLEAN, v VARCHAR(10), c Chronon, sp Span, e Element)`, nil)
	el, _ := ParseElement(`{[1999-01-01, 1999-02-01]}`)
	sp, _ := ParseSpan(`7 12:00:00`)
	c, _ := ParseChronon(`1999-06-01`)
	_, err := s.Exec(`INSERT INTO t VALUES (:a, :f, :b, :v, :c, :sp, :e)`, map[string]any{
		"a": 1, "f": 2.5, "b": true, "v": "x", "c": c, "sp": sp, "e": el,
	})
	if err != nil {
		t.Fatal(err)
	}
	// time.Time converts to a Chronon.
	_, err = s.Exec(`INSERT INTO t (c) VALUES (:t)`, map[string]any{
		"t": time.Date(1999, 7, 1, 0, 0, 0, 0, time.UTC)})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Exec(`SELECT COUNT(*) FROM t WHERE c >= :cut`, map[string]any{"cut": c})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() != 2 {
		t.Errorf("count = %d", res.Rows[0][0].Int())
	}
	// Unsupported type errors cleanly.
	if _, err := s.Exec(`SELECT :x`, map[string]any{"x": struct{}{}}); err == nil {
		t.Error("unsupported parameter type should fail")
	}
}

func TestOpenDurable(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "dbdir")

	db, err := OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	db.SetClock(temporal.MustDate(1999, 11, 12))
	s := db.Session()
	s.MustExec(`CREATE TABLE t (a INT, valid Element)`, nil)
	s.MustExec(`INSERT INTO t VALUES (1, '{[1999-01-01, NOW]}')`, nil)
	if err := db.Close(); err != nil { // "crash" without checkpoint
		t.Fatal(err)
	}

	// Reopen: the WAL alone rebuilds the state.
	db2, err := OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	db2.SetClock(temporal.MustDate(1999, 11, 12))
	s2 := db2.Session()
	res, err := s2.Exec(`SELECT a, valid FROM t`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][1].Format() != "{[1999-01-01, NOW]}" {
		t.Fatalf("recovered = %v", res.Rows)
	}
	// Checkpoint, add more, reopen again: snapshot + fresh log.
	s2.MustExec(`INSERT INTO t VALUES (2, NULL)`, nil)
	if err := db2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s2.MustExec(`INSERT INTO t VALUES (3, NULL)`, nil)
	if err := db2.Close(); err != nil {
		t.Fatal(err)
	}
	db3, err := OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db3.Close()
	res, err = db3.Session().Exec(`SELECT COUNT(*) FROM t`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() != 3 {
		t.Errorf("rows after checkpoint cycle = %d", res.Rows[0][0].Int())
	}
	// Checkpoint on a non-durable database fails.
	if err := Open().Checkpoint(); err == nil {
		t.Error("Checkpoint without OpenDurable should fail")
	}
}

// TestOpenDurableFsyncsWithoutCheckpoint pins the default commit
// contract: a fresh durable database makes acknowledged statements
// durable from the background group syncer, with no Checkpoint.
func TestOpenDurableFsyncsWithoutCheckpoint(t *testing.T) {
	db, err := OpenDurable(filepath.Join(t.TempDir(), "dbdir"))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.Session().MustExec(`CREATE TABLE t (a INT)`, nil)
	fsyncs := func() float64 {
		v, _ := db.Engine().Metrics().Snapshot().Get("wal.fsyncs")
		return v
	}
	for deadline := time.Now().Add(5 * time.Second); fsyncs() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("no fsync without a Checkpoint")
		}
	}
}

func TestParseDurability(t *testing.T) {
	for spec, want := range map[string]SyncPolicy{"strict": SyncEveryAppend, "grouped": SyncGrouped, "grouped=5ms": SyncGrouped} {
		if got, _, err := ParseDurability(spec); err != nil || got != want {
			t.Errorf("ParseDurability(%q) = %v, %v; want %v", spec, got, err, want)
		}
	}
	for _, spec := range []string{"checkpoint", "strict=1ms", "grouped=0s", ""} {
		if _, _, err := ParseDurability(spec); err == nil {
			t.Errorf("ParseDurability(%q) succeeded, want an error", spec)
		}
	}
}

func TestServeRoundTrip(t *testing.T) {
	db, s := openPinned()
	s.MustExec(`CREATE TABLE t (a INT)`, nil)
	s.MustExec(`INSERT INTO t VALUES (7)`, nil)
	srv, err := db.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if srv.Addr() == "" {
		t.Error("server address empty")
	}
}

func TestFormatHelper(t *testing.T) {
	_, s := openPinned()
	res := s.MustExec(`SELECT 1 AS one`, nil)
	if Format(res) == "" {
		t.Error("Format produced nothing")
	}
}

func TestSessionNow(t *testing.T) {
	_, s := openPinned()
	if s.Now() != temporal.MustDate(1999, 11, 12) {
		t.Errorf("Now = %s", s.Now())
	}
	s.MustExec(`SET NOW = '2005-01-01'`, nil)
	if s.Now() != temporal.MustDate(2005, 1, 1) {
		t.Errorf("Now after override = %s", s.Now())
	}
}

// reopen closes a durable database without a checkpoint — the log is
// all a crash would leave — and opens its directory again.
func reopen(t *testing.T, db *DB, dir string) *DB {
	t.Helper()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db, err := OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = db.Close() })
	return db
}

func countT(t *testing.T, db *DB) int64 {
	t.Helper()
	return db.Session().MustExec(`SELECT COUNT(*) FROM t`, nil).Rows[0][0].Int()
}

// A torn tail is cut off when the directory opens, so the statements
// appended after it are read back by the next open instead of failing
// it with a checksum error.
func TestTornTailReopenedTwice(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	db.Session().MustExec(`CREATE TABLE t (a INT)`, nil)
	db.Session().MustExec(`INSERT INTO t VALUES (1)`, nil)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(dir, "wal.log"), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{40, 1, 2}); err != nil { // a frame cut short
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	db, err = OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	db.Session().MustExec(`INSERT INTO t VALUES (2)`, nil)
	db = reopen(t, db, dir)
	if got := countT(t, db); got != 2 {
		t.Errorf("rows after the second reopen = %d, want 2", got)
	}
}

// A transaction a crash left open is rolled back through the log when
// the directory opens, so replay does not fold a later autocommit
// statement into it and undo that statement with it.
func TestCrashMidTransactionThenWrite(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	db.Session().MustExec(`CREATE TABLE t (a INT)`, nil)
	s := db.Session()
	s.MustExec(`BEGIN`, nil)
	s.MustExec(`INSERT INTO t VALUES (1)`, nil)
	db = reopen(t, db, dir) // the crash: no COMMIT, no ROLLBACK
	db.Session().MustExec(`INSERT INTO t VALUES (2)`, nil)
	if got := countT(t, db); got != 1 {
		t.Fatalf("live rows = %d, want 1", got)
	}
	db = reopen(t, db, dir)
	if got := countT(t, db); got != 1 {
		t.Errorf("recovered rows = %d, want 1 (the live count)", got)
	}
}
