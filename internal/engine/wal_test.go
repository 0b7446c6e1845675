package engine_test

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"tip/internal/blade"
	"tip/internal/core"
	"tip/internal/engine"
	"tip/internal/temporal"
	"tip/internal/types"
)

// openDir opens the durable database in dir under the test clock and
// closes it when the test ends.
func openDir(t *testing.T, dir string) (*engine.Database, *engine.Session) {
	t.Helper()
	reg := blade.NewRegistry()
	if _, err := core.Register(reg); err != nil {
		t.Fatal(err)
	}
	db, err := engine.Open(reg, dir)
	if err != nil {
		t.Fatal(err)
	}
	db.SetClock(func() temporal.Chronon { return testNow })
	t.Cleanup(func() { _ = db.Close() })
	return db, db.NewSession()
}

// recoverDB copies the files of the durable database in dir — the disk
// image a crash would leave — and opens the copy.
func recoverDB(t *testing.T, dir string) *engine.Session {
	t.Helper()
	crashed := t.TempDir()
	for _, name := range []string{"snapshot.tipdb", "wal.log"} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if errors.Is(err, os.ErrNotExist) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(crashed, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	_, s := openDir(t, crashed)
	return s
}

func TestWALReplayRebuildsState(t *testing.T) {
	dir := t.TempDir()
	_, s := openDir(t, dir)
	mustExec(t, s, `CREATE TABLE t (a INT, valid Element)`)
	mustExec(t, s, `INSERT INTO t VALUES (1, '{[1999-01-01, NOW]}')`)
	mustExec(t, s, `UPDATE t SET a = 2 WHERE a = 1`)
	mustExec(t, s, `INSERT INTO t VALUES (3, NULL)`)
	mustExec(t, s, `DELETE FROM t WHERE a = 3`)
	mustExec(t, s, `CREATE INDEX tv ON t (valid) USING PERIOD`)

	s2 := recoverDB(t, dir)
	res := mustExec(t, s2, `SELECT a, valid FROM t`)
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 2 {
		t.Fatalf("recovered rows = %v", res.Rows)
	}
	if res.Rows[0][1].Format() != "{[1999-01-01, NOW]}" {
		t.Errorf("recovered element = %s", res.Rows[0][1].Format())
	}
	// The index was recreated by replaying CREATE INDEX.
	if got := count(t, s2, `SELECT COUNT(*) FROM t WHERE overlaps(valid, '[1999-06-01, 1999-06-02]')`); got != 1 {
		t.Errorf("recovered index lookup = %d", got)
	}
}

func TestWALParamsAndNowFidelity(t *testing.T) {
	dir := t.TempDir()
	db, s := openDir(t, dir)
	mustExec(t, s, `CREATE TABLE t (c Chronon)`)
	// now() must replay as the ORIGINAL execution time, not replay time.
	mustExec(t, s, `INSERT INTO t VALUES (now())`)
	// Typed parameters round-trip through the log.
	if _, err := s.Exec(`INSERT INTO t VALUES (:c)`, map[string]types.Value{
		"c": types.NewUDT(mustChrononType(t, db), temporal.MustDate(1998, 5, 5)),
	}); err != nil {
		t.Fatal(err)
	}

	s2 := recoverDB(t, dir)
	// Recovery engine has a different "today"; pin it far away to prove
	// the logged NOW is used.
	res := mustExec(t, s2, `SELECT c FROM t ORDER BY c`)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.Rows[0][0].Format() != "1998-05-05" || res.Rows[1][0].Format() != "1999-11-12" {
		t.Errorf("recovered chronons = %v, %v",
			res.Rows[0][0].Format(), res.Rows[1][0].Format())
	}
}

func mustChrononType(t *testing.T, db *engine.Database) *types.Type {
	t.Helper()
	typ, ok := db.Registry().LookupType("Chronon")
	if !ok {
		t.Fatal("Chronon type missing")
	}
	return typ
}

func TestWALRollbackReplays(t *testing.T) {
	dir := t.TempDir()
	_, s := openDir(t, dir)
	mustExec(t, s, `CREATE TABLE t (a INT)`)
	mustExec(t, s, `BEGIN`)
	mustExec(t, s, `INSERT INTO t VALUES (1)`)
	mustExec(t, s, `ROLLBACK`)
	mustExec(t, s, `INSERT INTO t VALUES (2)`)

	s2 := recoverDB(t, dir)
	res := mustExec(t, s2, `SELECT a FROM t`)
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 2 {
		t.Fatalf("recovered after rollback = %v", res.Rows)
	}
}

func TestWALOpenTransactionRolledBackAtRecovery(t *testing.T) {
	dir := t.TempDir()
	_, s := openDir(t, dir)
	mustExec(t, s, `CREATE TABLE t (a INT)`)
	mustExec(t, s, `INSERT INTO t VALUES (1)`)
	mustExec(t, s, `BEGIN`)
	mustExec(t, s, `INSERT INTO t VALUES (99)`)
	// "Crash": no COMMIT is ever logged.

	s2 := recoverDB(t, dir)
	res := mustExec(t, s2, `SELECT a FROM t`)
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 1 {
		t.Fatalf("uncommitted work survived recovery: %v", res.Rows)
	}
}

// closedMidTransaction opens a session on db, leaves a transaction
// open with one INSERT of a = 1 and closes the session, as the server
// does when a client disconnects.
func closedMidTransaction(t *testing.T, db *engine.Database) {
	t.Helper()
	a := db.NewSession()
	mustExec(t, a, `BEGIN`)
	mustExec(t, a, `INSERT INTO t VALUES (1)`)
	a.Close()
}

// liveMatchesRecovered checks that the live table and the one recovered
// from the log both hold exactly the committed row a = 2.
func liveMatchesRecovered(t *testing.T, live *engine.Session, dir string) {
	t.Helper()
	for name, s := range map[string]*engine.Session{"live": live, "recovered": recoverDB(t, dir)} {
		res := mustExec(t, s, `SELECT a FROM t`)
		if len(res.Rows) != 1 || res.Rows[0][0].Int() != 2 {
			t.Errorf("%s rows = %v, want [[2]]", name, res.Rows)
		}
	}
}

// A session closed mid-transaction rolls the transaction back through
// the log, so another session's later BEGIN replays without finding a
// transaction already open.
func TestWALClosedSessionThenTransaction(t *testing.T) {
	dir := t.TempDir()
	db, s := openDir(t, dir)
	mustExec(t, s, `CREATE TABLE t (a INT)`)
	closedMidTransaction(t, db)
	mustExec(t, s, `BEGIN`)
	mustExec(t, s, `INSERT INTO t VALUES (2)`)
	mustExec(t, s, `COMMIT`)
	liveMatchesRecovered(t, s, dir)
}

// A session closed mid-transaction does not swallow another session's
// later autocommit write into its transaction at replay.
func TestWALClosedSessionThenAutocommit(t *testing.T) {
	dir := t.TempDir()
	db, s := openDir(t, dir)
	mustExec(t, s, `CREATE TABLE t (a INT)`)
	closedMidTransaction(t, db)
	mustExec(t, s, `INSERT INTO t VALUES (2)`)
	liveMatchesRecovered(t, s, dir)
}

// appendTorn appends a torn write to the closed database's log: a frame
// header claiming more bytes than follow.
func appendTorn(t *testing.T, dir string) {
	t.Helper()
	f, err := os.OpenFile(filepath.Join(dir, "wal.log"), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{200, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// A torn tail is cut off at open, so what the reopened database
// appends follows the last whole frame and the next open reads it.
func TestWALTornTailIgnored(t *testing.T) {
	dir := t.TempDir()
	db, s := openDir(t, dir)
	mustExec(t, s, `CREATE TABLE t (a INT)`)
	mustExec(t, s, `INSERT INTO t VALUES (1)`)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	appendTorn(t, dir)

	db2, s2 := openDir(t, dir)
	if got := count(t, s2, `SELECT COUNT(*) FROM t`); got != 1 {
		t.Errorf("recovered rows = %d", got)
	}
	mustExec(t, s2, `INSERT INTO t VALUES (2)`)
	if err := db2.Close(); err != nil {
		t.Fatal(err)
	}
	_, s3 := openDir(t, dir)
	if got := count(t, s3, `SELECT COUNT(*) FROM t`); got != 2 {
		t.Errorf("rows after the second open = %d, want 2", got)
	}
}

func TestWALCheckpointTruncates(t *testing.T) {
	dir := t.TempDir()
	db, s := openDir(t, dir)
	mustExec(t, s, `CREATE TABLE t (a INT)`)
	mustExec(t, s, `INSERT INTO t VALUES (1)`)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() != 0 {
		t.Errorf("wal size after checkpoint = %d", info.Size())
	}
	// Post-checkpoint changes land in the fresh log.
	mustExec(t, s, `INSERT INTO t VALUES (2)`)

	// Recovery = snapshot + remaining log.
	if got := count(t, recoverDB(t, dir), `SELECT COUNT(*) FROM t`); got != 2 {
		t.Errorf("snapshot+log recovery rows = %d", got)
	}
	// Without a log, Checkpoint has nothing to write to.
	mem, _ := newDB(t)
	if err := mem.Checkpoint(); err == nil {
		t.Error("Checkpoint of an in-memory database should fail")
	}
}

// Regression: ExecScript used to bypass WAL logging entirely, so any
// state created through a script silently vanished on recovery. Scripts
// now log each statement individually.
func TestWALScriptStatementsReplay(t *testing.T) {
	dir := t.TempDir()
	_, s := openDir(t, dir)
	if _, err := s.ExecScript(`
		CREATE TABLE t (a INT, valid Element);
		INSERT INTO t VALUES (:a, '{[1999-01-01, NOW]}');
		INSERT INTO t VALUES (2, NULL);
		DELETE FROM t WHERE a = 2;
	`, params("a", 1)); err != nil {
		t.Fatal(err)
	}
	// A mixed script: reads interleaved with writes; only writes log.
	if _, err := s.ExecScript(`
		SELECT * FROM t;
		UPDATE t SET a = 7 WHERE a = 1;
	`, nil); err != nil {
		t.Fatal(err)
	}

	s2 := recoverDB(t, dir)
	res := mustExec(t, s2, `SELECT a, valid FROM t`)
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 7 {
		t.Fatalf("recovered script rows = %v", res.Rows)
	}
	if res.Rows[0][1].Format() != "{[1999-01-01, NOW]}" {
		t.Errorf("recovered element = %s", res.Rows[0][1].Format())
	}
}

func TestWALSelectsNotLogged(t *testing.T) {
	dir := t.TempDir()
	_, s := openDir(t, dir)
	wal := filepath.Join(dir, "wal.log")
	mustExec(t, s, `CREATE TABLE t (a INT)`)
	before, _ := os.Stat(wal)
	mustExec(t, s, `SELECT * FROM t`)
	mustExec(t, s, `SHOW TABLES`)
	mustExec(t, s, `SET NOW = '2000-01-01'`)
	after, _ := os.Stat(wal)
	if before.Size() != after.Size() {
		t.Error("read-only statements were logged")
	}
}

// Close seals the log: later writes still apply in memory but report
// ErrWALFailed, and a second Close is a no-op.
func TestWALCloseSeals(t *testing.T) {
	db, s := openDir(t, t.TempDir())
	mustExec(t, s, `CREATE TABLE t (a INT)`)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec(`INSERT INTO t VALUES (1)`, nil); !errors.Is(err, engine.ErrWALFailed) {
		t.Errorf("write after Close: err = %v, want ErrWALFailed", err)
	}
	if err := db.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	if err := db.Checkpoint(); err == nil {
		t.Error("Checkpoint after Close should fail")
	}
}
