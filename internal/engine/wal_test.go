package engine_test

import (
	"os"
	"path/filepath"
	"testing"

	"tip/internal/blade"
	"tip/internal/core"
	"tip/internal/engine"
	"tip/internal/temporal"
	"tip/internal/types"
)

func newWALDB(t *testing.T, walPath string) (*engine.Database, *engine.Session) {
	t.Helper()
	db, s := newDB(t)
	if err := db.EnableWAL(walPath); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = db.DisableWAL() })
	return db, s
}

// recover builds a fresh engine and replays the log into it.
func recoverDB(t *testing.T, walPath string) *engine.Session {
	t.Helper()
	reg := blade.NewRegistry()
	if _, err := core.Register(reg); err != nil {
		t.Fatal(err)
	}
	db := engine.New(reg)
	db.SetClock(func() temporal.Chronon { return testNow })
	if err := db.ReplayWAL(walPath); err != nil {
		t.Fatal(err)
	}
	return db.NewSession()
}

func TestWALReplayRebuildsState(t *testing.T) {
	wal := filepath.Join(t.TempDir(), "wal.log")
	_, s := newWALDB(t, wal)
	mustExec(t, s, `CREATE TABLE t (a INT, valid Element)`)
	mustExec(t, s, `INSERT INTO t VALUES (1, '{[1999-01-01, NOW]}')`)
	mustExec(t, s, `UPDATE t SET a = 2 WHERE a = 1`)
	mustExec(t, s, `INSERT INTO t VALUES (3, NULL)`)
	mustExec(t, s, `DELETE FROM t WHERE a = 3`)
	mustExec(t, s, `CREATE INDEX tv ON t (valid) USING PERIOD`)

	s2 := recoverDB(t, wal)
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
	wal := filepath.Join(t.TempDir(), "wal.log")
	db, s := newWALDB(t, wal)
	mustExec(t, s, `CREATE TABLE t (c Chronon)`)
	// now() must replay as the ORIGINAL execution time, not replay time.
	mustExec(t, s, `INSERT INTO t VALUES (now())`)
	// Typed parameters round-trip through the log.
	if _, err := s.Exec(`INSERT INTO t VALUES (:c)`, map[string]types.Value{
		"c": types.NewUDT(mustChrononType(t, db), temporal.MustDate(1998, 5, 5)),
	}); err != nil {
		t.Fatal(err)
	}

	s2 := recoverDB(t, wal)
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
	wal := filepath.Join(t.TempDir(), "wal.log")
	_, s := newWALDB(t, wal)
	mustExec(t, s, `CREATE TABLE t (a INT)`)
	mustExec(t, s, `BEGIN`)
	mustExec(t, s, `INSERT INTO t VALUES (1)`)
	mustExec(t, s, `ROLLBACK`)
	mustExec(t, s, `INSERT INTO t VALUES (2)`)

	s2 := recoverDB(t, wal)
	res := mustExec(t, s2, `SELECT a FROM t`)
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 2 {
		t.Fatalf("recovered after rollback = %v", res.Rows)
	}
}

func TestWALOpenTransactionRolledBackAtRecovery(t *testing.T) {
	wal := filepath.Join(t.TempDir(), "wal.log")
	_, s := newWALDB(t, wal)
	mustExec(t, s, `CREATE TABLE t (a INT)`)
	mustExec(t, s, `INSERT INTO t VALUES (1)`)
	mustExec(t, s, `BEGIN`)
	mustExec(t, s, `INSERT INTO t VALUES (99)`)
	// "Crash": no COMMIT is ever logged.

	s2 := recoverDB(t, wal)
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
func liveMatchesRecovered(t *testing.T, live *engine.Session, wal string) {
	t.Helper()
	for name, s := range map[string]*engine.Session{"live": live, "recovered": recoverDB(t, wal)} {
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
	wal := filepath.Join(t.TempDir(), "wal.log")
	db, s := newWALDB(t, wal)
	mustExec(t, s, `CREATE TABLE t (a INT)`)
	closedMidTransaction(t, db)
	mustExec(t, s, `BEGIN`)
	mustExec(t, s, `INSERT INTO t VALUES (2)`)
	mustExec(t, s, `COMMIT`)
	liveMatchesRecovered(t, s, wal)
}

// A session closed mid-transaction does not swallow another session's
// later autocommit write into its transaction at replay.
func TestWALClosedSessionThenAutocommit(t *testing.T) {
	wal := filepath.Join(t.TempDir(), "wal.log")
	db, s := newWALDB(t, wal)
	mustExec(t, s, `CREATE TABLE t (a INT)`)
	closedMidTransaction(t, db)
	mustExec(t, s, `INSERT INTO t VALUES (2)`)
	liveMatchesRecovered(t, s, wal)
}

func TestWALTornTailIgnored(t *testing.T) {
	wal := filepath.Join(t.TempDir(), "wal.log")
	db, s := newWALDB(t, wal)
	mustExec(t, s, `CREATE TABLE t (a INT)`)
	mustExec(t, s, `INSERT INTO t VALUES (1)`)
	if err := db.DisableWAL(); err != nil {
		t.Fatal(err)
	}
	// Simulate a torn write: append a frame header claiming more bytes
	// than exist.
	f, err := os.OpenFile(wal, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{200, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	_ = f.Close()

	s2 := recoverDB(t, wal)
	if got := count(t, s2, `SELECT COUNT(*) FROM t`); got != 1 {
		t.Errorf("recovered rows = %d", got)
	}
}

func TestWALCheckpointTruncates(t *testing.T) {
	dir := t.TempDir()
	wal := filepath.Join(dir, "wal.log")
	snapshot := filepath.Join(dir, "snap.tipdb")
	db, s := newWALDB(t, wal)
	mustExec(t, s, `CREATE TABLE t (a INT)`)
	mustExec(t, s, `INSERT INTO t VALUES (1)`)
	if err := db.Checkpoint(snapshot); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(wal)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() != 0 {
		t.Errorf("wal size after checkpoint = %d", info.Size())
	}
	// Post-checkpoint changes land in the fresh log.
	mustExec(t, s, `INSERT INTO t VALUES (2)`)

	// Recovery = snapshot + remaining log.
	reg := blade.NewRegistry()
	if _, err := core.Register(reg); err != nil {
		t.Fatal(err)
	}
	db2 := engine.New(reg)
	db2.SetClock(func() temporal.Chronon { return testNow })
	if err := db2.Load(snapshot); err != nil {
		t.Fatal(err)
	}
	if err := db2.ReplayWAL(wal); err != nil {
		t.Fatal(err)
	}
	if got := count(t, db2.NewSession(), `SELECT COUNT(*) FROM t`); got != 2 {
		t.Errorf("snapshot+log recovery rows = %d", got)
	}
}

// Regression: ExecScript used to bypass WAL logging entirely, so any
// state created through a script silently vanished on recovery. Scripts
// now log each statement individually.
func TestWALScriptStatementsReplay(t *testing.T) {
	wal := filepath.Join(t.TempDir(), "wal.log")
	_, s := newWALDB(t, wal)
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

	s2 := recoverDB(t, wal)
	res := mustExec(t, s2, `SELECT a, valid FROM t`)
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 7 {
		t.Fatalf("recovered script rows = %v", res.Rows)
	}
	if res.Rows[0][1].Format() != "{[1999-01-01, NOW]}" {
		t.Errorf("recovered element = %s", res.Rows[0][1].Format())
	}
}

func TestWALSelectsNotLogged(t *testing.T) {
	wal := filepath.Join(t.TempDir(), "wal.log")
	db, s := newWALDB(t, wal)
	mustExec(t, s, `CREATE TABLE t (a INT)`)
	before, _ := os.Stat(wal)
	mustExec(t, s, `SELECT * FROM t`)
	mustExec(t, s, `SHOW TABLES`)
	mustExec(t, s, `SET NOW = '2000-01-01'`)
	after, _ := os.Stat(wal)
	if before.Size() != after.Size() {
		t.Error("read-only statements were logged")
	}
	_ = db
}

func TestWALDoubleEnableFails(t *testing.T) {
	wal := filepath.Join(t.TempDir(), "wal.log")
	db, _ := newWALDB(t, wal)
	if err := db.EnableWAL(wal); err == nil {
		t.Error("double EnableWAL should fail")
	}
	// Disable is idempotent.
	if err := db.DisableWAL(); err != nil {
		t.Fatal(err)
	}
	if err := db.DisableWAL(); err != nil {
		t.Fatal(err)
	}
}
