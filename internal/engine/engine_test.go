package engine_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tip/internal/blade"
	"tip/internal/core"
	"tip/internal/engine"
	"tip/internal/exec"
	"tip/internal/temporal"
)

var testNow = temporal.MustDate(1999, 11, 12)

func newDB(t *testing.T) (*engine.Database, *engine.Session) {
	t.Helper()
	reg := blade.NewRegistry()
	if _, err := core.Register(reg); err != nil {
		t.Fatal(err)
	}
	db := engine.New(reg)
	db.SetClock(func() temporal.Chronon { return testNow })
	return db, db.NewSession()
}

func mustExec(t *testing.T, s *engine.Session, sql string) *exec.Result {
	t.Helper()
	res, err := s.Exec(sql, nil)
	if err != nil {
		t.Fatalf("Exec(%s): %v", sql, err)
	}
	return res
}

func count(t *testing.T, s *engine.Session, sql string) int64 {
	t.Helper()
	res := mustExec(t, s, sql)
	if len(res.Rows) != 1 {
		t.Fatalf("count query returned %d rows", len(res.Rows))
	}
	return res.Rows[0][0].Int()
}

func TestCreateDropTable(t *testing.T) {
	_, s := newDB(t)
	mustExec(t, s, `CREATE TABLE t (a INT, b VARCHAR(10) NOT NULL)`)
	if _, err := s.Exec(`CREATE TABLE t (a INT)`, nil); err == nil {
		t.Error("duplicate CREATE TABLE should fail")
	}
	mustExec(t, s, `CREATE TABLE IF NOT EXISTS t (a INT)`)
	mustExec(t, s, `DROP TABLE t`)
	if _, err := s.Exec(`DROP TABLE t`, nil); err == nil {
		t.Error("DROP of missing table should fail")
	}
	mustExec(t, s, `DROP TABLE IF EXISTS t`)
	if _, err := s.Exec(`CREATE TABLE u (a NoSuchType)`, nil); err == nil {
		t.Error("unknown column type should fail")
	}
}

func TestInsertSelectBasics(t *testing.T) {
	_, s := newDB(t)
	mustExec(t, s, `CREATE TABLE t (a INT, b VARCHAR(10), c FLOAT)`)
	mustExec(t, s, `INSERT INTO t VALUES (1, 'one', 1.5), (2, 'two', 2.5), (3, 'three', 3.5)`)
	mustExec(t, s, `INSERT INTO t (b, a) VALUES ('four', 4)`)

	res := mustExec(t, s, `SELECT a, b, c FROM t ORDER BY a`)
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.Rows[3][2].Format() != "NULL" {
		t.Errorf("unlisted column should be NULL, got %s", res.Rows[3][2].Format())
	}
	if got := count(t, s, `SELECT COUNT(*) FROM t WHERE a > 2`); got != 2 {
		t.Errorf("count = %d", got)
	}
	// NOT NULL enforcement.
	mustExec(t, s, `CREATE TABLE nn (a INT NOT NULL)`)
	if _, err := s.Exec(`INSERT INTO nn VALUES (NULL)`, nil); err == nil {
		t.Error("NULL into NOT NULL should fail")
	}
	// Arity check.
	if _, err := s.Exec(`INSERT INTO t VALUES (1)`, nil); err == nil {
		t.Error("wrong arity should fail")
	}
}

func TestInsertFromSelect(t *testing.T) {
	_, s := newDB(t)
	mustExec(t, s, `CREATE TABLE src (a INT)`)
	mustExec(t, s, `CREATE TABLE dst (a INT)`)
	mustExec(t, s, `INSERT INTO src VALUES (1), (2), (3)`)
	res := mustExec(t, s, `INSERT INTO dst SELECT a * 10 FROM src WHERE a >= 2`)
	if res.Affected != 2 {
		t.Fatalf("affected = %d", res.Affected)
	}
	if got := count(t, s, `SELECT SUM(a) FROM dst`); got != 50 {
		t.Errorf("sum = %d", got)
	}
}

func TestUpdateDelete(t *testing.T) {
	_, s := newDB(t)
	mustExec(t, s, `CREATE TABLE t (a INT, b VARCHAR(10))`)
	mustExec(t, s, `INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, 'z')`)
	res := mustExec(t, s, `UPDATE t SET b = 'updated', a = a + 100 WHERE a >= 2`)
	if res.Affected != 2 {
		t.Fatalf("update affected = %d", res.Affected)
	}
	if got := count(t, s, `SELECT COUNT(*) FROM t WHERE b = 'updated'`); got != 2 {
		t.Errorf("updated rows = %d", got)
	}
	// SET expressions see the old row values.
	if got := count(t, s, `SELECT COUNT(*) FROM t WHERE a = 102`); got != 1 {
		t.Errorf("a=102 rows = %d", got)
	}
	res = mustExec(t, s, `DELETE FROM t WHERE a > 100`)
	if res.Affected != 2 {
		t.Fatalf("delete affected = %d", res.Affected)
	}
	if got := count(t, s, `SELECT COUNT(*) FROM t`); got != 1 {
		t.Errorf("remaining = %d", got)
	}
}

func TestTransactionsRollback(t *testing.T) {
	_, s := newDB(t)
	mustExec(t, s, `CREATE TABLE t (a INT)`)
	mustExec(t, s, `INSERT INTO t VALUES (1), (2)`)

	mustExec(t, s, `BEGIN`)
	mustExec(t, s, `INSERT INTO t VALUES (3)`)
	mustExec(t, s, `UPDATE t SET a = 20 WHERE a = 2`)
	mustExec(t, s, `DELETE FROM t WHERE a = 1`)
	if got := count(t, s, `SELECT COUNT(*) FROM t`); got != 2 {
		t.Fatalf("mid-txn count = %d", got)
	}
	mustExec(t, s, `ROLLBACK`)

	res := mustExec(t, s, `SELECT a FROM t ORDER BY a`)
	if len(res.Rows) != 2 || res.Rows[0][0].Int() != 1 || res.Rows[1][0].Int() != 2 {
		t.Fatalf("rollback did not restore rows: %v", res.Rows)
	}

	// Commit keeps changes.
	mustExec(t, s, `BEGIN`)
	mustExec(t, s, `INSERT INTO t VALUES (3)`)
	mustExec(t, s, `COMMIT`)
	if got := count(t, s, `SELECT COUNT(*) FROM t`); got != 3 {
		t.Errorf("post-commit count = %d", got)
	}

	// Transaction state errors.
	if _, err := s.Exec(`COMMIT`, nil); err == nil {
		t.Error("COMMIT without BEGIN should fail")
	}
	if _, err := s.Exec(`ROLLBACK`, nil); err == nil {
		t.Error("ROLLBACK without BEGIN should fail")
	}
	mustExec(t, s, `BEGIN`)
	if _, err := s.Exec(`BEGIN`, nil); err == nil {
		t.Error("nested BEGIN should fail")
	}
	mustExec(t, s, `ROLLBACK`)
}

// TestTransactionTimeFixesNow checks that every statement of one
// transaction sees the same NOW (the transaction's begin time).
func TestTransactionTimeFixesNow(t *testing.T) {
	db, s := newDB(t)
	mustExec(t, s, `BEGIN`)
	inTxn := s.Now()
	db.SetClock(func() temporal.Chronon { return temporal.MustDate(2005, 1, 1) })
	if s.Now() != inTxn {
		t.Error("NOW changed inside a transaction")
	}
	mustExec(t, s, `COMMIT`)
	if s.Now() != temporal.MustDate(2005, 1, 1) {
		t.Error("NOW should track the clock outside a transaction")
	}
}

func TestRollbackRestoresIndexes(t *testing.T) {
	_, s := newDB(t)
	mustExec(t, s, `CREATE TABLE t (a INT, valid Element)`)
	mustExec(t, s, `INSERT INTO t VALUES (1, '{[1999-01-01, 1999-02-01]}')`)
	mustExec(t, s, `CREATE INDEX ta ON t (a)`)
	mustExec(t, s, `CREATE INDEX tv ON t (valid) USING PERIOD`)

	mustExec(t, s, `BEGIN`)
	mustExec(t, s, `INSERT INTO t VALUES (2, '{[1999-06-01, 1999-07-01]}')`)
	mustExec(t, s, `UPDATE t SET a = 10 WHERE a = 1`)
	mustExec(t, s, `ROLLBACK`)

	// Both index paths must still find exactly the original row.
	if got := count(t, s, `SELECT COUNT(*) FROM t WHERE a = 1`); got != 1 {
		t.Errorf("hash index after rollback: %d", got)
	}
	if got := count(t, s, `SELECT COUNT(*) FROM t WHERE a = 10`); got != 0 {
		t.Errorf("stale hash entry after rollback: %d", got)
	}
	if got := count(t, s, `SELECT COUNT(*) FROM t WHERE overlaps(valid, '{[1999-01-15, 1999-06-15]}')`); got != 1 {
		t.Errorf("period index after rollback: %d", got)
	}
}

func TestCreateIndexValidation(t *testing.T) {
	_, s := newDB(t)
	mustExec(t, s, `CREATE TABLE t (a INT, i Instant, valid Element)`)
	// NOW-dependent keys cannot be hash indexed.
	if _, err := s.Exec(`CREATE INDEX ti ON t (i)`, nil); err == nil {
		t.Error("hash index on Instant should fail")
	}
	// PERIOD index requires a temporal column.
	if _, err := s.Exec(`CREATE INDEX ta ON t (a) USING PERIOD`, nil); err == nil {
		t.Error("PERIOD index on INT should fail")
	}
	mustExec(t, s, `CREATE INDEX tv ON t (valid) USING PERIOD`)
	if _, err := s.Exec(`CREATE INDEX tv2 ON t (valid) USING PERIOD`, nil); err == nil {
		t.Error("duplicate period index on a column should fail")
	}
	mustExec(t, s, `DROP INDEX tv`)
	mustExec(t, s, `CREATE INDEX tv ON t (valid) USING PERIOD`)
}

func TestIndexEquivalence(t *testing.T) {
	// Queries must return identical results with and without indexes.
	_, plain := newDB(t)
	_, indexed := newDB(t)
	for _, s := range []*engine.Session{plain, indexed} {
		mustExec(t, s, `CREATE TABLE t (a INT, valid Element)`)
	}
	mustExec(t, indexed, `CREATE INDEX ta ON t (a)`)
	mustExec(t, indexed, `CREATE INDEX tv ON t (valid) USING PERIOD`)
	rows := []string{
		`(1, '{[1999-01-01, 1999-02-01]}')`,
		`(2, '{[1999-03-01, 1999-04-01], [1999-06-01, 1999-07-01]}')`,
		`(3, '{[1999-10-01, NOW]}')`,
		`(1, '{[1998-01-01, 1998-06-01]}')`,
	}
	for _, r := range rows {
		for _, s := range []*engine.Session{plain, indexed} {
			mustExec(t, s, `INSERT INTO t VALUES `+r)
		}
	}
	queries := []string{
		`SELECT COUNT(*) FROM t WHERE a = 1`,
		`SELECT COUNT(*) FROM t WHERE overlaps(valid, '{[1999-01-15, 1999-03-15]}')`,
		`SELECT COUNT(*) FROM t WHERE overlaps(valid, '[1999-11-01, 1999-11-30]')`,
		`SELECT COUNT(*) FROM t WHERE contains(valid, '1999-06-15'::Chronon)`,
	}
	for _, q := range queries {
		if a, b := count(t, plain, q), count(t, indexed, q); a != b {
			t.Errorf("%s: plain=%d indexed=%d", q, a, b)
		}
	}
}

func TestPersistenceRoundTrip(t *testing.T) {
	dir := t.TempDir()
	db, s := openDir(t, dir)
	mustExec(t, s, `CREATE TABLE p (name VARCHAR(20), dob Chronon, valid Element)`)
	mustExec(t, s, `INSERT INTO p VALUES ('a', '1970-01-01', '{[1999-01-01, NOW]}'),
		('b', '1980-06-15 12:30:00', '{[1998-01-01, 1998-06-01], [1999-02-01, 1999-03-01]}'),
		('c', NULL, NULL)`)
	mustExec(t, s, `CREATE INDEX pn ON p (name)`)
	mustExec(t, s, `CREATE INDEX pv ON p (valid) USING PERIOD`)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	// Reload from the snapshot alone (the log is empty) into a fresh
	// engine with the same blades.
	s2 := recoverDB(t, dir)
	res := mustExec(t, s2, `SELECT name, dob, valid FROM p ORDER BY name`)
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if got := res.Rows[0][2].Format(); got != "{[1999-01-01, NOW]}" {
		t.Errorf("NOW-relative element not preserved: %q", got)
	}
	if !res.Rows[2][1].Null || !res.Rows[2][2].Null {
		t.Error("NULLs not preserved")
	}
	// Indexes were rebuilt.
	if got := count(t, s2, `SELECT COUNT(*) FROM p WHERE name = 'b'`); got != 1 {
		t.Errorf("rebuilt hash index: %d", got)
	}
	if got := count(t, s2, `SELECT COUNT(*) FROM p WHERE overlaps(valid, '[1999-02-15, 1999-02-20]')`); got != 2 {
		t.Errorf("rebuilt period index: %d", got)
	}
	// A corrupt snapshot fails the open cleanly.
	bad := t.TempDir()
	if err := os.WriteFile(filepath.Join(bad, "snapshot.tipdb"), []byte("TIPDB9\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := engine.Open(db.Registry(), bad); err == nil {
		t.Error("Open over a corrupt snapshot should fail")
	}
}

func TestShowTables(t *testing.T) {
	_, s := newDB(t)
	mustExec(t, s, `CREATE TABLE bbb (a INT)`)
	mustExec(t, s, `CREATE TABLE aaa (a INT)`)
	res := mustExec(t, s, `SHOW TABLES`)
	if len(res.Rows) != 2 || res.Rows[0][0].Str() != "aaa" || res.Rows[1][0].Str() != "bbb" {
		t.Errorf("SHOW TABLES = %v", res.Rows)
	}
}

func TestDescribe(t *testing.T) {
	_, s := newDB(t)
	mustExec(t, s, `CREATE TABLE t (a INT NOT NULL, valid Element)`)
	mustExec(t, s, `CREATE INDEX tv ON t (valid) USING PERIOD`)
	res := mustExec(t, s, `DESCRIBE t`)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.Rows[0][1].Str() != "INT" || res.Rows[0][2].Str() != "NO" {
		t.Errorf("column a = %v", res.Rows[0])
	}
	if res.Rows[1][1].Str() != "Element" || res.Rows[1][3].Str() != "tv (period)" {
		t.Errorf("column valid = %v", res.Rows[1])
	}
	if _, err := s.Exec(`DESCRIBE missing`, nil); err == nil {
		t.Error("DESCRIBE of missing table should fail")
	}
}

func TestExecScript(t *testing.T) {
	_, s := newDB(t)
	res, err := s.ExecScript(`
		CREATE TABLE t (a INT);
		INSERT INTO t VALUES (1), (2);
		SELECT SUM(a) FROM t;`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() != 3 {
		t.Errorf("script result = %v", res.Rows)
	}
}

func TestAssignmentCoercion(t *testing.T) {
	_, s := newDB(t)
	mustExec(t, s, `CREATE TABLE t (c Chronon, e Element, f FLOAT)`)
	// String literals coerce to UDT columns; INT coerces to FLOAT;
	// Chronon values coerce to Element columns through the widening
	// casts.
	mustExec(t, s, `INSERT INTO t VALUES ('1999-01-01', '1999-06-01'::Chronon, 2)`)
	res := mustExec(t, s, `SELECT c, e, f FROM t`)
	if got := res.Rows[0][1].Format(); got != "{[1999-06-01, 1999-06-01]}" {
		t.Errorf("Chronon→Element coercion = %q", got)
	}
	if got := res.Rows[0][2].Format(); got != "2.0" {
		t.Errorf("INT→FLOAT coercion = %q", got)
	}
	// Incompatible assignment fails.
	if _, err := s.Exec(`INSERT INTO t VALUES (1.5, NULL, NULL)`, nil); err == nil {
		t.Error("FLOAT into Chronon should fail")
	}
}

func TestErrorsMentionContext(t *testing.T) {
	_, s := newDB(t)
	mustExec(t, s, `CREATE TABLE t (a INT)`)
	_, err := s.Exec(`SELECT b FROM t`, nil)
	if err == nil || !strings.Contains(err.Error(), "b") {
		t.Errorf("unknown column error = %v", err)
	}
	_, err = s.Exec(`SELECT * FROM missing`, nil)
	if err == nil || !strings.Contains(err.Error(), "missing") {
		t.Errorf("unknown table error = %v", err)
	}
}
