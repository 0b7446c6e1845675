package client_test

// End-to-end tests of the Figure 1 architecture: TIP client → wire
// protocol → TIP server → engine + DataBlade (experiment F1 of
// DESIGN.md).

import (
	"bufio"
	"database/sql"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"

	"tip/internal/blade"
	"tip/internal/client"
	"tip/internal/core"
	"tip/internal/engine"
	"tip/internal/protocol"
	"tip/internal/server"
	"tip/internal/temporal"
	"tip/internal/types"
)

var testNow = temporal.MustDate(1999, 11, 12)

// startServer spins up a TIP server on a random port.
func startServer(t *testing.T) (*server.Server, *blade.Registry, *core.Blade) {
	t.Helper()
	reg := blade.NewRegistry()
	b, err := core.Register(reg)
	if err != nil {
		t.Fatal(err)
	}
	db := engine.New(reg)
	db.SetClock(func() temporal.Chronon { return testNow })
	srv, err := server.Listen(db, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return srv, reg, b
}

// clientReg builds a fresh client-side registry with the TIP blade (the
// client library's type mapping tables).
func clientReg(t *testing.T) *blade.Registry {
	t.Helper()
	reg := blade.NewRegistry()
	if _, err := core.Register(reg); err != nil {
		t.Fatal(err)
	}
	return reg
}

func TestFigure1EndToEnd(t *testing.T) {
	srv, _, _ := startServer(t)
	c, err := client.Connect(srv.Addr(), clientReg(t))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for _, stmt := range []string{
		`CREATE TABLE Prescription (doctor CHAR(20), patient CHAR(20), patientdob Chronon,
			drug CHAR(20), dosage INT, frequency Span, valid Element)`,
		`INSERT INTO Prescription VALUES
			('Dr.Pepper', 'Mr.Showbiz', '1963-08-13', 'Diabeta', 1, '0 08:00:00', '{[1999-10-01, NOW]}')`,
	} {
		if _, err := c.Exec(stmt, nil); err != nil {
			t.Fatal(err)
		}
	}
	res, err := c.Exec(`SELECT patient, valid, length(valid) FROM Prescription WHERE drug = :d`,
		map[string]types.Value{"d": types.NewString("Diabeta")})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Customised type mapping: TIP values arrive as native objects.
	e, ok := res.Rows[0][1].Obj().(temporal.Element)
	if !ok {
		t.Fatalf("valid arrived as %T", res.Rows[0][1].Obj())
	}
	if e.String() != "{[1999-10-01, NOW]}" {
		t.Errorf("element = %s", e)
	}
	sp, ok := res.Rows[0][2].Obj().(temporal.Span)
	if !ok {
		t.Fatalf("length arrived as %T", res.Rows[0][2].Obj())
	}
	if sp != 42*temporal.Day {
		t.Errorf("length = %v, want 42 days (Oct 1 to Nov 12)", sp)
	}
}

func TestServerErrorKeepsConnection(t *testing.T) {
	srv, _, _ := startServer(t)
	c, err := client.Connect(srv.Addr(), clientReg(t))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Exec(`SELECT * FROM missing`, nil)
	var serr *client.ServerError
	if !errors.As(err, &serr) {
		t.Fatalf("err = %v, want ServerError", err)
	}
	// The connection survives a SQL error.
	if _, err := c.Exec(`SELECT 1`, nil); err != nil {
		t.Fatalf("connection dead after SQL error: %v", err)
	}
}

func TestSessionsAreIndependent(t *testing.T) {
	srv, _, _ := startServer(t)
	c1, err := client.Connect(srv.Addr(), clientReg(t))
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	c2, err := client.Connect(srv.Addr(), clientReg(t))
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()

	// SET NOW on one connection must not affect the other.
	if _, err := c1.Exec(`SET NOW = '2010-01-01'`, nil); err != nil {
		t.Fatal(err)
	}
	r1, err := c1.Exec(`SELECT now()`, nil)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := c2.Exec(`SELECT now()`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Rows[0][0].Format() != "2010-01-01" {
		t.Errorf("c1 now = %s", r1.Rows[0][0].Format())
	}
	if r2.Rows[0][0].Format() != "1999-11-12" {
		t.Errorf("c2 now = %s", r2.Rows[0][0].Format())
	}
}

func TestConcurrentClients(t *testing.T) {
	srv, _, _ := startServer(t)
	setup, err := client.Connect(srv.Addr(), clientReg(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := setup.Exec(`CREATE TABLE t (a INT)`, nil); err != nil {
		t.Fatal(err)
	}
	_ = setup.Close()

	const workers = 8
	const perWorker = 25
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := client.Connect(srv.Addr(), clientReg(t))
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for i := 0; i < perWorker; i++ {
				if _, err := c.Exec(`INSERT INTO t VALUES (:v)`,
					map[string]types.Value{"v": types.NewInt(int64(w*1000 + i))}); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	check, err := client.Connect(srv.Addr(), clientReg(t))
	if err != nil {
		t.Fatal(err)
	}
	defer check.Close()
	res, err := check.Exec(`SELECT COUNT(*) FROM t`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() != workers*perWorker {
		t.Errorf("count = %d, want %d", res.Rows[0][0].Int(), workers*perWorker)
	}
}

func TestDatabaseSQLDriver(t *testing.T) {
	srv, _, _ := startServer(t)
	client.RegisterDriver()
	db, err := sql.Open("tip", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	if _, err := db.Exec(`CREATE TABLE t (a INT, valid Element)`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`INSERT INTO t VALUES (1, '{[1999-01-01, 1999-06-01]}'), (2, NULL)`); err != nil {
		t.Fatal(err)
	}
	rows, err := db.Query(`SELECT a, valid FROM t WHERE a >= :min ORDER BY a`, sql.Named("min", 1))
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	var got []struct {
		a     int64
		valid sql.NullString
	}
	for rows.Next() {
		var a int64
		var valid sql.NullString
		if err := rows.Scan(&a, &valid); err != nil {
			t.Fatal(err)
		}
		got = append(got, struct {
			a     int64
			valid sql.NullString
		}{a, valid})
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("rows = %d", len(got))
	}
	if got[0].valid.String != "{[1999-01-01, 1999-06-01]}" {
		t.Errorf("UDT text mapping = %q", got[0].valid.String)
	}
	if got[1].valid.Valid {
		t.Error("NULL element should scan as invalid")
	}

	// Transactions through the standard interface.
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(`INSERT INTO t VALUES (3, NULL)`); err != nil {
		t.Fatal(err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	var n int64
	if err := db.QueryRow(`SELECT COUNT(*) FROM t`).Scan(&n); err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("count after rollback = %d", n)
	}
}

// TestResultTypesMatchEmbedded: result column types arrive as the
// engine's static types, not guessed from the rows — a column NULL on
// every row, and an empty result, keep theirs.
func TestResultTypesMatchEmbedded(t *testing.T) {
	reg := blade.NewRegistry()
	if _, err := core.Register(reg); err != nil {
		t.Fatal(err)
	}
	db := engine.New(reg)
	srv, err := server.Listen(db, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	c, err := client.Connect(srv.Addr(), clientReg(t))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	embedded := db.NewSession()
	for _, q := range []string{
		`CREATE TABLE t (s VARCHAR, n INT, valid Element)`,
		`INSERT INTO t VALUES ('a', NULL, '{[1999-01-01, 1999-01-02]}'), ('b', NULL, NULL)`,
	} {
		if _, err := c.Exec(q, nil); err != nil {
			t.Fatal(err)
		}
	}
	for _, q := range []string{
		`SELECT s, n, valid FROM t`,
		`SELECT s, n, valid FROM t WHERE n > 5`,
		`SELECT s, length(group_union(valid)) FROM t GROUP BY s`,
	} {
		want, err := embedded.Exec(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.Exec(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got.Types) != fmt.Sprint(want.Types) {
			t.Errorf("%s: client types %v, embedded %v", q, got.Types, want.Types)
		}
	}
}

// TestRefusesOtherProtocolVersion: a server that welcomes the client
// with another protocol revision is refused at the handshake, before a
// result frame could be misread.
func TestRefusesOtherProtocolVersion(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		r, w := bufio.NewReader(nc), bufio.NewWriter(nc)
		if _, err := protocol.ReadFrame(r); err == nil {
			// Welcomed as TIP/1 and TIP/2 did: a version and no cancel key.
			_ = protocol.WriteFrame(w, protocol.AppendString([]byte{protocol.MsgWelcome}, "TIP/1"))
		}
		_, _ = protocol.ReadFrame(r) // hold the connection until the client leaves
	}()
	c, err := client.Connect(ln.Addr().String(), clientReg(t))
	if err == nil {
		c.Close()
		t.Fatal("connected to a TIP/1 server")
	}
	if !strings.Contains(err.Error(), `"TIP/1"`) || !strings.Contains(err.Error(), protocol.Version) {
		t.Errorf("err = %v, want one naming both protocol versions", err)
	}
}

func TestServerClose(t *testing.T) {
	srv, _, _ := startServer(t)
	c, err := client.Connect(srv.Addr(), clientReg(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec(`SELECT 1`, nil); err == nil {
		t.Error("query after server close should fail")
	}
	// Double close is fine.
	if err := srv.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
}
