package server_test

// Failure injection against the wire server: malformed handshakes,
// garbage frames, oversized frames, and abrupt disconnects must never
// take the server down or poison other sessions.

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"tip"
	"tip/internal/blade"
	"tip/internal/client"
	"tip/internal/core"
	"tip/internal/engine"
	"tip/internal/exec"
	"tip/internal/protocol"
	"tip/internal/server"
	"tip/internal/temporal"
	"tip/internal/types"
)

func start(t *testing.T) *server.Server {
	t.Helper()
	reg := blade.NewRegistry()
	core.MustRegister(reg)
	db := engine.New(reg)
	db.SetClock(func() temporal.Chronon { return temporal.MustDate(1999, 11, 12) })
	srv, err := server.Listen(db, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return srv
}

// healthy verifies a fresh, well-behaved client still works.
func healthy(t *testing.T, srv *server.Server) {
	t.Helper()
	reg := blade.NewRegistry()
	core.MustRegister(reg)
	c, err := client.Connect(srv.Addr(), reg)
	if err != nil {
		t.Fatalf("healthy connect: %v", err)
	}
	defer c.Close()
	if _, err := c.Exec(`SELECT 1`, nil); err != nil {
		t.Fatalf("healthy query: %v", err)
	}
}

func dial(t *testing.T, srv *server.Server) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	return conn
}

func TestGarbageHandshake(t *testing.T) {
	srv := start(t)
	conn := dial(t, srv)
	if _, err := conn.Write([]byte("GET / HTTP/1.1\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	// The server should just drop us.
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 64)
	for {
		if _, err := conn.Read(buf); err != nil {
			break // closed or deadline — either way we were rejected
		}
	}
	healthy(t, srv)
}

func TestOversizedFrameRejected(t *testing.T) {
	srv := start(t)
	conn := dial(t, srv)
	// Claim a petabyte-sized frame in the handshake position.
	if _, err := conn.Write([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 16)
	for {
		if _, err := conn.Read(buf); err != nil {
			break
		}
	}
	healthy(t, srv)
}

func TestAbruptDisconnectMidSession(t *testing.T) {
	srv := start(t)
	conn := dial(t, srv)
	w := bufio.NewWriter(conn)
	if err := protocol.WriteFrame(w, protocol.EncodeHello("rude")); err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(conn)
	if _, err := protocol.ReadFrame(r); err != nil {
		t.Fatal(err)
	}
	// Send half a query frame then vanish.
	if _, err := conn.Write([]byte{50, protocol.MsgQuery, 3, 'S', 'E'}); err != nil {
		t.Fatal(err)
	}
	_ = conn.Close()
	healthy(t, srv)
}

// A client that disconnects mid-transaction, by hanging up or by the
// server closing under it, has its transaction rolled back: the state a
// durable database recovers after that equals the live one.
func TestDisconnectMidTransactionRecovers(t *testing.T) {
	for _, tc := range []struct {
		name       string
		disconnect func(c *client.Conn, srv *server.Server) error
	}{
		{"client hangs up", func(c *client.Conn, srv *server.Server) error {
			_ = c.Close()
			return srv.Shutdown(time.Minute) // waits for the session to close
		}},
		{"server closes", func(_ *client.Conn, srv *server.Server) error { return srv.Close() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "db")
			db, err := tip.OpenDurable(dir)
			if err != nil {
				t.Fatal(err)
			}
			s := db.Session()
			s.MustExec(`CREATE TABLE t (a INT)`, nil)
			srv, err := db.Serve("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			reg := blade.NewRegistry()
			core.MustRegister(reg)
			c, err := client.Connect(srv.Addr(), reg)
			if err != nil {
				t.Fatal(err)
			}
			for _, q := range []string{`BEGIN`, `INSERT INTO t VALUES (1)`} {
				if _, err := c.Exec(q, nil); err != nil {
					t.Fatal(err)
				}
			}
			if err := tc.disconnect(c, srv); err != nil {
				t.Fatal(err)
			}
			_ = c.Close()
			s.MustExec(`INSERT INTO t VALUES (2)`, nil)

			rows := func(s *tip.Session) string {
				res, err := s.Exec(`SELECT a FROM t ORDER BY a`, nil)
				if err != nil {
					t.Fatal(err)
				}
				out := ""
				for _, r := range res.Rows {
					out += fmt.Sprintf("[%d]", r[0].Int())
				}
				return out
			}
			live := rows(s)
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			reopened, err := tip.OpenDurable(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer reopened.Close()
			if got := rows(reopened.Session()); live != "[2]" || got != live {
				t.Errorf("live %s, reopened %s, want [2] for both", live, got)
			}
		})
	}
}

func TestCorruptQueryFrameGetsError(t *testing.T) {
	srv := start(t)
	conn := dial(t, srv)
	w := bufio.NewWriter(conn)
	r := bufio.NewReader(conn)
	if err := protocol.WriteFrame(w, protocol.EncodeHello("fuzzer")); err != nil {
		t.Fatal(err)
	}
	if _, err := protocol.ReadFrame(r); err != nil {
		t.Fatal(err)
	}
	// A query frame whose body is truncated garbage.
	if err := protocol.WriteFrame(w, []byte{protocol.MsgQuery, 0xff, 0xff}); err != nil {
		t.Fatal(err)
	}
	frame, err := protocol.ReadFrame(r)
	if err != nil {
		t.Fatalf("server dropped instead of reporting: %v", err)
	}
	if len(frame) == 0 || frame[0] != protocol.MsgError {
		t.Fatalf("expected MsgError, got kind %d", frame[0])
	}
	// The session survives; a real query now works.
	if err := protocol.WriteFrame(w, protocol.EncodeQuery(protocol.Query{SQL: "SELECT 1"})); err != nil {
		t.Fatal(err)
	}
	frame, err = protocol.ReadFrame(r)
	if err != nil || frame[0] != protocol.MsgResult {
		t.Fatalf("session did not survive corrupt frame: %v, kind %d", err, frame[0])
	}
}

func TestUnexpectedMessageKind(t *testing.T) {
	srv := start(t)
	conn := dial(t, srv)
	w := bufio.NewWriter(conn)
	r := bufio.NewReader(conn)
	if err := protocol.WriteFrame(w, protocol.EncodeHello("odd")); err != nil {
		t.Fatal(err)
	}
	if _, err := protocol.ReadFrame(r); err != nil {
		t.Fatal(err)
	}
	// MsgWelcome is a server→client kind; sending it to the server is a
	// protocol violation that should earn an error, not a hang.
	if err := protocol.WriteFrame(w, protocol.EncodeWelcome("hi", 0)); err != nil {
		t.Fatal(err)
	}
	frame, err := protocol.ReadFrame(r)
	if err != nil || frame[0] != protocol.MsgError {
		t.Fatalf("unexpected-kind handling: %v, kind %d", err, frame[0])
	}
}

func TestManyChurningConnections(t *testing.T) {
	srv := start(t)
	for i := 0; i < 30; i++ {
		reg := blade.NewRegistry()
		core.MustRegister(reg)
		c, err := client.Connect(srv.Addr(), reg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Exec(`SELECT 1`, nil); err != nil {
			t.Fatal(err)
		}
		_ = c.Close()
	}
	healthy(t, srv)
}

// TestStatementPanicIsContained registers a routine that panics and
// calls it over the wire: in a SELECT list, and in an UPDATE's SET and a
// DELETE's WHERE inside a transaction after an INSERT. It also registers
// two user aggregates, one whose Step panics and one whose Final panics,
// and runs each in a grouped SELECT. Each statement fails with the typed
// internal error instead of ending the process; the connection, a
// second one and the transaction go on, the INSERT commits without the
// UPDATE, the panics are counted and the memory account drains.
func TestStatementPanicIsContained(t *testing.T) {
	srv, db := startOpts(t)
	db.Registry().MustRegisterRoutine(&blade.Routine{
		Name: "boom", Params: []*types.Type{types.TInt}, Result: types.TInt,
		Fn: func(*blade.Ctx, []types.Value) (types.Value, error) { panic("boom: deliberate") },
	})
	for _, name := range []string{"boom_step", "boom_final"} {
		db.Registry().MustRegisterAggregate(&blade.Aggregate{
			Name: name, Param: types.TInt, Result: types.TInt,
			New: func() blade.AggState { return boomAgg{final: name == "boom_final"} },
		})
	}
	c, other := connectTo(t, srv), connectTo(t, srv)
	run := func(c *client.Conn, sql string) *exec.Result {
		t.Helper()
		res, err := c.Exec(sql, nil)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		return res
	}
	count := func(c *client.Conn) int64 {
		t.Helper()
		return run(c, `SELECT COUNT(*) FROM t WHERE k = 1`).Rows[0][0].Int()
	}
	panics := func(sql string) {
		t.Helper()
		_, err := c.Exec(sql, nil)
		if !errors.Is(err, client.ErrInternal) || !strings.Contains(err.Error(), "boom: deliberate") {
			t.Fatalf("%s: err = %v, want the internal error carrying the panic", sql, err)
		}
		if used := db.MemAccount().Used(); used != 0 {
			t.Errorf("%s: the memory account holds %d bytes, want 0", sql, used)
		}
	}
	run(c, `CREATE TABLE t (k INT)`)
	run(c, `INSERT INTO t VALUES (1), (1), (2)`)

	panics(`SELECT k, boom(k) FROM t`)
	panics(`SELECT k, boom_step(k) FROM t GROUP BY k`)
	panics(`SELECT k, boom_final(k) FROM t GROUP BY k`)
	if n := count(c); n != 2 {
		t.Fatalf("after the SELECTs: %d rows with k = 1, want 2", n)
	}
	run(c, `BEGIN`)
	run(c, `INSERT INTO t VALUES (1)`)
	panics(`UPDATE t SET k = boom(k) WHERE k = 1`)
	panics(`DELETE FROM t WHERE boom(k) = 1`)
	if n := count(c); n != 3 {
		t.Errorf("inside the transaction: %d rows with k = 1, want 3 (the INSERT, not the UPDATE or DELETE)", n)
	}
	if n := count(other); n != 2 {
		t.Errorf("another connection sees %d rows with k = 1 before COMMIT, want 2", n)
	}
	run(c, `COMMIT`)
	for _, conn := range []*client.Conn{c, other} {
		if n := count(conn); n != 3 {
			t.Errorf("after COMMIT: %d rows with k = 1, want 3", n)
		}
	}
	run(other, `INSERT INTO t VALUES (1)`)
	if n := count(c); n != 4 {
		t.Errorf("after a second connection's INSERT: %d rows with k = 1, want 4", n)
	}
	if v := metricValue(db, "stmt.panics"); v != 5 {
		t.Errorf("stmt.panics = %v, want 5", v)
	}
	if used := db.MemAccount().Used(); used != 0 {
		t.Errorf("the memory account holds %d bytes, want 0", used)
	}
}

// boomAgg is a user aggregate that panics in Step, or under final in
// Final.
type boomAgg struct{ final bool }

func (a boomAgg) Step(*blade.Ctx, types.Value) error {
	if !a.final {
		panic("boom: deliberate step")
	}
	return nil
}

func (boomAgg) Final(*blade.Ctx) (types.Value, error) { panic("boom: deliberate final") }
