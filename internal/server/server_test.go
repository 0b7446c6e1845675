package server_test

// Failure injection against the wire server: malformed handshakes,
// garbage frames, oversized frames, and abrupt disconnects must never
// take the server down or poison other sessions.

import (
	"bufio"
	"fmt"
	"net"
	"path/filepath"
	"testing"
	"time"

	"tip"
	"tip/internal/blade"
	"tip/internal/client"
	"tip/internal/core"
	"tip/internal/engine"
	"tip/internal/protocol"
	"tip/internal/server"
	"tip/internal/temporal"
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
