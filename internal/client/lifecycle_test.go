package client_test

// Client lifecycle: sticky ErrConnClosed, idempotent Close, the
// database/sql pool recovering from a server restart, and context
// cancellation.

import (
	"context"
	"database/sql"
	"errors"
	"testing"

	"tip/internal/blade"
	"tip/internal/client"
	"tip/internal/core"
	"tip/internal/engine"
	"tip/internal/server"
	"tip/internal/temporal"
)

func newServer(t *testing.T) *server.Server {
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

func TestCloseIsIdempotentAndSticky(t *testing.T) {
	srv := newServer(t)
	c, err := client.Connect(srv.Addr(), clientReg(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := c.Exec(`SELECT 1`, nil); !errors.Is(err, client.ErrConnClosed) {
		t.Fatalf("Exec after Close: want ErrConnClosed, got %v", err)
	}
	if err := c.Cancel(); !errors.Is(err, client.ErrConnClosed) {
		t.Fatalf("Cancel after Close: want ErrConnClosed, got %v", err)
	}
}

func TestBrokenPipeIsSticky(t *testing.T) {
	srv := newServer(t)
	c, err := client.Connect(srv.Addr(), clientReg(t))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Exec(`SELECT 1`, nil); err != nil {
		t.Fatal(err)
	}
	_ = srv.Close()
	// The first statement on the dead transport reports the failure...
	if _, err := c.Exec(`SELECT 1`, nil); !errors.Is(err, client.ErrConnClosed) {
		t.Fatalf("want ErrConnClosed on dead transport, got %v", err)
	}
	// ...and every later one fails the same way.
	if _, err := c.Exec(`SELECT 1`, nil); !errors.Is(err, client.ErrConnClosed) {
		t.Fatalf("want sticky ErrConnClosed, got %v", err)
	}
}

// TestDriverPoolSurvivesServerRestart: a server restarted on the same
// address under a database/sql pool costs at most the statement in
// flight when it died. The dead connection reports itself invalid, so
// the pool drops it and every later statement runs on a fresh dial.
func TestDriverPoolSurvivesServerRestart(t *testing.T) {
	srv := newServer(t)
	addr := srv.Addr()
	client.RegisterDriver()
	db, err := sql.Open("tip", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.SetMaxOpenConns(1)
	if _, err := db.Exec(`SELECT 1`); err != nil {
		t.Fatal(err)
	}

	_ = srv.Close()
	// Rebind the same address behind the pool's back.
	reg := blade.NewRegistry()
	core.MustRegister(reg)
	srv2, err := server.Listen(engine.New(reg), addr)
	if err != nil {
		t.Fatalf("rebind %s: %v", addr, err)
	}
	t.Cleanup(func() { _ = srv2.Close() })

	for i := 0; i < 5; i++ {
		_, err := db.Exec(`SELECT 1`)
		if err != nil && i > 0 {
			t.Fatalf("statement %d after the restart: %v", i+1, err)
		}
	}
}

// TestDriverContextCancelled: a context already cancelled surfaces as
// the context's error through the database/sql driver path.
func TestDriverContextCancelled(t *testing.T) {
	srv := newServer(t)
	c, err := client.Connect(srv.Addr(), clientReg(t))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.ExecContext(ctx, `SELECT 1`, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	// The connection is untouched — the statement was never sent.
	if _, err := c.Exec(`SELECT 1`, nil); err != nil {
		t.Fatalf("connection unusable after pre-cancelled ctx: %v", err)
	}
}
