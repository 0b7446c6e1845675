package server_test

// Resource-governance over the wire (`make mem-smoke`): budget aborts
// arrive typed (client.ErrResource) and leave the connection reusable;
// global memory pressure sheds new queries typed, and the same
// connection succeeds once the pressure lifts; oversized results are
// refused by the send-path frame bound; and an OOM storm of hog queries
// stays inside a bounded heap with zero goroutine leaks.

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"tip/internal/blade"
	"tip/internal/client"
	"tip/internal/core"
	"tip/internal/engine"
	"tip/internal/server"
	"tip/internal/types"
)

// seedWide fills table w with n rows through an admin session (no
// statement budget applies to direct engine sessions).
func seedWide(t *testing.T, db *engine.Database, n int) {
	t.Helper()
	sess := db.NewSession()
	defer sess.Close()
	if _, err := sess.Exec(`CREATE TABLE w (k INT, v INT, s VARCHAR(32))`, nil); err != nil {
		t.Fatal(err)
	}
	vals := make([]string, 0, n)
	for i := 0; i < n; i++ {
		vals = append(vals, fmt.Sprintf("(%d, %d, 'row-%032d')", i%13, i, i))
	}
	if _, err := sess.Exec("INSERT INTO w VALUES "+strings.Join(vals, ", "), nil); err != nil {
		t.Fatal(err)
	}
}

// hogSQL is a quadratic sort that busts any small statement budget.
const hogSQL = `SELECT a.k, a.v, a.s, b.v FROM w a, w b ORDER BY a.v DESC, b.v`

func TestBudgetAbortOverWire(t *testing.T) {
	srv, db := startOpts(t, server.WithStmtMem(256<<10))
	seedWide(t, db, 400)
	c := connectTo(t, srv)

	_, err := c.Exec(hogSQL, nil)
	if !errors.Is(err, client.ErrResource) {
		t.Fatalf("hog under 256KiB budget: err = %v, want ErrResource", err)
	}
	// The connection survives the abort and keeps serving; counters
	// prove the failure was classified, not swallowed.
	res, err := c.Exec(`SELECT COUNT(*) FROM w`, nil)
	if err != nil {
		t.Fatalf("connection unusable after budget abort: %v", err)
	}
	if res.Rows[0][0].Int() != 400 {
		t.Errorf("count = %d", res.Rows[0][0].Int())
	}
	if v := metricValue(db, "stmt.mem_exceeded"); v < 1 {
		t.Errorf("stmt.mem_exceeded = %v, want >= 1", v)
	}
	if used := db.MemAccount().Used(); used != 0 {
		t.Errorf("global account holds %d bytes after abort, want 0", used)
	}
	// A session can raise its own cap and run the statement.
	if _, err := c.Exec(`SET STATEMENT_MEMORY = '256MB'`, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec(`SELECT a.k, b.v FROM w a, w b WHERE a.k = b.k AND a.v < 20 ORDER BY a.v, b.v`, nil); err != nil {
		t.Errorf("raised cap: %v", err)
	}
}

func TestMemShedThenSucceeds(t *testing.T) {
	srv, db := startOpts(t)
	db.SetMemBudget(1 << 20)
	seedWide(t, db, 10)
	c := connectTo(t, srv)

	// Simulate in-flight statements holding the whole engine budget:
	// charge the global account directly. The query is shed typed;
	// nothing ran.
	db.MemAccount().Charge(1 << 20)
	if _, err := c.Exec(`SELECT COUNT(*) FROM w`, nil); !errors.Is(err, client.ErrResource) {
		t.Fatalf("under pressure: err = %v, want ErrResource", err)
	}

	// Once the pressure lifts, the same connection runs the query.
	db.MemAccount().Charge(-(1 << 20))
	res, err := c.Exec(`SELECT COUNT(*) FROM w`, nil)
	if err != nil {
		t.Fatalf("after release: %v", err)
	}
	if res.Rows[0][0].Int() != 10 {
		t.Errorf("count = %d", res.Rows[0][0].Int())
	}
	if v := metricValue(db, "server.shed.memory"); v < 1 {
		t.Errorf("server.shed.memory = %v, want >= 1", v)
	}
}

func TestResultFrameCapOverWire(t *testing.T) {
	srv, db := startOpts(t, server.WithMaxResult(32<<10))
	seedWide(t, db, 50)
	c := connectTo(t, srv)

	// A single huge row: the encoded result exceeds the response bound.
	big := strings.Repeat("x", 64<<10)
	_, err := c.Exec(`SELECT :big`, map[string]types.Value{"big": types.NewString(big)})
	if !errors.Is(err, client.ErrResource) {
		t.Fatalf("huge row: err = %v, want ErrResource", err)
	}
	// Many small rows breaching the cap in aggregate fail the same way.
	if _, err := c.Exec(`SELECT a.s, b.s FROM w a, w b`, nil); !errors.Is(err, client.ErrResource) {
		t.Fatalf("wide result: err = %v, want ErrResource", err)
	}
	// The connection is intact and narrow queries still flow.
	res, err := c.Exec(`SELECT COUNT(*) FROM w`, nil)
	if err != nil {
		t.Fatalf("connection unusable after frame cap: %v", err)
	}
	if res.Rows[0][0].Int() != 50 {
		t.Errorf("count = %d", res.Rows[0][0].Int())
	}
}

// TestOOMStorm: a pile of concurrent hog queries against a small
// statement budget and a global budget. Every statement must end typed
// (success or resource), the accounts must drain, the heap must stay
// bounded and no goroutine may leak.
func TestOOMStorm(t *testing.T) {
	baseline := runtime.NumGoroutine()
	srv, db := startOpts(t, server.WithStmtMem(256<<10))
	db.SetMemBudget(8 << 20)
	seedWide(t, db, 300)

	const clients = 16
	const rounds = 6
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			reg := blade.NewRegistry()
			core.MustRegister(reg)
			c, err := client.Connect(srv.Addr(), reg)
			if err != nil {
				errCh <- err
				return
			}
			defer c.Close()
			for r := 0; r < rounds; r++ {
				_, err := c.Exec(hogSQL, nil)
				if err != nil && !errors.Is(err, client.ErrResource) {
					errCh <- fmt.Errorf("round %d: %w", r, err)
					return
				}
				// The connection must still answer after each abort.
				if _, err := c.Exec(`SELECT COUNT(*) FROM w`, nil); err != nil {
					errCh <- fmt.Errorf("round %d follow-up: %w", r, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	if used := db.MemAccount().Used(); used != 0 {
		t.Errorf("global account holds %d bytes after the storm, want 0", used)
	}
	waitGoroutines(t, baseline+20, 10*time.Second)
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > 256<<20 {
		t.Errorf("heap grew to %d MiB after the storm (want bounded)", ms.HeapAlloc>>20)
	}
}

func metricValue(db *engine.Database, name string) float64 {
	for _, st := range db.Metrics().Snapshot() {
		if st.Name == name {
			return st.Value
		}
	}
	return 0
}
