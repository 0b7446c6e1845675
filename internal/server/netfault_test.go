package server_test

// The wire-fault torture battery (`make netfault-smoke`): a horde of
// hostile connections — slow writers, mid-frame severs, silent
// truncations, stalls holding sockets open — must not leak goroutines,
// grow memory without bound, or disturb a healthy client. Cancellation
// racing against writes must never leave a statement half-applied.

import (
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"tip/internal/blade"
	"tip/internal/client"
	"tip/internal/core"
	"tip/internal/engine"
	"tip/internal/exec"
	"tip/internal/iofault"
	"tip/internal/protocol"
	"tip/internal/server"
	"tip/internal/temporal"
)

// startOpts is start with server options.
func startOpts(t *testing.T, opts ...server.Option) (*server.Server, *engine.Database) {
	t.Helper()
	reg := blade.NewRegistry()
	core.MustRegister(reg)
	db := engine.New(reg)
	db.SetClock(func() temporal.Chronon { return temporal.MustDate(1999, 11, 12) })
	srv, err := server.Listen(db, "127.0.0.1:0", opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return srv, db
}

// healthyRetry is healthy, but tolerates admission-control busy
// rejections while the server is under attack.
func healthyRetry(t *testing.T, srv *server.Server, within time.Duration) {
	t.Helper()
	reg := blade.NewRegistry()
	core.MustRegister(reg)
	deadline := time.Now().Add(within)
	for {
		c, err := client.Connect(srv.Addr(), reg)
		if err == nil {
			_, err = c.Exec(`SELECT 1`, nil)
			_ = c.Close()
			if err == nil {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("healthy client starved out during torture: %v", err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// waitGoroutines polls until the goroutine count drops to at most max.
func waitGoroutines(t *testing.T, max int, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		n := runtime.NumGoroutine()
		if n <= max {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak: %d live (want <= %d)\n%s", n, max, buf[:runtime.Stack(buf, true)])
		}
		runtime.GC()
		time.Sleep(25 * time.Millisecond)
	}
}

// encodedHello is a valid hello frame (uvarint length + body).
func encodedHello() []byte {
	body := protocol.EncodeHello("torture")
	frame := make([]byte, 0, len(body)+2)
	frame = append(frame, byte(len(body)))
	return append(frame, body...)
}

// TestNetFaultTorture throws 1000 hostile connections at a hardened
// server: the server must shed or reap all of them, keep serving a
// healthy client throughout, release every goroutine, and keep memory
// bounded.
func TestNetFaultTorture(t *testing.T) {
	baseline := runtime.NumGoroutine()
	srv, db := startOpts(t,
		server.WithReadTimeout(200*time.Millisecond),
		server.WithMaxConns(256),
	)

	const horde = 1000
	hello := encodedHello()
	var wg sync.WaitGroup
	for i := 0; i < horde; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			nc, err := net.DialTimeout("tcp", srv.Addr(), 2*time.Second)
			if err != nil {
				return // kernel backlog overflow under the horde: fine
			}
			fc := iofault.WrapConn(nc)
			defer fc.Close()
			switch i % 6 {
			case 0: // protocol garbage
				_, _ = fc.Write([]byte("GET / HTTP/1.1\r\n\r\n"))
			case 1: // stall: a few hello bytes, then hold the socket open
				// The stalled write parks until Close; a watchdog plays
				// the peer giving up long after the server's deadline.
				fc.SetWriteBudget(2, iofault.NetStall)
				watchdog := time.AfterFunc(600*time.Millisecond, func() { _ = fc.Close() })
				defer watchdog.Stop()
				_, _ = fc.Write(hello)
			case 2: // declare an absurd frame length
				_, _ = fc.Write([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0x0f})
			case 3: // sever mid-hello
				fc.SetWriteBudget(int64(len(hello)/2), iofault.NetSever)
				_, _ = fc.Write(hello)
			case 4: // silently truncate the hello, then linger
				fc.SetWriteBudget(int64(len(hello)/2), iofault.NetTruncate)
				_, _ = fc.Write(hello)
				time.Sleep(50 * time.Millisecond)
			case 5: // slowloris: trickle the hello too slowly to finish
				fc.SetWriteDelay(60 * time.Millisecond)
				for _, b := range hello {
					if _, err := fc.Write([]byte{b}); err != nil {
						return
					}
				}
			}
			// Whatever the server answers (busy frame, close, reset),
			// drain briefly so resets don't race the test teardown.
			_ = nc.SetReadDeadline(time.Now().Add(500 * time.Millisecond))
			buf := make([]byte, 256)
			for {
				if _, err := nc.Read(buf); err != nil {
					return
				}
			}
		}(i)
	}

	// A healthy client must keep working while the horde attacks. With
	// the connection limit under assault it may be busy-rejected, but a
	// brief retry must get through.
	healthyRetry(t, srv, 10*time.Second)
	wg.Wait()
	healthy(t, srv)

	// conn.slow_reads must have seen the slowloris connections.
	snap := db.Metrics().Snapshot()
	if v, _ := snap.Get("conn.slow_reads"); v == 0 {
		t.Error("conn.slow_reads = 0 after slowloris battery")
	}

	// Every hostile connection's goroutines must be reaped. The healthy
	// probes and torture dialers are gone; allow slack for runtime
	// background goroutines.
	waitGoroutines(t, baseline+20, 10*time.Second)

	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > 256<<20 {
		t.Errorf("heap grew to %d MiB after torture (want bounded)", ms.HeapAlloc>>20)
	}
}

// TestNetFaultCancelNoPartialApply races MsgCancel frames against
// multi-row INSERT statements: every statement must apply all of its
// rows or none (the cancel token is checked before the first row
// applies, never between rows), so the final count is always a multiple
// of the per-statement row count.
func TestNetFaultCancelNoPartialApply(t *testing.T) {
	srv, _ := startOpts(t)
	reg := blade.NewRegistry()
	core.MustRegister(reg)
	c, err := client.Connect(srv.Addr(), reg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Exec(`CREATE TABLE torture (a INT)`, nil); err != nil {
		t.Fatal(err)
	}

	const rowsPerStmt = 500
	var sb strings.Builder
	sb.WriteString("INSERT INTO torture VALUES ")
	for i := 0; i < rowsPerStmt; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d)", i)
	}
	insert := sb.String()

	// One goroutine spams cancels while the main one runs inserts.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = c.Cancel()
				time.Sleep(2 * time.Millisecond)
			}
		}
	}()
	cancelledStmts := 0
	for i := 0; i < 40; i++ {
		if _, err := c.Exec(insert, nil); err != nil {
			if !strings.Contains(err.Error(), "cancelled") {
				t.Fatalf("insert %d: unexpected error: %v", i, err)
			}
			cancelledStmts++
		}
	}
	close(stop)
	wg.Wait()

	// Cancels already on the wire when the spammer stopped may abort the
	// next statement or two (by design: a queued cancel hits the next
	// statement); retry until the stream has drained.
	var res *exec.Result
	for attempt := 0; ; attempt++ {
		res, err = c.Exec(`SELECT COUNT(*) FROM torture`, nil)
		if err == nil {
			break
		}
		if !strings.Contains(err.Error(), "cancelled") || attempt > 20 {
			t.Fatal(err)
		}
	}
	n := res.Rows[0][0].Int()
	if n%rowsPerStmt != 0 {
		t.Fatalf("partial apply: %d rows is not a multiple of %d (%d stmts cancelled)",
			n, rowsPerStmt, cancelledStmts)
	}
	t.Logf("cancelled %d/40 statements; %d rows (atomic)", cancelledStmts, n)
}
