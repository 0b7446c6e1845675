package server_test

// The wire-fault torture battery (`make netfault-smoke`): a horde of
// hostile connections — slow writers, mid-frame severs, silent
// truncations, stalls holding sockets open — must not leak goroutines,
// grow memory without bound, or disturb a healthy client. Cancellation
// racing against writes must never leave a statement half-applied. An
// idle connection costs the server one goroutine; a frame stalled past
// the read timeout is cut, a shorter stall and a frame larger than the
// read buffer are served, and neither leaves a deadline on the idle
// connection after it.

import (
	"bufio"
	"context"
	"encoding/binary"
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

// handshake opens a raw connection, says hello and returns the
// connection with its buffers and the cancel key of its welcome.
func handshake(t *testing.T, srv *server.Server) (net.Conn, *bufio.Reader, *bufio.Writer, uint64) {
	t.Helper()
	nc, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = nc.Close() })
	_ = nc.SetDeadline(time.Now().Add(30 * time.Second))
	r, w := bufio.NewReader(nc), bufio.NewWriter(nc)
	if err := protocol.WriteFrame(w, protocol.EncodeHello("raw")); err != nil {
		t.Fatal(err)
	}
	frame, err := protocol.ReadFrame(r)
	if err != nil || len(frame) == 0 || frame[0] != protocol.MsgWelcome {
		t.Fatalf("handshake: % x, %v", frame, err)
	}
	_, rest, err := protocol.ReadString(frame[1:])
	if err != nil {
		t.Fatal(err)
	}
	key, err := protocol.DecodeKey(rest)
	if err != nil {
		t.Fatal(err)
	}
	return nc, r, w, key
}

// queryFrame is the wire bytes of one MsgQuery frame for sql.
func queryFrame(sql string) []byte {
	payload := protocol.EncodeQuery(protocol.Query{SQL: sql})
	return append(binary.AppendUvarint(nil, uint64(len(payload))), payload...)
}

// wantResult reads one reply and fails unless it is a result.
func wantResult(t *testing.T, r *bufio.Reader, what string) {
	t.Helper()
	frame, err := protocol.ReadFrame(r)
	if err != nil || len(frame) == 0 || frame[0] != protocol.MsgResult {
		t.Fatalf("%s: reply % .16x, %v; want a result", what, frame, err)
	}
}

// TestNetFaultIdleConnGoroutines: an idle connection costs the server
// one goroutine, not a reader beside its executor.
func TestNetFaultIdleConnGoroutines(t *testing.T) {
	srv, _ := startOpts(t)
	reg := blade.NewRegistry()
	core.MustRegister(reg)
	const idle = 50
	baseline := runtime.NumGoroutine()
	for range idle {
		c, err := client.Connect(srv.Addr(), reg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = c.Close() })
	}
	if n := runtime.NumGoroutine() - baseline; n > idle+5 {
		t.Fatalf("%d idle connections added %d goroutines, want at most %d", idle, n, idle+5)
	}
}

// TestNetFaultSplitLengthPrefix: a frame whose two-byte length prefix
// is split by a stall longer than the read timeout is cut and counted
// in conn.slow_reads.
func TestNetFaultSplitLengthPrefix(t *testing.T) {
	srv, db := startOpts(t, server.WithReadTimeout(100*time.Millisecond))
	nc, r, _, _ := handshake(t, srv)
	frame := queryFrame("SELECT '" + strings.Repeat("x", 200) + "'")
	if frame[0] < 0x80 {
		t.Fatal("length prefix fits one byte")
	}
	if _, err := nc.Write(frame[:1]); err != nil {
		t.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond)
	_, _ = nc.Write(frame[1:]) // the server may already have hung up
	if reply, err := protocol.ReadFrame(r); err == nil {
		t.Fatalf("stalled frame served: % .16x", reply)
	}
	if v := metricValue(db, "conn.slow_reads"); v != 1 {
		t.Errorf("conn.slow_reads = %v, want 1", v)
	}
}

// TestNetFaultShortStallAndLargeFrame: a length prefix split by a stall
// shorter than the read timeout, and a frame larger than the server's
// 4 KiB read buffer, are both served, and the connection then idles
// past the read timeout without being cut.
func TestNetFaultShortStallAndLargeFrame(t *testing.T) {
	const timeout = 200 * time.Millisecond
	srv, db := startOpts(t, server.WithReadTimeout(timeout))
	nc, r, _, _ := handshake(t, srv)
	frame := queryFrame("SELECT '" + strings.Repeat("x", 200) + "'")
	if _, err := nc.Write(frame[:1]); err != nil {
		t.Fatal(err)
	}
	time.Sleep(timeout / 10)
	if _, err := nc.Write(frame[1:]); err != nil {
		t.Fatal(err)
	}
	wantResult(t, r, "split length prefix")

	if _, err := nc.Write(queryFrame("SELECT '" + strings.Repeat("y", 10<<10) + "'")); err != nil {
		t.Fatal(err)
	}
	wantResult(t, r, "10 KiB frame")
	time.Sleep(2 * timeout)
	if _, err := nc.Write(queryFrame("SELECT 1")); err != nil {
		t.Fatal(err)
	}
	wantResult(t, r, "query after idling past the read timeout")
	if v := metricValue(db, "conn.slow_reads"); v != 0 {
		t.Errorf("conn.slow_reads = %v, want 0", v)
	}
}

// TestNetFaultContextWatchers: ExecContext with a cancellable context
// leaves no goroutine behind once it returns.
func TestNetFaultContextWatchers(t *testing.T) {
	srv, _ := startOpts(t)
	reg := blade.NewRegistry()
	core.MustRegister(reg)
	c, err := client.Connect(srv.Addr(), reg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	baseline := runtime.NumGoroutine()
	for range 100 {
		ctx, cancel := context.WithCancel(context.Background())
		_, err := c.ExecContext(ctx, `SELECT 1`, nil)
		cancel()
		if err != nil {
			t.Fatal(err)
		}
	}
	waitGoroutines(t, baseline, 5*time.Second)
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
