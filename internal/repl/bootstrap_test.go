package repl_test

// Snapshot bootstrap as a stream of bounded frames: a snapshot larger
// than any one protocol frame, a link cut in the middle of one, and
// WaitForSeq woken by the apply loop.

import (
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"tip/internal/iofault"
)

// fillDoubling makes table t of one row of width bytes, then doubles
// it n times: 2^n rows.
func (p *primaryNode) fillDoubling(t testing.TB, width, n int) {
	t.Helper()
	p.mustExec(t, `CREATE TABLE t (s VARCHAR(2000))`)
	p.mustExec(t, `INSERT INTO t VALUES ('`+strings.Repeat("x", width)+`')`)
	for i := 0; i < n; i++ {
		p.mustExec(t, `INSERT INTO t SELECT * FROM t`)
	}
}

// A primary whose snapshot outgrows the 64 MiB protocol frame bound
// (65,536 rows of 1,100 bytes, about 72 MiB) still bootstraps a fresh
// replica: the snapshot travels as bounded frames. When it was one
// blob, the replica refused the frame and retried forever.
func TestBootstrapPastFrameBound(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("holds a 72 MiB database on both sides")
	}
	start := time.Now()
	p := startPrimary(t)
	p.fillDoubling(t, 1100, 16)
	if err := p.db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	r := startReplica(t, p.srv.Addr())
	r.converge(t, p)
	if got := countRows(t, r.db, "t"); got != 1<<16 {
		t.Fatalf("replica rows = %d, want %d", got, 1<<16)
	}
	if got := metric(t, r.db, "repl.snapshots_loaded"); got != 1 {
		t.Fatalf("snapshots_loaded = %v, want 1", got)
	}
	t.Logf("65,536-row bootstrap converged in %v", time.Since(start))
}

// cutProxy relays replica connections to a primary. The first
// connection is severed once budget bytes have gone toward the
// replica; the next one announces itself on redialed and waits for
// release before it is relayed.
type cutProxy struct {
	ln                net.Listener
	redialed, release chan struct{}
}

func startCutProxy(t *testing.T, primary string, budget int64) *cutProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &cutProxy{ln: ln, redialed: make(chan struct{}), release: make(chan struct{})}
	t.Cleanup(func() {
		select {
		case <-p.release:
		default:
			close(p.release)
		}
		_ = ln.Close()
	})
	go func() {
		for n := 0; ; n++ {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			if n == 1 {
				close(p.redialed)
				<-p.release
			}
			up, err := net.Dial("tcp", primary)
			if err != nil {
				_ = c.Close()
				continue
			}
			down := iofault.WrapConn(c)
			if n == 0 {
				down.SetWriteBudget(budget, iofault.NetSever)
			}
			go func() {
				_, _ = io.Copy(up, down)
				_ = up.Close()
			}()
			go func() {
				_, _ = io.Copy(down, up)
				_ = down.Close()
				_ = up.Close()
			}()
		}
	}()
	return p
}

// A link cut in the middle of a bootstrap leaves the replica's
// database as it was — empty — and the replica bootstraps afresh when
// it reconnects.
func TestLinkCutMidBootstrap(t *testing.T) {
	p := startPrimary(t)
	p.fillDoubling(t, 1100, 11) // 2,048 rows: three frames of up to 1 MiB
	proxy := startCutProxy(t, p.srv.Addr(), 3<<19)
	r := startReplica(t, proxy.ln.Addr().String())
	<-proxy.redialed // the first bootstrap failed: the replica dials again
	if tables := r.db.Catalog().TableNames(); len(tables) != 0 {
		t.Fatalf("after the cut the replica holds tables %v, want none", tables)
	}
	if got := metric(t, r.db, "repl.snapshots_loaded"); got != 0 {
		t.Fatalf("snapshots_loaded after the cut = %v, want 0", got)
	}
	close(proxy.release)
	r.converge(t, p)
	if got := countRows(t, r.db, "t"); got != 1<<11 {
		t.Fatalf("replica rows = %d, want %d", got, 1<<11)
	}
	if got := metric(t, r.db, "repl.snapshots_loaded"); got != 1 {
		t.Fatalf("snapshots_loaded = %v, want 1", got)
	}
}

// WaitForSeq returns when the apply loop reaches the seq, however long
// the timeout, and reports false when the timeout passes first.
func TestWaitForSeqWakesOnApply(t *testing.T) {
	p := startPrimary(t)
	p.mustExec(t, `CREATE TABLE t (a INT)`)
	r := startReplica(t, p.srv.Addr())
	r.converge(t, p)
	next := p.db.WALSeq() + 1
	if r.rep.WaitForSeq(next, time.Millisecond) {
		t.Fatalf("WaitForSeq(%d) converged before the primary wrote it", next)
	}
	woke := make(chan bool)
	go func() { woke <- r.rep.WaitForSeq(next, time.Hour) }()
	p.mustExec(t, `INSERT INTO t VALUES (1)`)
	if !<-woke {
		t.Fatal("WaitForSeq reported a timeout")
	}
	if got := r.rep.AppliedSeq(); got < next {
		t.Fatalf("WaitForSeq returned at applied seq %d, before %d", got, next)
	}
	if got := countRows(t, r.db, "t"); got != 1 {
		t.Fatalf("replica rows = %d, want 1", got)
	}
}
