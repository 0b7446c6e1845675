package repl_test

// Replication torture battery: a 3-node in-process cluster converging
// under load, killed replicas rejoining via snapshot + catch-up,
// partitioned and stalled replicas resubscribing without gaps or
// double-apply, checkpoint truncation forcing snapshot re-bootstrap,
// a restarted primary forcing one too, a caught-up replica tailing the
// log across a Checkpoint, a burst of appends streamed from the file,
// concurrent writers whose log order the replica reproduces, and the
// raw wire subscription. Run with -race; every exact-count
// assertion doubles as a no-gap/no-double-apply proof (INSERT is not
// idempotent, so a double-applied frame shows up as an extra row and a
// gap as a missing one).

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"tip/internal/blade"
	"tip/internal/core"
	"tip/internal/engine"
	"tip/internal/iofault"
	"tip/internal/protocol"
	"tip/internal/repl"
	"tip/internal/server"
	"tip/internal/temporal"
)

var testNow = temporal.MustDate(1999, 11, 12)

func newEngine(t testing.TB) *engine.Database {
	t.Helper()
	reg := blade.NewRegistry()
	if _, err := core.Register(reg); err != nil {
		t.Fatal(err)
	}
	db := engine.New(reg)
	db.SetClock(func() temporal.Chronon { return testNow })
	return db
}

type primaryNode struct {
	db   *engine.Database
	sess *engine.Session
	prim *repl.Primary
	srv  *server.Server
}

func startPrimary(t testing.TB, opts ...repl.PrimaryOption) *primaryNode {
	t.Helper()
	return startPrimaryIn(t, t.TempDir(), opts...)
}

// startPrimaryIn serves the durable database in dir as a primary.
func startPrimaryIn(t testing.TB, dir string, opts ...repl.PrimaryOption) *primaryNode {
	t.Helper()
	reg := blade.NewRegistry()
	if _, err := core.Register(reg); err != nil {
		t.Fatal(err)
	}
	db, err := engine.Open(reg, dir)
	if err != nil {
		t.Fatal(err)
	}
	db.SetClock(func() temporal.Chronon { return testNow })
	t.Cleanup(func() { _ = db.Close() })
	p := repl.NewPrimary(db, opts...)
	srv, err := server.Listen(db, "127.0.0.1:0", server.WithReplication(p))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return &primaryNode{db: db, sess: db.NewSession(), prim: p, srv: srv}
}

func (p *primaryNode) mustExec(t testing.TB, sql string) {
	t.Helper()
	if _, err := p.sess.Exec(sql, nil); err != nil {
		t.Fatalf("primary %q: %v", sql, err)
	}
}

type replicaNode struct {
	db  *engine.Database
	rep *repl.Replica
	srv *server.Server
}

func startReplica(t testing.TB, primaryAddr string, opts ...repl.ReplicaOption) *replicaNode {
	t.Helper()
	db := newEngine(t)
	opts = append([]repl.ReplicaOption{repl.WithStatusInterval(10 * time.Millisecond)}, opts...)
	rep := repl.StartReplica(db, primaryAddr, opts...)
	t.Cleanup(rep.Close)
	srv, err := server.Listen(db, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return &replicaNode{db: db, rep: rep, srv: srv}
}

// converge waits until the replica has applied the primary's current
// position.
func (r *replicaNode) converge(t testing.TB, p *primaryNode) {
	t.Helper()
	want := p.db.WALSeq()
	if !r.rep.WaitForSeq(want, 10*time.Second) {
		t.Fatalf("replica stuck at seq %d, want %d", r.rep.AppliedSeq(), want)
	}
}

func countRows(t testing.TB, db *engine.Database, table string) int {
	t.Helper()
	s := db.NewSession()
	defer s.Close()
	res, err := s.Exec(`SELECT COUNT(*) FROM `+table, nil)
	if err != nil {
		t.Fatalf("count %s: %v", table, err)
	}
	return int(res.Rows[0][0].Int())
}

func metric(t testing.TB, db *engine.Database, name string) float64 {
	t.Helper()
	v, _ := db.Metrics().Snapshot().Get(name)
	return v
}

func TestClusterConvergesAndServesReads(t *testing.T) {
	p := startPrimary(t)
	p.mustExec(t, `CREATE TABLE rx (id INT, valid Element)`)
	for i := 0; i < 10; i++ {
		p.mustExec(t, fmt.Sprintf(`INSERT INTO rx VALUES (%d, '{[1999-01-01, NOW]}')`, i))
	}

	// One replica bootstraps from a snapshot that already has the rows,
	// the second from a snapshot taken while more writes land.
	r1 := startReplica(t, p.srv.Addr(), repl.WithReplicaName("r1"))
	r1.converge(t, p)
	for i := 10; i < 25; i++ {
		p.mustExec(t, fmt.Sprintf(`INSERT INTO rx VALUES (%d, '{[1999-01-01, NOW]}')`, i))
	}
	r2 := startReplica(t, p.srv.Addr(), repl.WithReplicaName("r2"))
	r1.converge(t, p)
	r2.converge(t, p)

	for _, r := range []*replicaNode{r1, r2} {
		if got := countRows(t, r.db, "rx"); got != 25 {
			t.Fatalf("replica rows = %d, want 25", got)
		}
		// Temporal values replicate as values, not as text re-parsed at
		// replica time.
		s := r.db.NewSession()
		res, err := s.Exec(`SELECT valid FROM rx WHERE id = 0`, nil)
		if err != nil || len(res.Rows) != 1 {
			t.Fatalf("replica temporal read: %v", err)
		}
		if got := res.Rows[0][0].Format(); got != "{[1999-01-01, NOW]}" {
			t.Fatalf("replica element = %s", got)
		}
		s.Close()
	}

	// Live-tail path: writes after both subscriptions arrive without a
	// new snapshot.
	for i := 25; i < 40; i++ {
		p.mustExec(t, fmt.Sprintf(`INSERT INTO rx VALUES (%d, NULL)`, i))
	}
	r1.converge(t, p)
	r2.converge(t, p)
	if got := countRows(t, r1.db, "rx"); got != 40 {
		t.Fatalf("r1 rows after live tail = %d, want 40", got)
	}

	if got := metric(t, p.db, "repl.replica_count"); got != 2 {
		t.Fatalf("repl.replica_count = %v, want 2", got)
	}
	if got := metric(t, p.db, "repl.frames_shipped"); got == 0 {
		t.Fatal("repl.frames_shipped = 0")
	}
	if got := metric(t, r1.db, "repl.frames_applied"); got == 0 {
		t.Fatal("replica repl.frames_applied = 0")
	}
}

func TestReplicaRejectsWritesWithTypedError(t *testing.T) {
	p := startPrimary(t)
	p.mustExec(t, `CREATE TABLE t (a INT)`)
	r := startReplica(t, p.srv.Addr())
	r.converge(t, p)

	s := r.db.NewSession()
	defer s.Close()
	_, err := s.Exec(`INSERT INTO t VALUES (1)`, nil)
	if err != engine.ErrReadOnly {
		t.Fatalf("replica write: err = %v, want engine.ErrReadOnly", err)
	}
	if got := countRows(t, r.db, "t"); got != 0 {
		t.Fatalf("rejected write left %d rows", got)
	}
}

func TestKilledReplicaRejoins(t *testing.T) {
	p := startPrimary(t)
	p.mustExec(t, `CREATE TABLE t (a INT)`)
	for i := 0; i < 10; i++ {
		p.mustExec(t, fmt.Sprintf(`INSERT INTO t VALUES (%d)`, i))
	}

	r1 := startReplica(t, p.srv.Addr(), repl.WithReplicaName("victim"))
	r1.converge(t, p)
	r1.rep.Close() // kill: the in-memory replica state dies with it

	// The primary keeps writing while the replica is down.
	for i := 10; i < 30; i++ {
		p.mustExec(t, fmt.Sprintf(`INSERT INTO t VALUES (%d)`, i))
	}

	// Rejoin as a fresh process: bootstrap snapshot + live stream.
	r2 := startReplica(t, p.srv.Addr(), repl.WithReplicaName("revenant"))
	r2.converge(t, p)
	if got := countRows(t, r2.db, "t"); got != 30 {
		t.Fatalf("rejoined replica rows = %d, want 30", got)
	}
	if got := metric(t, r2.db, "repl.snapshots_loaded"); got != 1 {
		t.Fatalf("rejoined replica snapshots_loaded = %v, want 1", got)
	}
}

// blockableDialer cuts the network between replica and primary on
// demand; live connections are severed and new dials refused.
type blockableDialer struct {
	mu      sync.Mutex
	blocked bool
	conns   []net.Conn
}

func (d *blockableDialer) dial(addr string) (net.Conn, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.blocked {
		return nil, fmt.Errorf("dialer: partitioned")
	}
	nc, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		return nil, err
	}
	d.conns = append(d.conns, nc)
	return nc, nil
}

func (d *blockableDialer) partition(on bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.blocked = on
	if on {
		for _, c := range d.conns {
			_ = c.Close()
		}
		d.conns = nil
	}
}

func TestCheckpointTruncationForcesRebootstrap(t *testing.T) {
	p := startPrimary(t)
	p.mustExec(t, `CREATE TABLE t (a INT)`)
	d := &blockableDialer{}
	r := startReplica(t, p.srv.Addr(), repl.WithDialer(d.dial))
	r.converge(t, p)

	// Partition the replica, then write and checkpoint: the frames the
	// replica needs are truncated out of the log.
	d.partition(true)
	for i := 0; i < 20; i++ {
		p.mustExec(t, fmt.Sprintf(`INSERT INTO t VALUES (%d)`, i))
	}
	if err := p.db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if base := p.db.WALBase(); base <= r.rep.AppliedSeq() {
		t.Fatalf("checkpoint did not move the WAL base past the replica (base %d, applied %d)",
			base, r.rep.AppliedSeq())
	}

	// Heal the partition: the resubscribe gets ErrCodeWALGone and the
	// replica must re-bootstrap from a fresh snapshot.
	d.partition(false)
	r.converge(t, p)
	if got := countRows(t, r.db, "t"); got != 20 {
		t.Fatalf("rebootstrapped replica rows = %d, want 20", got)
	}
	if got := metric(t, r.db, "repl.snapshots_loaded"); got < 2 {
		t.Fatalf("snapshots_loaded = %v, want >= 2 (bootstrap + WALGone recovery)", got)
	}
}

// TestRestartedPrimaryForcesRebootstrap: a primary closed and reopened
// on the same directory continues its log's numbering, but under a new
// runID. The replica's resubscribe is refused on the lineage alone, and
// it re-bootstraps: seqs that survive a restart say nothing about
// frames the old process lost before they were fsynced.
func TestRestartedPrimaryForcesRebootstrap(t *testing.T) {
	dir := t.TempDir()
	p := startPrimaryIn(t, dir)
	p.mustExec(t, `CREATE TABLE t (a INT)`)
	for i := 0; i < 10; i++ {
		p.mustExec(t, fmt.Sprintf(`INSERT INTO t VALUES (%d)`, i))
	}
	var mu sync.Mutex
	target := p.srv.Addr()
	dial := func(string) (net.Conn, error) {
		mu.Lock()
		addr := target
		mu.Unlock()
		return net.DialTimeout("tcp", addr, time.Second)
	}
	r := startReplica(t, "", repl.WithDialer(dial))
	r.converge(t, p)

	if err := p.srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p.db.Close(); err != nil {
		t.Fatal(err)
	}
	p2 := startPrimaryIn(t, dir)
	if p2.prim.RunID() == p.prim.RunID() {
		t.Fatal("the restarted primary kept its runID")
	}
	mu.Lock()
	target = p2.srv.Addr()
	mu.Unlock()
	for i := 10; i < 20; i++ {
		p2.mustExec(t, fmt.Sprintf(`INSERT INTO t VALUES (%d)`, i))
	}
	r.converge(t, p2)
	if got := countRows(t, r.db, "t"); got != 20 {
		t.Fatalf("replica rows after the primary's restart = %d, want 20", got)
	}
	if got := metric(t, r.db, "repl.snapshots_loaded"); got != 2 {
		t.Fatalf("snapshots_loaded = %v, want 2 (bootstrap + the new lineage)", got)
	}
}

// TestCaughtUpReplicaTailsAcrossCheckpoint: a Checkpoint truncates
// wal.log under a replica that has every frame. The primary's cursor
// starts over at offset 0 of the truncated file and the same stream
// carries on — no snapshot, no resubscribe.
func TestCaughtUpReplicaTailsAcrossCheckpoint(t *testing.T) {
	p := startPrimary(t)
	p.mustExec(t, `CREATE TABLE t (a INT)`)
	for i := 0; i < 10; i++ {
		p.mustExec(t, fmt.Sprintf(`INSERT INTO t VALUES (%d)`, i))
	}
	r := startReplica(t, p.srv.Addr())
	r.converge(t, p)
	for round := 0; round < 3; round++ {
		if err := p.db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			p.mustExec(t, fmt.Sprintf(`INSERT INTO t VALUES (%d)`, 10*(round+1)+i))
		}
		r.converge(t, p)
	}
	if got := countRows(t, r.db, "t"); got != 40 {
		t.Fatalf("replica rows after tailing 3 checkpoints = %d, want exactly 40", got)
	}
	if got := metric(t, r.db, "repl.snapshots_loaded"); got != 1 {
		t.Fatalf("snapshots_loaded = %v, want 1 (no re-bootstrap)", got)
	}
	if got := metric(t, r.db, "repl.resubscribes"); got != 0 {
		t.Fatalf("resubscribes = %v, want 0 (one stream throughout)", got)
	}
}

// TestBurstConvergesFromTheFile appends a burst larger than any
// in-memory buffer a stream could hold; the primary ships it from the
// log file and the replica converges to the exact count on its first
// snapshot.
func TestBurstConvergesFromTheFile(t *testing.T) {
	p := startPrimary(t)
	p.mustExec(t, `CREATE TABLE t (a INT)`)
	r := startReplica(t, p.srv.Addr())
	r.converge(t, p)
	const burst = 3000
	for i := 0; i < burst; i++ {
		p.mustExec(t, fmt.Sprintf(`INSERT INTO t VALUES (%d)`, i))
	}
	r.converge(t, p)
	if got := countRows(t, r.db, "t"); got != burst {
		t.Fatalf("replica rows after the burst = %d, want exactly %d", got, burst)
	}
	if got := metric(t, r.db, "repl.snapshots_loaded"); got != 1 {
		t.Fatalf("snapshots_loaded = %v, want 1 (no re-bootstrap)", got)
	}
}

// TestReplicaMatchesPrimaryUnderConcurrentWriters races writers that
// diverged the log from the live state when frames were appended after
// the locks were released or a writer's reads went unlocked: a DELETE
// against INSERTs on one table, and INSERT ... SELECT COUNT(*) from a
// table other sessions insert into. The replica applies the log, so it
// must end with exactly the primary's rows.
func TestReplicaMatchesPrimaryUnderConcurrentWriters(t *testing.T) {
	p := startPrimary(t)
	for _, table := range []string{"t", "u", "w"} {
		p.mustExec(t, `CREATE TABLE `+table+` (a INT)`)
	}
	r := startReplica(t, p.srv.Addr())
	r.converge(t, p)
	const n = 200
	var wg sync.WaitGroup
	for _, stmt := range []func(i int) string{
		func(i int) string { return fmt.Sprintf(`INSERT INTO t VALUES (%d)`, i) },
		func(int) string { return `DELETE FROM t` },
		func(i int) string { return fmt.Sprintf(`INSERT INTO u VALUES (%d)`, i) },
		func(int) string { return `INSERT INTO w SELECT COUNT(*) FROM u` },
	} {
		s := p.db.NewSession()
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer s.Close()
			for i := range n {
				if _, err := s.Exec(stmt(i), nil); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	r.converge(t, p)
	for _, table := range []string{"t", "u", "w"} {
		if live, replica := rows(t, p.db, table), rows(t, r.db, table); live != replica {
			t.Errorf("table %s: primary %s, replica %s", table, live, replica)
		}
	}
}

// rows renders a one-column table's values in order.
func rows(t testing.TB, db *engine.Database, table string) string {
	t.Helper()
	s := db.NewSession()
	defer s.Close()
	res, err := s.Exec(`SELECT a FROM `+table+` ORDER BY a`, nil)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, row := range res.Rows {
		fmt.Fprintf(&b, "%d ", row[0].Int())
	}
	return b.String()
}

// faultDialer wraps each dialled connection in an iofault.NetConn so a
// test can sever or stall the replication link mid-stream.
type faultDialer struct {
	mu    sync.Mutex
	conns []*iofault.NetConn
}

func (d *faultDialer) dial(addr string) (net.Conn, error) {
	nc, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		return nil, err
	}
	c := iofault.WrapConn(nc)
	d.mu.Lock()
	d.conns = append(d.conns, c)
	d.mu.Unlock()
	return c, nil
}

func (d *faultDialer) latest() *iofault.NetConn {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.conns) == 0 {
		return nil
	}
	return d.conns[len(d.conns)-1]
}

func TestSeveredReplicaResubscribesExactlyOnce(t *testing.T) {
	p := startPrimary(t)
	p.mustExec(t, `CREATE TABLE t (a INT)`)
	d := &faultDialer{}
	r := startReplica(t, p.srv.Addr(), repl.WithDialer(d.dial))
	r.converge(t, p)

	// Sever the link mid-stream: the next status report (every 10ms)
	// trips the budget and kills the connection, possibly mid-frame.
	d.latest().SetWriteBudget(0, iofault.NetSever)
	for i := 0; i < 25; i++ {
		p.mustExec(t, fmt.Sprintf(`INSERT INTO t VALUES (%d)`, i))
	}
	// Hold the stream open across status ticks so the sever fires with
	// half the rows shipped, then write the rest.
	time.Sleep(50 * time.Millisecond)
	for i := 25; i < 50; i++ {
		p.mustExec(t, fmt.Sprintf(`INSERT INTO t VALUES (%d)`, i))
	}

	r.converge(t, p)
	// Exactly 50: a dropped frame would leave fewer, a double-applied
	// frame (replayed INSERT) would leave more.
	if got := countRows(t, r.db, "t"); got != 50 {
		t.Fatalf("rows after sever+resubscribe = %d, want exactly 50", got)
	}
	if got := metric(t, r.db, "repl.resubscribes"); got == 0 {
		t.Fatal("sever did not force a resubscribe")
	}
	// Severing must not have forced a snapshot: catch-up from the
	// replica's applied seq sufficed.
	if got := metric(t, r.db, "repl.snapshots_loaded"); got != 1 {
		t.Fatalf("snapshots_loaded = %v, want 1 (no re-bootstrap on sever)", got)
	}
}

func TestStalledStreamDetectedByIdleTimeout(t *testing.T) {
	// Heartbeats are slower than the idle timeout, so a stalled link is
	// indistinguishable from silence and must trip the timeout.
	p := startPrimary(t, repl.WithHeartbeat(time.Minute))
	p.mustExec(t, `CREATE TABLE t (a INT)`)
	d := &faultDialer{}
	r := startReplica(t, p.srv.Addr(),
		repl.WithDialer(d.dial), repl.WithIdleTimeout(200*time.Millisecond))
	r.converge(t, p)

	// Stall the link: reads crawl, so the stream goes quiet from the
	// replica's point of view while the socket stays open. The first
	// row flushes the replica's in-flight (pre-stall) read; its next
	// read entry sleeps past the idle deadline and must error out.
	d.latest().SetReadDelay(time.Second)
	p.mustExec(t, `INSERT INTO t VALUES (0)`)
	time.Sleep(50 * time.Millisecond)
	for i := 1; i < 10; i++ {
		p.mustExec(t, fmt.Sprintf(`INSERT INTO t VALUES (%d)`, i))
	}

	r.converge(t, p)
	if got := countRows(t, r.db, "t"); got != 10 {
		t.Fatalf("rows after stall+resubscribe = %d, want exactly 10", got)
	}
	if got := metric(t, r.db, "repl.resubscribes"); got == 0 {
		t.Fatal("stall did not force a resubscribe")
	}
}

// A primary speaking another protocol version fails the link at its
// welcome, with an error naming both versions, before the replica asks
// it for anything: a snapshot request framed for one version would be
// read by the other. The fake primary welcomes as TIP/2 did, with a
// version and no cancel key.
func TestReplicaRefusesOtherProtocolVersion(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var asked []byte // kinds of the frames the replica sent after the welcome
	served := make(chan struct{})
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer close(served)
		defer nc.Close()
		r, w := bufio.NewReader(nc), bufio.NewWriter(nc)
		if _, err := protocol.ReadFrame(r); err != nil {
			return
		}
		_ = protocol.WriteFrame(w, protocol.AppendString([]byte{protocol.MsgWelcome}, "TIP/2"))
		for {
			frame, err := protocol.ReadFrame(r)
			if err != nil {
				return // the replica dropped the link
			}
			asked = append(asked, frame[0])
		}
	}()
	logged := make(chan string, 1)
	r := repl.StartReplica(newEngine(t), ln.Addr().String(), repl.WithReplicaLogger(func(format string, args ...any) {
		select {
		case logged <- fmt.Sprintf(format, args...):
		default:
		}
	}))
	defer r.Close()
	var line string
	select {
	case line = <-logged:
	case <-time.After(10 * time.Second):
		t.Fatal("the replica logged no failed link")
	}
	<-served
	if !strings.Contains(line, `"TIP/2"`) || !strings.Contains(line, protocol.Version) {
		t.Errorf("logged %q, want an error naming both protocol versions", line)
	}
	if len(asked) != 0 {
		t.Errorf("the replica sent frames of kinds %v after the welcome (MsgSnapshot is %d), want none", asked, protocol.MsgSnapshot)
	}
}

// TestRawSubscribeStreamsBackloggedFrames speaks the wire protocol
// directly: a subscription from seq 0 must deliver every frame already
// in the log file (the catch-up path), contiguous and checksum-clean.
func TestRawSubscribeStreamsBackloggedFrames(t *testing.T) {
	p := startPrimary(t)
	p.mustExec(t, `CREATE TABLE t (a INT)`)
	for i := 0; i < 5; i++ {
		p.mustExec(t, fmt.Sprintf(`INSERT INTO t VALUES (%d)`, i))
	}
	want := p.db.WALSeq() // 6 frames, all appended before we subscribe

	nc, err := net.Dial("tcp", p.srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	_ = nc.SetDeadline(time.Now().Add(10 * time.Second))
	r, w := bufio.NewReader(nc), bufio.NewWriter(nc)
	if err := protocol.WriteFrame(w, protocol.EncodeHello("raw-subscriber")); err != nil {
		t.Fatal(err)
	}
	if frame, err := protocol.ReadFrame(r); err != nil || frame[0] != protocol.MsgWelcome {
		t.Fatalf("handshake: %x, %v", frame, err)
	}
	if err := protocol.WriteFrame(w, protocol.EncodeSubscribe(0, "raw", "")); err != nil {
		t.Fatal(err)
	}

	var next uint64 = 1
	for next <= want {
		frame, err := protocol.ReadFrame(r)
		if err != nil {
			t.Fatalf("at seq %d: %v", next, err)
		}
		switch frame[0] {
		case protocol.MsgReplStatus:
			continue // subscription ack / heartbeat
		case protocol.MsgWALFrame:
			seq, _, err := engine.DecodeWALFrameBody(frame[1:])
			if err != nil {
				t.Fatalf("frame %d fails checksum: %v", next, err)
			}
			if seq != next {
				t.Fatalf("got seq %d, want %d", seq, next)
			}
			next++
		default:
			t.Fatalf("unexpected frame kind %d", frame[0])
		}
	}
}

func TestPrimaryLagGaugeTracksSlowReplica(t *testing.T) {
	p := startPrimary(t)
	p.mustExec(t, `CREATE TABLE t (a INT)`)
	d := &blockableDialer{}
	r := startReplica(t, p.srv.Addr(), repl.WithDialer(d.dial))
	r.converge(t, p)

	// Stream a few frames so shipping is observable, then wait for the
	// replica's position report to zero the lag gauge.
	for i := 0; i < 5; i++ {
		p.mustExec(t, fmt.Sprintf(`INSERT INTO t VALUES (%d)`, i))
	}
	r.converge(t, p)
	if got := metric(t, p.db, "repl.frames_shipped"); got == 0 {
		t.Fatal("repl.frames_shipped = 0 after streaming")
	}
	deadline := time.Now().Add(5 * time.Second)
	for metric(t, p.db, "repl.lag_seq") != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("repl.lag_seq stuck at %v", metric(t, p.db, "repl.lag_seq"))
		}
		time.Sleep(5 * time.Millisecond)
	}
}
