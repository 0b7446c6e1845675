package repl

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"tip/internal/engine"
	"tip/internal/obs"
	"tip/internal/protocol"
)

// Replica-side state machine. The replica owns a read-only
// engine.Database and drives it to convergence with the primary:
//
//	connect → (bootstrap via MsgSnapshot if fresh, or if the primary
//	said WALGone / changed runID) → MsgSubscribe from applied seq →
//	apply MsgWALFrame stream, reporting applied position → on any
//	error, back off and reconnect from the last applied seq.
//
// Apply is exactly-once by construction: the snapshot states the seq it
// reflects, every frame carries its seq, duplicates (seq ≤ applied) are
// skipped and gaps refuse to apply — a gap or a failed apply tears the
// connection down and the resubscribe (or re-bootstrap) heals it.

// Defaults for the replica's timing knobs; tests shrink them.
const (
	DefaultStatusInterval = 100 * time.Millisecond
	// DefaultIdleTimeout bounds silence on the stream. The primary
	// heartbeats every DefaultHeartbeat, so a stream quiet for this
	// long is partitioned or stalled, not idle.
	DefaultIdleTimeout = 4 * DefaultHeartbeat
)

// errReplicaClosed reports Close was called.
var errReplicaClosed = errors.New("repl: replica closed")

// Replica streams a primary's WAL into its own database.
type Replica struct {
	db          *engine.Database
	addr        string
	name        string
	dial        func(addr string) (net.Conn, error)
	logf        func(format string, args ...any)
	statusEvery time.Duration
	idleTimeout time.Duration

	applied      atomic.Uint64
	runID        atomic.Value // string: primary lineage we bootstrapped from
	needSnapshot atomic.Bool

	framesApplied   *obs.Counter
	resubscribes    *obs.Counter
	snapshotsLoaded *obs.Counter

	// advanced is closed, and replaced, each time applied moves.
	advanced atomic.Pointer[chan struct{}]

	mu     sync.Mutex
	conn   net.Conn // current connection, closed by Close to unblock reads
	closed bool

	stop chan struct{}
	done chan struct{}
}

// ReplicaOption configures a Replica.
type ReplicaOption func(*Replica)

// WithReplicaName sets the name the replica advertises to the primary
// (logs and lag attribution). Default "replica".
func WithReplicaName(name string) ReplicaOption {
	return func(r *Replica) { r.name = name }
}

// WithReplicaLogger directs replica-side replication logs to logf.
func WithReplicaLogger(logf func(format string, args ...any)) ReplicaOption {
	return func(r *Replica) { r.logf = logf }
}

// WithDialer replaces the primary dialer (tests inject
// iofault-wrapped connections through this).
func WithDialer(dial func(addr string) (net.Conn, error)) ReplicaOption {
	return func(r *Replica) { r.dial = dial }
}

// WithStatusInterval sets how often the replica reports its applied
// position to the primary.
func WithStatusInterval(d time.Duration) ReplicaOption {
	return func(r *Replica) {
		if d > 0 {
			r.statusEvery = d
		}
	}
}

// WithIdleTimeout bounds silence from the primary — in the handshake,
// a bootstrap or the stream — before the replica declares the link dead
// and reconnects. Must exceed the primary's
// heartbeat interval; zero disables the bound.
func WithIdleTimeout(d time.Duration) ReplicaOption {
	return func(r *Replica) { r.idleTimeout = d }
}

// StartReplica switches db read-only and starts replicating it from the
// primary at addr. The returned Replica runs until Close. db must be
// an in-memory database (a replica's durability is the primary's) and
// is expected to be empty — its contents are replaced at bootstrap.
func StartReplica(db *engine.Database, addr string, opts ...ReplicaOption) *Replica {
	r := &Replica{
		db:          db,
		addr:        addr,
		name:        "replica",
		dial:        func(a string) (net.Conn, error) { return net.DialTimeout("tcp", a, 3*time.Second) },
		logf:        func(string, ...any) {},
		statusEvery: DefaultStatusInterval,
		idleTimeout: DefaultIdleTimeout,
		stop:        make(chan struct{}),
		done:        make(chan struct{}),
	}
	for _, o := range opts {
		o(r)
	}
	db.SetReadOnly(true)
	r.needSnapshot.Store(true)
	first := make(chan struct{})
	r.advanced.Store(&first)
	m := db.Metrics()
	r.framesApplied = m.Counter("repl.frames_applied")
	r.resubscribes = m.Counter("repl.resubscribes")
	r.snapshotsLoaded = m.Counter("repl.snapshots_loaded")
	m.RegisterFunc("repl.applied_seq", func() float64 { return float64(r.applied.Load()) })
	go r.run()
	return r
}

// AppliedSeq returns the last WAL seq applied locally.
func (r *Replica) AppliedSeq() uint64 { return r.applied.Load() }

// status is the replica's position report to its primary.
func (r *Replica) status() protocol.ReplStatus {
	runID, _ := r.runID.Load().(string)
	return protocol.ReplStatus{Role: protocol.RoleReplica, AppliedSeq: r.applied.Load(), RunID: runID}
}

// WaitForSeq blocks until the replica has applied through seq or the
// timeout passes, reporting whether it converged. The apply loop wakes
// it at every applied frame.
func (r *Replica) WaitForSeq(seq uint64, timeout time.Duration) bool {
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	for {
		advanced := *r.advanced.Load() // before the check: a later advance closes it
		if r.applied.Load() >= seq {
			return true
		}
		select {
		case <-advanced:
		case <-timer.C:
			return r.applied.Load() >= seq
		}
	}
}

// advance moves the applied position to seq and wakes WaitForSeq.
func (r *Replica) advance(seq uint64) {
	r.applied.Store(seq)
	next := make(chan struct{})
	close(*r.advanced.Swap(&next))
}

// Close stops replication and waits for the apply loop to exit. The
// database stays read-only with whatever it has applied.
func (r *Replica) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		<-r.done
		return
	}
	r.closed = true
	close(r.stop)
	conn := r.conn
	r.mu.Unlock()
	if conn != nil {
		_ = conn.Close()
	}
	<-r.done
}

// setConn tracks the live connection so Close can unblock a pending
// read; refuses new connections once closed.
func (r *Replica) setConn(c net.Conn) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed && c != nil {
		return false
	}
	r.conn = c
	return true
}

// run is the reconnect loop: each runOnce is one connection's life, and
// every exit reconnects with backoff from the last applied position.
func (r *Replica) run() {
	defer close(r.done)
	const backoffMin, backoffMax = 10 * time.Millisecond, time.Second
	backoff := backoffMin
	for {
		select {
		case <-r.stop:
			return
		default:
		}
		started := time.Now()
		err := r.runOnce()
		if errors.Is(err, errReplicaClosed) {
			return
		}
		select {
		case <-r.stop:
			return
		default:
		}
		r.resubscribes.Inc()
		if time.Since(started) > 2*time.Second {
			backoff = backoffMin // the link worked for a while; retry promptly
		}
		r.logf("repl: replica %s: %v (reconnecting in %v)", r.name, err, backoff)
		t := time.NewTimer(backoff)
		select {
		case <-r.stop:
			t.Stop()
			return
		case <-t.C:
		}
		if backoff *= 2; backoff > backoffMax {
			backoff = backoffMax
		}
	}
}

// runOnce is one connection: handshake, optional bootstrap, subscribe,
// then the apply loop until the link dies or the primary refuses.
func (r *Replica) runOnce() error {
	conn, err := r.dial(r.addr)
	if err != nil {
		return err
	}
	if !r.setConn(conn) {
		_ = conn.Close()
		return errReplicaClosed
	}
	defer func() {
		r.setConn(nil)
		_ = conn.Close()
	}()
	br := bufio.NewReader(conn)
	bw := bufio.NewWriter(conn)
	var wmu sync.Mutex // status sender and main loop share bw

	writeFrame := func(payload []byte) error {
		wmu.Lock()
		defer wmu.Unlock()
		return protocol.WriteFrame(bw, payload)
	}

	// recv reads the primary's next message. Silence past the idle
	// timeout means a partitioned or stalled link: the error drops it
	// for a fresh one. A MsgError comes back as an error, and
	// ErrCodeWALGone also marks the replica for a snapshot.
	recv := func() ([]byte, error) {
		if r.idleTimeout > 0 {
			_ = conn.SetReadDeadline(time.Now().Add(r.idleTimeout))
		}
		frame, err := protocol.ReadFrame(br)
		if err != nil {
			return nil, err
		}
		if len(frame) == 0 {
			return nil, errors.New("repl: empty frame")
		}
		if frame[0] != protocol.MsgError {
			return frame, nil
		}
		msg, code, err := protocol.DecodeError(frame[1:])
		if err != nil {
			return nil, err
		}
		if code == protocol.ErrCodeWALGone {
			r.needSnapshot.Store(true)
		}
		return nil, fmt.Errorf("repl: primary: %s", msg)
	}

	// Handshake.
	if err := writeFrame(protocol.EncodeHello("repl:" + r.name)); err != nil {
		return err
	}
	frame, err := recv()
	if err == nil && frame[0] != protocol.MsgWelcome {
		err = errors.New("repl: unexpected handshake reply")
	}
	if err == nil {
		// Version first, as the client checks it: a primary of another
		// revision may frame everything after it differently.
		var version string
		if version, _, err = protocol.ReadString(frame[1:]); err == nil && version != protocol.Version {
			err = fmt.Errorf("repl: primary speaks protocol %q, this replica %q", version, protocol.Version)
		}
	}
	if err != nil {
		return err
	}

	if r.needSnapshot.Load() {
		if err := r.bootstrap(recv, writeFrame); err != nil {
			return err
		}
	}

	runID, _ := r.runID.Load().(string)
	if err := writeFrame(protocol.EncodeSubscribe(r.applied.Load(), r.name, runID)); err != nil {
		return err
	}
	// Report the applied position right away (the subscription carries
	// fromSeq, but this hands the primary a full status report) and
	// then periodically from a side goroutine, so lag stays observable
	// even when the apply loop is busy or the stream idle.
	if err := writeFrame(protocol.EncodeReplStatus(r.status())); err != nil {
		return err
	}
	statusDone := make(chan struct{})
	defer close(statusDone)
	go func() {
		tick := time.NewTicker(r.statusEvery)
		defer tick.Stop()
		for {
			select {
			case <-statusDone:
				return
			case <-r.stop:
				return
			case <-tick.C:
				if writeFrame(protocol.EncodeReplStatus(r.status())) != nil {
					return
				}
			}
		}
	}()

	for {
		frame, err := recv()
		if err != nil {
			return err // resubscribe through a fresh link
		}
		switch frame[0] {
		case protocol.MsgWALFrame:
			seq, payload, err := engine.DecodeWALFrameBody(frame[1:])
			if err != nil {
				return err // corrupt in flight: drop the link, refetch
			}
			a := r.applied.Load()
			if seq <= a {
				continue // duplicate straddling a catch-up boundary
			}
			if seq != a+1 {
				return fmt.Errorf("repl: frame gap: got seq %d, want %d", seq, a+1)
			}
			if err := r.db.ApplyWALPayload(payload); err != nil {
				// Divergence: the group does not fit what the replica
				// holds. A fresh snapshot heals it.
				r.needSnapshot.Store(true)
				return fmt.Errorf("repl: apply seq %d: %w", seq, err)
			}
			r.framesApplied.Inc()
			r.advance(seq) // last: it wakes WaitForSeq
		case protocol.MsgReplStatus:
			// Subscription ack or heartbeat: traffic, nothing to apply.
		default:
			return fmt.Errorf("repl: unexpected frame kind %d", frame[0])
		}
	}
}

// bootstrap loads a snapshot from the primary, replacing the
// database's contents and adopting the snapshot's position and lineage.
// The primary answers with its position, then the snapshot's frames,
// which the database applies into a staging copy as they arrive: a
// link that dies mid-stream leaves the database as it was, and
// needSnapshot still set.
func (r *Replica) bootstrap(recv func() ([]byte, error), writeFrame func([]byte) error) error {
	if err := writeFrame(protocol.EncodeSnapshotRequest()); err != nil {
		return err
	}
	frame, err := recv()
	if err == nil && frame[0] != protocol.MsgReplStatus {
		err = fmt.Errorf("repl: unexpected snapshot reply kind %d", frame[0])
	}
	if err != nil {
		return err
	}
	st, err := protocol.DecodeReplStatus(frame[1:])
	if err != nil {
		return err
	}
	err = r.db.LoadReplicaSnapshot(func() ([]byte, error) {
		frame, err := recv()
		if err == nil && frame[0] != protocol.MsgWALFrame {
			err = fmt.Errorf("repl: unexpected message kind %d in a snapshot", frame[0])
		}
		if err != nil {
			return nil, err
		}
		return frame[1:], nil
	})
	if err != nil {
		return err
	}
	r.runID.Store(st.RunID)
	r.needSnapshot.Store(false)
	r.snapshotsLoaded.Inc()
	r.advance(st.AppliedSeq) // last: it wakes WaitForSeq
	r.logf("repl: replica %s: bootstrapped at seq %d (lineage %s)", r.name, st.AppliedSeq, st.RunID)
	return nil
}
