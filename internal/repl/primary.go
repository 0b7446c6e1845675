// Package repl is WAL-shipping replication: a primary tails its
// write-ahead log and streams the checksummed frame bodies to
// subscribed replicas, which replay them into their own engine and
// serve read-only queries from MVCC snapshots. The wire payload is the
// WAL frame body exactly as logged — {CRC32C, epoch, seq} plus the
// statement payload — so a replica verifies the same checksum local
// crash recovery would, and the stream cannot drift from the on-disk
// format.
//
// The log file is the one source of frames: each subscription tails
// wal.log from the replica's position with a cursor that keeps its
// byte offset, ships every complete frame, and then sleeps until the
// next append. A Checkpoint that truncates the file under a caught-up
// subscription restarts the cursor at offset 0. A replica that falls
// behind, partitions, or restarts resubscribes from its last applied
// seq; if the primary has checkpointed those frames away — or
// restarted into a new WAL lineage, detected by runID — the
// subscription is refused with ErrCodeWALGone and the replica
// re-bootstraps from a snapshot.
// Exactly-once apply needs no acknowledgements: frames carry strict
// seqs, the replica skips duplicates and refuses gaps.
package repl

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"tip/internal/engine"
	"tip/internal/obs"
	"tip/internal/protocol"
	"tip/internal/server"
)

// DefaultHeartbeat is how often an idle stream sends a MsgReplStatus
// heartbeat so replicas can tell a quiet primary from a dead link.
const DefaultHeartbeat = 2 * time.Second

// Primary serves the WAL as a replication stream. It implements
// server.ReplSource; wire it with server.WithReplication.
type Primary struct {
	db        *engine.Database
	walPath   string
	runID     string
	heartbeat time.Duration
	logf      func(format string, args ...any)

	mu       sync.Mutex
	replicas map[*replicaState]struct{}

	framesShipped *obs.Counter
	snapshots     *obs.Counter
}

// replicaState is one live subscriber's last reported position.
type replicaState struct {
	name    string
	applied atomic.Uint64
}

// PrimaryOption configures a Primary.
type PrimaryOption func(*Primary)

// WithPrimaryLogger directs primary-side replication logs to logf.
func WithPrimaryLogger(logf func(format string, args ...any)) PrimaryOption {
	return func(p *Primary) { p.logf = logf }
}

// WithHeartbeat sets the idle-stream heartbeat interval (tests shrink
// it to exercise partition detection quickly).
func WithHeartbeat(d time.Duration) PrimaryOption {
	return func(p *Primary) {
		if d > 0 {
			p.heartbeat = d
		}
	}
}

// NewPrimary makes db's WAL at walPath streamable. The WAL must be (or
// become) enabled for live subscriptions; snapshots work regardless.
// The runID stamps this process's WAL lineage: frame seqs restart when
// the process does, so a replica holding seqs from an older run must
// re-bootstrap, and the runID mismatch is how both sides notice.
func NewPrimary(db *engine.Database, walPath string, opts ...PrimaryOption) *Primary {
	p := &Primary{
		db:        db,
		walPath:   walPath,
		runID:     fmt.Sprintf("%d-%x", os.Getpid(), time.Now().UnixNano()),
		heartbeat: DefaultHeartbeat,
		logf:      func(string, ...any) {},
		replicas:  make(map[*replicaState]struct{}),
	}
	for _, o := range opts {
		o(p)
	}
	m := db.Metrics()
	p.framesShipped = m.Counter("repl.frames_shipped")
	p.snapshots = m.Counter("repl.snapshots_served")
	m.RegisterFunc("repl.replica_count", func() float64 {
		p.mu.Lock()
		defer p.mu.Unlock()
		return float64(len(p.replicas))
	})
	m.RegisterFunc("repl.lag_seq", func() float64 { return float64(p.lagSeq()) })
	return p
}

// RunID returns this primary's WAL lineage identifier.
func (p *Primary) RunID() string { return p.runID }

// lagSeq is the worst replica lag in frames (0 with no subscribers).
func (p *Primary) lagSeq() uint64 {
	cur := p.db.WALSeq()
	p.mu.Lock()
	defer p.mu.Unlock()
	var worst uint64
	for rs := range p.replicas {
		if a := rs.applied.Load(); cur > a && cur-a > worst {
			worst = cur - a
		}
	}
	return worst
}

// status is the primary's stream position: its first reply to a
// subscriber and the payload of idle heartbeats.
func (p *Primary) status() protocol.ReplStatus {
	return protocol.ReplStatus{
		Role:       protocol.RolePrimary,
		AppliedSeq: p.db.WALSeq(),
		RunID:      p.runID,
	}
}

// Snapshot implements server.ReplSource: a consistent bootstrap
// snapshot stamped with the WAL seq it reflects.
func (p *Primary) Snapshot() (runID string, epoch, seq uint64, data []byte, err error) {
	epoch, seq, data = p.db.ReplicationSnapshot()
	p.snapshots.Inc()
	p.logf("repl: served snapshot at seq %d (%d bytes)", seq, len(data))
	return p.runID, epoch, seq, data, nil
}

// Stream implements server.ReplSource: it owns one subscriber's
// connection until the peer disconnects or the server drains. It ships
// every complete frame past the subscriber's position from the log
// file, then waits for a stop, a position report, the heartbeat or the
// next append.
func (p *Primary) Stream(req server.ReplStreamRequest, send func(payload []byte) error,
	incoming <-chan []byte, stop <-chan struct{}) error {
	gone := func(msg string) error {
		return send(protocol.EncodeErrorCode(protocol.ErrCodeWALGone, msg+"; snapshot required"))
	}
	if req.RunID != "" && req.RunID != p.runID {
		return gone("repl: primary restarted into a new WAL lineage")
	}
	if cur := p.db.WALSeq(); req.FromSeq > cur {
		return gone(fmt.Sprintf("repl: cannot stream from seq %d (log ends at %d)", req.FromSeq, cur))
	}
	tail, err := p.db.TailWAL(p.walPath, req.FromSeq)
	if errors.Is(err, engine.ErrWALGone) {
		return gone(err.Error())
	}
	if err != nil {
		_ = send(protocol.EncodeError("repl: " + err.Error()))
		return err
	}
	defer tail.Close()
	rs := &replicaState{name: req.Name}
	rs.applied.Store(req.FromSeq)
	p.mu.Lock()
	p.replicas[rs] = struct{}{}
	p.mu.Unlock()
	defer func() {
		p.mu.Lock()
		delete(p.replicas, rs)
		p.mu.Unlock()
	}()
	// Ack the subscription with our position and runID before the first
	// frame.
	if err := send(protocol.EncodeReplStatus(p.status())); err != nil {
		return err
	}
	hb := time.NewTicker(p.heartbeat)
	defer hb.Stop()
	for {
		// Taken before reading to the end of the file, so an append in
		// between wakes the wait below.
		appended := tail.Appended()
		if appended == nil {
			_ = send(protocol.EncodeError("repl: WAL not enabled"))
			return errors.New("repl: WAL not enabled")
		}
		for {
			body, err := tail.Next()
			if errors.Is(err, engine.ErrWALGone) {
				return gone(err.Error())
			}
			if err != nil {
				return err
			}
			if body == nil {
				break
			}
			if err := send(protocol.EncodeWALFrameMsg(body)); err != nil {
				return err
			}
			p.framesShipped.Inc()
			// A long backlog still honours a drain and keeps the
			// subscriber's position current.
			select {
			case <-stop:
				return nil
			case msg, ok := <-incoming:
				if !ok {
					return nil
				}
				p.noteReport(rs, msg)
			default:
			}
		}
		select {
		case <-stop:
			return nil
		case msg, ok := <-incoming:
			if !ok {
				return nil
			}
			p.noteReport(rs, msg)
		case <-hb.C:
			if err := send(protocol.EncodeReplStatus(p.status())); err != nil {
				return err
			}
		case <-appended:
		}
	}
}

// noteReport records a subscriber's MsgReplStatus position report;
// other frame kinds on the stream connection are ignored.
func (p *Primary) noteReport(rs *replicaState, frame []byte) {
	if len(frame) < 2 || frame[0] != protocol.MsgReplStatus {
		return
	}
	st, err := protocol.DecodeReplStatus(frame[1:])
	if err != nil {
		return
	}
	rs.applied.Store(st.AppliedSeq)
}
