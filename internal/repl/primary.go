// Package repl is WAL-shipping replication: a primary tails its
// write-ahead log and streams the checksummed frame bodies to
// subscribed replicas, which replay them into their own engine and
// serve read-only queries from MVCC snapshots. The wire payload is the
// WAL frame body exactly as logged — {CRC32C, epoch, seq} plus the
// statement payload — so a replica verifies the same checksum local
// crash recovery would, and the stream cannot drift from the on-disk
// format.
//
// The subscriber state machine has two sources stitched by sequence
// number: file catch-up (frames appended before the live subscription
// existed) and the live tail. A replica that falls behind, partitions,
// or restarts resubscribes from its last applied seq; if the primary
// has checkpointed those frames away — or restarted into a new WAL
// lineage, detected by runID — the subscription is refused with
// ErrCodeWALGone and the replica re-bootstraps from a snapshot.
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

// liveBuf is the per-subscriber live-tail buffer. A subscriber that
// falls this many frames behind while the stream is blocked on its
// connection is cut off and re-caught-up from the file — the append
// path never waits on a slow replica.
const liveBuf = 1024

// DefaultHeartbeat is how often an idle stream sends a MsgReplStatus
// heartbeat so replicas can tell a quiet primary from a dead link.
const DefaultHeartbeat = 2 * time.Second

var (
	errStreamStopped = errors.New("repl: stream stopped")
	errSeqGap        = errors.New("repl: sequence gap")
)

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
// connection until the peer disconnects or the server drains,
// alternating file catch-up with the live tail.
func (p *Primary) Stream(req server.ReplStreamRequest, send func(payload []byte) error,
	incoming <-chan []byte, stop <-chan struct{}) error {
	if req.RunID != "" && req.RunID != p.runID {
		return send(protocol.EncodeErrorCode(protocol.ErrCodeWALGone,
			"repl: primary restarted into a new WAL lineage; snapshot required"))
	}
	if msg, gone := p.checkRetention(req.FromSeq); gone {
		return send(protocol.EncodeErrorCode(protocol.ErrCodeWALGone, msg))
	}
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
	last := req.FromSeq
	for {
		// Subscribe before reading the file: every frame is then either
		// in the file already or guaranteed to arrive on the channel,
		// and duplicates straddling the boundary are skipped by seq.
		sub, err := p.db.SubscribeWAL(liveBuf)
		if err != nil {
			_ = send(protocol.EncodeError("repl: " + err.Error()))
			return err
		}
		err = p.catchUp(&last, rs, send, incoming, stop)
		if err != nil {
			sub.Close()
			switch {
			case errors.Is(err, errStreamStopped):
				return nil
			case errors.Is(err, errSeqGap):
				// The file no longer starts at last+1: a checkpoint
				// truncated it under us. If the position is gone for
				// good the replica must re-bootstrap.
				if msg, gone := p.checkRetention(last); gone {
					return send(protocol.EncodeErrorCode(protocol.ErrCodeWALGone, msg))
				}
				continue
			default:
				return err
			}
		}
		again, err := p.live(sub, &last, rs, send, incoming, stop)
		sub.Close()
		if err != nil || !again {
			return err
		}
		if msg, gone := p.checkRetention(last); gone {
			return send(protocol.EncodeErrorCode(protocol.ErrCodeWALGone, msg))
		}
	}
}

// checkRetention reports whether frames after fromSeq can still be
// served from the log.
func (p *Primary) checkRetention(fromSeq uint64) (string, bool) {
	base, cur := p.db.WALBase(), p.db.WALSeq()
	if fromSeq < base || fromSeq > cur {
		return fmt.Sprintf("repl: cannot stream from seq %d (log holds %d..%d); snapshot required",
			fromSeq, base+1, cur), true
	}
	return "", false
}

// catchUp ships frames from the log file until its end, advancing
// *last. Position reports from the subscriber are drained without
// blocking the stream.
func (p *Primary) catchUp(last *uint64, rs *replicaState, send func([]byte) error,
	incoming <-chan []byte, stop <-chan struct{}) error {
	return engine.ReadWALFrames(p.walPath, *last, func(fr engine.ReplFrame) error {
		for {
			select {
			case <-stop:
				return errStreamStopped
			case msg, ok := <-incoming:
				if !ok {
					return errStreamStopped
				}
				p.noteReport(rs, msg)
				continue
			default:
			}
			break
		}
		if fr.Seq != *last+1 {
			return errSeqGap
		}
		if err := send(protocol.EncodeWALFrameMsg(fr.Body)); err != nil {
			return err
		}
		*last = fr.Seq
		p.framesShipped.Inc()
		return nil
	})
}

// live ships frames from the tail subscription. It returns again=true
// when the subscription was cut (buffer overrun) and the caller should
// re-catch-up from the file, again=false when the stream is over.
func (p *Primary) live(sub *engine.WALSub, last *uint64, rs *replicaState,
	send func([]byte) error, incoming <-chan []byte, stop <-chan struct{}) (again bool, err error) {
	hb := time.NewTicker(p.heartbeat)
	defer hb.Stop()
	for {
		select {
		case <-stop:
			return false, nil
		case msg, ok := <-incoming:
			if !ok {
				return false, nil
			}
			p.noteReport(rs, msg)
		case <-hb.C:
			if err := send(protocol.EncodeReplStatus(p.status())); err != nil {
				return false, err
			}
		case fr, ok := <-sub.C:
			if !ok {
				return true, nil // overrun: re-catch-up from the file
			}
			if fr.Seq <= *last {
				continue // already shipped during catch-up
			}
			if fr.Seq != *last+1 {
				return true, nil // defensive: stitch the gap from the file
			}
			if err := send(protocol.EncodeWALFrameMsg(fr.Body)); err != nil {
				return false, err
			}
			*last = fr.Seq
			p.framesShipped.Inc()
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
