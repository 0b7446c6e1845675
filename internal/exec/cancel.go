package exec

import (
	"errors"
	"sync/atomic"
)

// Cooperative statement cancellation. A Token is shared between the
// goroutine executing a statement and whoever wants to abort it (a
// MsgCancel side connection, a statement-timeout timer).
// The executor polls the token inside every row loop — scans, joins,
// aggregation, DISTINCT, sort and set operations — so a runaway query
// stops within a bounded number of rows of the cancel, without any
// locking on the hot path.
//
// The polls are rationed: the runtime checks the token once every
// BatchRows loop iterations (the executor's batch size, see batch.go),
// so the steady-state cost is one local counter increment per row and
// one atomic load per batch.

// CancelCause says why a statement was aborted.
type CancelCause int32

const (
	causeNone CancelCause = iota
	// CauseCancelled is an explicit abort (MsgCancel, Conn.Cancel).
	CauseCancelled
	// CauseTimeout is a statement deadline expiring.
	CauseTimeout
)

var (
	// ErrCancelled reports a statement aborted by an explicit cancel.
	ErrCancelled = errors.New("exec: statement cancelled")
	// ErrTimeout reports a statement aborted by its statement timeout.
	ErrTimeout = errors.New("exec: statement timeout exceeded")
)

// Token is a session's cancellation flag, covering one statement at a
// time: Reset ends the current statement and stamps the next. The zero
// value is ready to use and not cancelled. All methods are safe for
// concurrent use.
type Token struct {
	state atomic.Uint64 // statement stamp << 32 | cause
}

// Cancel flags the token with the given cause: the statement running,
// or, between statements, the next one. The first cause wins; later
// cancels of an already-cancelled token are no-ops, so a timeout firing
// just after a client cancel still reports "cancelled".
func (t *Token) Cancel(cause CancelCause) { t.cancel(false, 0, cause) }

// Stamp identifies the statement the token currently covers.
func (t *Token) Stamp() uint32 { return uint32(t.state.Load() >> 32) }

// CancelStmt is Cancel aimed at the statement stamp identifies: once
// Reset has moved the token on, it does nothing. A statement timer uses
// it, so a timer that fires as its statement ends (timer.Stop does not
// wait for a callback already running) cannot cancel the next one.
func (t *Token) CancelStmt(stamp uint32, cause CancelCause) { t.cancel(true, stamp, cause) }

func (t *Token) cancel(only bool, stamp uint32, cause CancelCause) {
	for cause != causeNone {
		s := t.state.Load()
		if CancelCause(uint32(s)) != causeNone || only && uint32(s>>32) != stamp {
			return
		}
		if t.state.CompareAndSwap(s, s|uint64(cause)) {
			return
		}
	}
}

// Reset re-arms the token for the next statement, with a new stamp.
func (t *Token) Reset() { t.state.Store(uint64(t.Stamp()+1) << 32) }

// Err returns nil while the token is live, or the typed cancellation
// error once it has been cancelled.
func (t *Token) Err() error {
	switch CancelCause(uint32(t.state.Load())) {
	case CauseCancelled:
		return ErrCancelled
	case CauseTimeout:
		return ErrTimeout
	default:
		return nil
	}
}

// CancelErr polls the environment's cancel token (nil-safe).
func (e *Env) CancelErr() error {
	if e.Cancel == nil {
		return nil
	}
	return e.Cancel.Err()
}

// checkCancel is the executor's rationed cancel point: call it once per
// row-loop iteration; it polls the token every BatchRows calls (once
// per batch). At typical scan speeds (millions of rows per second) this
// bounds cancellation latency to well under a millisecond. The same
// slow path flushes pending memory charges and polls the statement's
// memory budget (mem.go), so a budget overrun aborts on the identical
// schedule — and with the identical write-atomicity guarantee — as a
// cancel.
func (rt *runtime) checkCancel() error {
	rt.ticks++
	if rt.ticks&(BatchRows-1) != 0 {
		return nil
	}
	if err := rt.env.CancelErr(); err != nil {
		return err
	}
	return rt.pollMem()
}
