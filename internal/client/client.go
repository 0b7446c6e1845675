// Package client is the TIP client library — the Go analogue of the
// paper's TIP C and Java libraries. It speaks the TIP wire protocol to a
// TIP server and performs customised type mapping: values of TIP
// datatypes arrive as native temporal objects (temporal.Chronon,
// temporal.Element, ...), not strings, exactly as the TIP Browser maps
// JDBC results to TIP Java objects.
//
// A statement's context.Context is the one way to bound it: cancelling
// it sends a MsgCancel frame with the connection's cancel key on a
// short-lived side connection, and the server aborts the statement.
// The client never retries; server errors arrive typed (ErrBusy,
// ErrResource, ErrShutdown, ...) so the caller can decide what is safe
// to run again.
//
// A thin database/sql driver is also provided (see driver.go) for
// applications that prefer the standard interface; it maps TIP values to
// their literal text.
package client

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"tip/internal/blade"
	"tip/internal/exec"
	"tip/internal/obs"
	"tip/internal/protocol"
	"tip/internal/types"
)

// ErrConnClosed is the sticky state of a connection after Close or a
// transport failure (broken pipe, severed peer): every subsequent call
// fails with an error matching it.
var ErrConnClosed = errors.New("client: connection closed")

// cancelGrace bounds how long a context-cancelled statement waits for
// the server's acknowledgement before the client abandons the read and
// declares the connection broken, and the cancel request's dial.
const cancelGrace = 2 * time.Second

// handshakeTimeout bounds the welcome read: a server (or load balancer)
// that accepts and then stalls must not hang the dial forever.
const handshakeTimeout = 10 * time.Second

// Conn is one client connection. Statements are serialised internally;
// Cancel and Close may be called concurrently with a running statement.
type Conn struct {
	reg *blade.Registry
	key uint64 // cancel key from the server's welcome

	mu sync.Mutex // serialises request/response exchanges

	// wmu guards frame writes and connection state, separately from mu,
	// so Cancel and Close can act while a statement is blocked reading
	// its reply under mu.
	wmu    sync.Mutex
	conn   net.Conn
	r      *bufio.Reader
	w      *bufio.Writer
	broken bool // transport failed; final
	closed bool // Close called; final
}

// Connect dials a TIP server. The registry must have the same blades
// registered as the server, so wire values decode to native objects.
func Connect(addr string, reg *blade.Registry) (*Conn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	c := &Conn{reg: reg, conn: nc, r: bufio.NewReader(nc), w: bufio.NewWriter(nc)}
	if err := c.handshake(); err != nil {
		_ = nc.Close()
		return nil, err
	}
	return c, nil
}

// handshake runs the hello/welcome exchange under handshakeTimeout. A
// typed busy rejection from the server's connection limit surfaces as a
// *ServerError matching ErrBusy.
func (c *Conn) handshake() error {
	if err := protocol.WriteFrame(c.w, protocol.EncodeHello("tip-go-client")); err != nil {
		return fmt.Errorf("client: %w", err)
	}
	_ = c.conn.SetReadDeadline(time.Now().Add(handshakeTimeout))
	frame, err := protocol.ReadFrame(c.r)
	if err != nil {
		return fmt.Errorf("client: %w", err)
	}
	_ = c.conn.SetReadDeadline(time.Time{})
	if len(frame) == 0 {
		return fmt.Errorf("client: bad handshake")
	}
	switch frame[0] {
	case protocol.MsgWelcome:
		// Version first: a server of another revision may send no key.
		version, rest, err := protocol.ReadString(frame[1:])
		if err != nil {
			return fmt.Errorf("client: %w", err)
		}
		if version != protocol.Version {
			return fmt.Errorf("client: server speaks protocol %q, this client %q", version, protocol.Version)
		}
		if c.key, err = protocol.DecodeKey(rest); err != nil {
			return fmt.Errorf("client: %w", err)
		}
		return nil
	case protocol.MsgError:
		msg, code, derr := protocol.DecodeError(frame[1:])
		if derr != nil {
			return fmt.Errorf("client: %w", derr)
		}
		return &ServerError{Message: msg, Code: code}
	default:
		return fmt.Errorf("client: bad handshake")
	}
}

// stateErrLocked reports the sticky connection state; wmu must be held.
func (c *Conn) stateErrLocked() error {
	if c.closed || c.broken {
		return ErrConnClosed
	}
	return nil
}

// breakLocked marks the transport broken and tears it down; wmu held.
func (c *Conn) breakLocked() {
	if !c.broken {
		c.broken = true
		_ = c.conn.Close()
	}
}

// exchange writes one frame and reads the reply. A connection already
// closed or broken refuses the frame with the bare ErrConnClosed: no byte
// was sent. Transport failures mark the connection broken; the returned
// error then matches ErrConnClosed and still carries the cause.
func (c *Conn) exchange(payload []byte) ([]byte, error) {
	c.wmu.Lock()
	if err := c.stateErrLocked(); err != nil {
		c.wmu.Unlock()
		return nil, err
	}
	if err := protocol.WriteFrame(c.w, payload); err != nil {
		c.breakLocked()
		c.wmu.Unlock()
		return nil, fmt.Errorf("client: write: %w", errors.Join(ErrConnClosed, err))
	}
	c.wmu.Unlock()
	frame, err := protocol.ReadFrame(c.r)
	if err != nil {
		c.wmu.Lock()
		c.breakLocked()
		c.wmu.Unlock()
		return nil, fmt.Errorf("client: read: %w", errors.Join(ErrConnClosed, err))
	}
	return frame, nil
}

// Exec sends one SQL statement with optional named parameters and returns
// the decoded result. Server-side errors come back as *ServerError.
func (c *Conn) Exec(sql string, params map[string]types.Value) (*exec.Result, error) {
	return c.ExecContext(context.Background(), sql, params)
}

// ExecContext is Exec with cooperative cancellation: when ctx is
// cancelled mid-statement the client sends a cancel request and the
// server aborts the statement; ExecContext then returns ctx's error and
// the connection stays usable. If the server fails to acknowledge
// within a grace period the connection is declared broken instead.
func (c *Conn) ExecContext(ctx context.Context, sql string, params map[string]types.Value) (*exec.Result, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// On cancellation during the exchange, tell the server, then bound
	// the pending reply read so a dead server cannot hold us past the
	// grace period. A watcher that fired is waited for and its deadline
	// cleared, so it cannot land on the next statement.
	stop := func() bool { return true }
	var fired chan struct{}
	if ctx.Done() != nil {
		done := make(chan struct{})
		fired = done
		stop = context.AfterFunc(ctx, func() {
			defer close(done)
			_ = c.Cancel()
			_ = c.conn.SetReadDeadline(time.Now().Add(cancelGrace))
		})
	}
	frame, err := c.exchange(protocol.EncodeQuery(protocol.Query{SQL: sql, Params: params}))
	ownCancel := !stop()
	if ownCancel {
		<-fired
		_ = c.conn.SetReadDeadline(time.Time{})
	}
	if err != nil {
		if ownCancel && ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, err
	}
	if len(frame) == 0 {
		return nil, fmt.Errorf("client: empty frame")
	}
	switch frame[0] {
	case protocol.MsgResult:
		res, err := protocol.DecodeResult(c.reg, frame[1:])
		if err != nil {
			return nil, fmt.Errorf("client: %w", err)
		}
		return res, nil
	case protocol.MsgError:
		msg, code, derr := protocol.DecodeError(frame[1:])
		if derr != nil {
			return nil, fmt.Errorf("client: %w", derr)
		}
		if code == protocol.ErrCodeCancelled && ownCancel && ctx.Err() != nil {
			// Our own cancel, acknowledged: report it as the ctx error.
			return nil, ctx.Err()
		}
		return nil, &ServerError{Message: msg, Code: code}
	default:
		return nil, fmt.Errorf("client: unexpected message kind %d", frame[0])
	}
}

// Cancel asks the server to abort the connection's in-flight statement
// (or, if none is running, its next one). It dials the server and sends
// the connection's cancel key, so it never waits behind the statement.
// Safe to call from any goroutine while another is blocked in Exec.
func (c *Conn) Cancel() error {
	c.wmu.Lock()
	err := c.stateErrLocked()
	c.wmu.Unlock()
	if err != nil {
		return err
	}
	nc, err := net.DialTimeout("tcp", c.conn.RemoteAddr().String(), cancelGrace)
	if err != nil {
		return fmt.Errorf("client: cancel: %w", err)
	}
	defer nc.Close()
	_ = nc.SetWriteDeadline(time.Now().Add(cancelGrace))
	if err := protocol.WriteFrame(bufio.NewWriterSize(nc, 16), protocol.EncodeCancel(c.key)); err != nil {
		return fmt.Errorf("client: cancel: %w", err)
	}
	return nil
}

// Stats requests the server's metrics snapshot (engine counters,
// histograms and connection-layer totals).
func (c *Conn) Stats() (obs.Snapshot, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	frame, err := c.exchange([]byte{protocol.MsgStats})
	if err != nil {
		return nil, err
	}
	if len(frame) == 0 || frame[0] != protocol.MsgStats {
		return nil, fmt.Errorf("client: unexpected reply to stats request")
	}
	snap, err := protocol.DecodeStats(frame[1:])
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	return snap, nil
}

// Close sends a quit and closes the connection. Idempotent: repeated
// calls return nil. Subsequent statements fail with ErrConnClosed.
func (c *Conn) Close() error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	if c.broken {
		return nil
	}
	_ = c.conn.SetWriteDeadline(time.Now().Add(time.Second))
	_ = protocol.WriteFrame(c.w, []byte{protocol.MsgQuit})
	return c.conn.Close()
}

// ServerError is an error reported by the server (a SQL error, a
// cancelled or timed-out statement, or an admission-control rejection —
// not a transport failure); the connection remains usable. Use
// errors.Is against ErrCancelled, ErrTimeout, ErrBusy and ErrShutdown
// to classify it.
type ServerError struct {
	Message string
	Code    byte // protocol.ErrCode*
}

func (e *ServerError) Error() string { return e.Message }

// Sentinel targets for classifying a *ServerError with errors.Is.
var (
	// ErrCancelled matches a statement aborted by MsgCancel.
	ErrCancelled = errors.New("client: statement cancelled")
	// ErrTimeout matches a statement aborted by the statement timeout.
	ErrTimeout = errors.New("client: statement timeout exceeded")
	// ErrBusy matches admission-control rejections (connection limit or
	// load shedding) and writes to a table another session's open
	// transaction holds; the statement never ran, so retrying is safe.
	ErrBusy = errors.New("client: server busy")
	// ErrShutdown matches statements rejected because the server is
	// draining.
	ErrShutdown = errors.New("client: server shutting down")
	// ErrReadOnly matches writes rejected by a read-only replica; send
	// them to the primary instead.
	ErrReadOnly = errors.New("client: server is a read-only replica")
	// ErrResource matches statements rejected or aborted by resource
	// governance: shed under memory pressure, over the statement memory
	// budget, or a result too large for one response frame. No change
	// was applied, so retrying is safe.
	ErrResource = errors.New("client: resource limit exceeded")
	// ErrInternal matches a statement whose execution panicked in the
	// server: a server defect. No change was applied and the connection
	// stays usable.
	ErrInternal = errors.New("client: server internal error")
)

// Is classifies the error code against the sentinel targets.
func (e *ServerError) Is(target error) bool {
	switch target {
	case ErrCancelled:
		return e.Code == protocol.ErrCodeCancelled
	case ErrTimeout:
		return e.Code == protocol.ErrCodeTimeout
	case ErrBusy:
		return e.Code == protocol.ErrCodeBusy
	case ErrShutdown:
		return e.Code == protocol.ErrCodeShutdown
	case ErrReadOnly:
		return e.Code == protocol.ErrCodeReadOnly
	case ErrResource:
		return e.Code == protocol.ErrCodeResource
	case ErrInternal:
		return e.Code == protocol.ErrCodeInternal
	}
	return false
}
