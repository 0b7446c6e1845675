// Package server exposes a TIP-enabled database over TCP using the TIP
// wire protocol — the DBMS process of the paper's Figure 1. Each
// connection gets its own engine session, so transactions and SET NOW
// what-if overrides stay per-client.
//
// The server is hardened against slow, hostile and overloading peers:
//
//   - Every connection is one goroutine that reads a frame, runs it
//     and writes the reply. A cancel therefore arrives on a side
//     connection: a fresh connection whose first frame is
//     MsgCancel{key}, with the key from the session's MsgWelcome,
//     interrupts that session, even past the connection limit.
//   - A connection may idle forever, but once the first byte of a frame
//     arrives the rest must follow within the read timeout (slowloris
//     defense; a frame already whole in the buffer arms no deadline),
//     and the frame must fit the receive bound.
//   - Admission control: connections beyond the connection limit and
//     queries beyond the in-flight watermark are answered with a typed
//     "busy" error instead of queueing without bound.
//   - Shutdown stops accepting, lets in-flight statements finish within
//     a drain deadline, then interrupts whatever is left.
package server

import (
	"bufio"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"tip/internal/engine"
	"tip/internal/exec"
	"tip/internal/obs"
	"tip/internal/protocol"
)

// DefaultReadTimeout bounds how long a started frame may take to arrive.
const DefaultReadTimeout = 10 * time.Second

// memShedFrac is the global-memory-pressure watermark: while the
// engine-wide account (engine.Database.SetMemBudget) is above this
// fraction of its budget, new queries are shed with a typed resource
// error rather than admitted on top of the statements already holding
// the memory.
const memShedFrac = 0.9

// ReplSource is what a replication primary plugs into the server (see
// WithReplication); internal/repl.Primary implements it. The server
// keeps the interface structural so it never imports the repl package.
type ReplSource interface {
	// Snapshot streams a bootstrap snapshot through send: a status
	// report with the runID and the seq it reflects, then its frames.
	Snapshot(send func(payload []byte) error) error
	// Stream serves one subscriber until the connection dies or stop
	// closes: it sends protocol payloads through send (WAL frames,
	// status reports, or a terminal typed error), and consumes the
	// subscriber's own frames (position reports) from incoming, which
	// closes when the peer disconnects.
	Stream(req ReplStreamRequest, send func(payload []byte) error,
		incoming <-chan []byte, stop <-chan struct{}) error
}

// ReplStreamRequest is a decoded MsgSubscribe.
type ReplStreamRequest struct {
	Name    string // subscriber's advertised name (logs, lag attribution)
	FromSeq uint64 // stream frames with seq > FromSeq
	RunID   string // primary runID the subscriber last applied under ("" = fresh)
}

// Server serves one database over a listener.
type Server struct {
	db   *engine.Database
	ln   net.Listener
	logf func(format string, args ...any)

	stmtTimeout time.Duration // per-statement cap for every session (0 = none)
	stmtMem     int64         // per-statement memory budget for every session (0 = none)
	maxConns    int           // connection limit (0 = unlimited)
	maxInflight int64         // executing-statement watermark (0 = unlimited)
	readTimeout time.Duration // per-frame read deadline
	maxFrame    uint64        // receive-path frame bound
	maxResult   uint64        // send-path bound on one result frame

	repl ReplSource // non-nil on a replication primary

	mu       sync.Mutex
	conns    map[net.Conn]*engine.Session
	keys     map[uint64]*engine.Session // cancel key → session
	closed   atomic.Bool                // set by Shutdown, before drainCh closes
	drainCh  chan struct{}              // closed by Shutdown: finish the current frame, then exit
	wg       sync.WaitGroup
	nConns   atomic.Int64 // live connections (admission control)
	inflight atomic.Int64 // executing statements across all connections

	// Connection-layer counters, registered in the engine's metrics
	// registry so MsgStats and the HTTP endpoint report them alongside
	// the engine's own.
	cConns     *obs.Counter // accepted connections that completed handshake
	cRejected  *obs.Counter // rejected handshakes
	cQueries   *obs.Counter // MsgQuery frames served
	cErrors    *obs.Counter // queries answered with MsgError
	cShed      *obs.Counter // work rejected by admission control
	cMemShed   *obs.Counter // queries shed under global memory pressure
	cCancels   *obs.Counter // cancel requests that matched a session
	cSlowReads *obs.Counter // frames that missed the read deadline
}

// Option configures a Server.
type Option func(*Server)

// WithLogger directs server logs to logf; the default discards them.
func WithLogger(logf func(format string, args ...any)) Option {
	return func(s *Server) { s.logf = logf }
}

// WithStmtTimeout caps every statement's execution time. Sessions can
// lower or raise their own cap with SET STATEMENT_TIMEOUT; DEFAULT
// reverts to this value. Zero (the default) means no cap.
func WithStmtTimeout(d time.Duration) Option {
	return func(s *Server) { s.stmtTimeout = d }
}

// WithStmtMem caps every statement's buffered intermediate state in
// bytes. Sessions can lower or raise their own cap with SET
// STATEMENT_MEMORY; DEFAULT reverts to this value. Zero (the default)
// means no cap.
func WithStmtMem(n int64) Option {
	return func(s *Server) { s.stmtMem = n }
}

// WithMaxResult bounds one result frame's encoded size; a query whose
// result would exceed it is answered with a typed resource error
// instead (the send-path mirror of the receive frame bound). Zero means
// the protocol default.
func WithMaxResult(n uint64) Option {
	return func(s *Server) {
		if n > 0 {
			s.maxResult = n
		}
	}
}

// WithMaxConns limits concurrent connections; connections beyond the
// limit are answered with a "server busy" error and closed. Zero (the
// default) means unlimited.
func WithMaxConns(n int) Option {
	return func(s *Server) { s.maxConns = n }
}

// WithMaxInflight sets the load-shedding watermark: when this many
// statements are already executing, further queries are answered with a
// "server busy" error instead of queueing. The connection stays open.
// Zero (the default) means unlimited.
func WithMaxInflight(n int) Option {
	return func(s *Server) { s.maxInflight = int64(n) }
}

// WithReadTimeout bounds how long a frame may take to arrive once its
// first byte has been read (a connection may idle indefinitely between
// frames). Zero disables the bound; the default is DefaultReadTimeout.
func WithReadTimeout(d time.Duration) Option {
	return func(s *Server) { s.readTimeout = d }
}

// WithReplication makes this server a replication primary: MsgSubscribe
// turns a connection into a WAL stream and MsgSnapshot serves bootstrap
// snapshots, both through src.
func WithReplication(src ReplSource) Option {
	return func(s *Server) { s.repl = src }
}

// Listen starts a server on addr (e.g. "127.0.0.1:5432" or ":0").
func Listen(db *engine.Database, addr string, opts ...Option) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	m := db.Metrics()
	s := &Server{
		db:          db,
		ln:          ln,
		logf:        func(string, ...any) {},
		readTimeout: DefaultReadTimeout,
		maxFrame:    protocol.MaxFrame,
		maxResult:   protocol.MaxFrame,
		conns:       make(map[net.Conn]*engine.Session),
		keys:        make(map[uint64]*engine.Session),
		drainCh:     make(chan struct{}),
		cConns:      m.Counter("server.connections"),
		cRejected:   m.Counter("server.handshake.rejected"),
		cQueries:    m.Counter("server.queries"),
		cErrors:     m.Counter("server.errors"),
		cShed:       m.Counter("server.shed"),
		cMemShed:    m.Counter("server.shed.memory"),
		cCancels:    m.Counter("server.cancels"),
		cSlowReads:  m.Counter("conn.slow_reads"),
	}
	for _, o := range opts {
		o(s)
	}
	m.RegisterFunc("server.inflight", func() float64 { return float64(s.inflight.Load()) })
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listener's address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the server immediately: in-flight statements are
// interrupted and every connection is closed. Equivalent to
// Shutdown(0).
func (s *Server) Close() error { return s.Shutdown(0) }

// Shutdown stops the server gracefully: the listener closes at once (no
// new connections), idle connections are released, and in-flight
// statements get up to drain to finish and deliver their results. Past
// the deadline, remaining statements are interrupted and their
// connections closed. Queries arriving on live connections during the
// drain are answered with a "shutting down" error.
func (s *Server) Shutdown(drain time.Duration) error {
	s.mu.Lock()
	if s.closed.Swap(true) {
		s.mu.Unlock()
		return nil
	}
	err := s.ln.Close()
	close(s.drainCh)
	// Wake connections blocked on their next frame; busy ones leave after replying.
	for c := range s.conns {
		_ = c.SetReadDeadline(time.Unix(1, 0))
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	if drain > 0 {
		timer := time.NewTimer(drain)
		defer timer.Stop()
		select {
		case <-done:
			return err
		case <-timer.C:
		}
	}
	// Past the drain deadline (or an immediate Close): interrupt every
	// in-flight statement and tear the connections down.
	s.mu.Lock()
	for c, sess := range s.conns {
		sess.Interrupt()
		_ = c.Close()
	}
	s.mu.Unlock()
	<-done
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		admitted := true
		if n := s.nConns.Add(1); s.maxConns > 0 && n > int64(s.maxConns) {
			s.nConns.Add(-1)
			admitted = false
		}
		s.wg.Add(1)
		go s.serveConn(conn, admitted)
	}
}

// readFrame reads one frame of at most limit bytes, letting the
// connection idle indefinitely but bounding the time from first byte to
// complete frame. A frame already whole in r leaves the deadline alone.
func (s *Server) readFrame(conn net.Conn, r *bufio.Reader, limit uint64) ([]byte, error) {
	if _, err := r.Peek(1); err != nil {
		return nil, err
	}
	if s.readTimeout > 0 && !protocol.FrameBuffered(r) {
		_ = conn.SetReadDeadline(time.Now().Add(s.readTimeout))
		defer conn.SetReadDeadline(time.Time{})
	}
	frame, err := protocol.ReadFrameLimit(r, limit)
	if err != nil && errors.Is(err, os.ErrDeadlineExceeded) && !s.closed.Load() {
		s.cSlowReads.Inc()
	}
	return frame, err
}

// serveConn serves one connection on one goroutine: it reads a frame,
// runs it and writes the reply. A connection past the connection limit
// (admitted false) is served only if its first frame is a cancel
// request; otherwise it is answered with a typed busy error, so the
// client can back off rather than be silently dropped.
func (s *Server) serveConn(conn net.Conn, admitted bool) {
	defer s.wg.Done()
	if admitted {
		defer s.nConns.Add(-1)
	}
	sess := s.db.NewSession()
	// Roll back a transaction the client abandoned, which drops its
	// private table versions and releases its table locks.
	defer sess.Close()
	sess.SetDefaultStmtTimeout(s.stmtTimeout)
	sess.SetDefaultStmtMem(s.stmtMem)
	// crypto/rand cannot fail; a 64-bit key collides as rarely as guessed.
	var key uint64
	_ = binary.Read(rand.Reader, binary.LittleEndian, &key)
	s.mu.Lock()
	if s.closed.Load() {
		s.mu.Unlock()
		_ = conn.Close()
		return
	}
	s.conns[conn], s.keys[key] = sess, sess
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		delete(s.keys, key)
		s.mu.Unlock()
		_ = conn.Close()
	}()
	r := bufio.NewReader(conn)
	w := bufio.NewWriter(conn)

	// The first frame is a hello or a cancel request; a connection past
	// the limit gets 5 s to start one cancel-sized frame.
	limit := s.maxFrame
	if !admitted {
		_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
		limit = protocol.CancelLen
	}
	frame, err := s.readFrame(conn, r, limit)
	if err == nil && len(frame) > 0 && frame[0] == protocol.MsgCancel {
		target, err := protocol.DecodeKey(frame[1:])
		s.mu.Lock()
		if sess := s.keys[target]; err == nil && sess != nil {
			s.cCancels.Inc()
			sess.Interrupt()
		}
		s.mu.Unlock()
		return
	}
	if !admitted {
		s.cShed.Inc()
		_ = protocol.WriteFrame(w, protocol.EncodeErrorCode(protocol.ErrCodeBusy, "server busy: connection limit reached"))
		return
	}
	if err != nil || len(frame) == 0 || frame[0] != protocol.MsgHello {
		s.cRejected.Inc()
		s.logf("server: bad handshake from %s", conn.RemoteAddr())
		return
	}
	client, err := protocol.DecodeString(frame[1:])
	if err != nil {
		s.cRejected.Inc()
		s.logf("server: bad handshake from %s: %v", conn.RemoteAddr(), err)
		return
	}
	s.cConns.Inc()
	s.logf("server: %s connected as %q", conn.RemoteAddr(), client)
	var connQueries, connErrors uint64
	defer func() {
		s.logf("server: %s (%q) disconnected after %d queries (%d errors)",
			conn.RemoteAddr(), client, connQueries, connErrors)
	}()
	if err := protocol.WriteFrame(w, protocol.EncodeWelcome(protocol.Version, key)); err != nil {
		return
	}

	// Between statements, a drain releases the connection.
	for !s.closed.Load() {
		frame, err := s.readFrame(conn, r, s.maxFrame)
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) && !s.closed.Load() {
				s.logf("server: read: %v", err)
			}
			return
		}
		if len(frame) == 0 {
			return
		}
		switch frame[0] {
		case protocol.MsgQuit:
			return
		case protocol.MsgStats:
			if err := protocol.WriteFrame(w, protocol.EncodeStats(s.db.Metrics().Snapshot())); err != nil {
				return
			}
		case protocol.MsgQuery:
			s.cQueries.Inc()
			connQueries++
			payload, fatal := s.runQuery(sess, frame[1:], &connErrors)
			if err := protocol.WriteFrameLimit(w, payload, s.maxResult); err != nil {
				if !errors.Is(err, protocol.ErrFrameTooLarge) {
					return
				}
				// The result outgrew the response bound: the statement
				// ran, but the reply is refused typed so the client can
				// narrow the query; the connection stays usable.
				s.cErrors.Inc()
				connErrors++
				if err := protocol.WriteFrame(w, protocol.EncodeErrorCode(
					protocol.ErrCodeResource, "server: "+err.Error())); err != nil {
					return
				}
			}
			if fatal {
				return
			}
		case protocol.MsgSnapshot, protocol.MsgSubscribe:
			if s.repl == nil {
				if err := protocol.WriteFrame(w, protocol.EncodeError("server: not a replication primary")); err != nil {
					return
				}
				continue
			}
			// Snapshot and log frames and status reports alike go out
			// within the bound the replica reads under.
			send := func(payload []byte) error { return protocol.WriteFrameLimit(w, payload, protocol.MaxFrame) }
			if frame[0] == protocol.MsgSnapshot {
				if err := s.repl.Snapshot(send); err != nil {
					s.logf("server: snapshot to %s: %v", conn.RemoteAddr(), err)
					return
				}
				continue
			}
			fromSeq, name, runID, err := protocol.DecodeSubscribe(frame[1:])
			if err != nil {
				_ = protocol.WriteFrame(w, protocol.EncodeError(err.Error()))
				return
			}
			s.logf("server: %s subscribed as %q from seq %d", conn.RemoteAddr(), name, fromSeq)
			// The connection is a WAL stream from here on: the repl
			// source owns it until the peer disconnects or we drain,
			// and a reader hands it the subscriber's position reports.
			reports, done := make(chan []byte), make(chan struct{})
			defer close(done)
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				defer close(reports)
				for {
					frame, err := s.readFrame(conn, r, s.maxFrame)
					if err != nil {
						return
					}
					select {
					case reports <- frame:
					case <-done:
						return
					}
				}
			}()
			err = s.repl.Stream(
				ReplStreamRequest{Name: name, FromSeq: fromSeq, RunID: runID},
				send, reports, s.drainCh)
			if err != nil && !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				s.logf("server: stream to %q: %v", name, err)
			}
			return
		default:
			if err := protocol.WriteFrame(w, protocol.EncodeError("unexpected message")); err != nil {
				return
			}
		}
	}
}

// runQuery executes one MsgQuery body and builds the reply payload.
// fatal reports that the connection should close after the reply is
// delivered (the server is draining).
func (s *Server) runQuery(sess *engine.Session, body []byte, connErrors *uint64) (payload []byte, fatal bool) {
	if s.closed.Load() {
		return protocol.EncodeErrorCode(protocol.ErrCodeShutdown, "server shutting down"), true
	}
	if s.db.MemAccount().Over(memShedFrac) {
		s.cShed.Inc()
		s.cMemShed.Inc()
		return protocol.EncodeErrorCode(protocol.ErrCodeResource,
			"server busy: memory pressure"), false
	}
	n := s.inflight.Add(1)
	defer s.inflight.Add(-1)
	if s.maxInflight > 0 && n > s.maxInflight {
		s.cShed.Inc()
		return protocol.EncodeErrorCode(protocol.ErrCodeBusy, "server busy: too many statements in flight"), false
	}
	var res *exec.Result
	q, err := protocol.DecodeQuery(s.db.Registry(), body)
	if err == nil {
		res, err = sess.Exec(q.SQL, q.Params)
	}
	if err != nil {
		s.cErrors.Inc()
		*connErrors++
		return encodeExecError(err), false
	}
	return protocol.EncodeResult(res), false
}

// encodeExecError maps an engine error to a MsgError payload, attaching
// the wire code for the failure classes clients react to.
func encodeExecError(err error) []byte {
	switch {
	case errors.Is(err, engine.ErrCancelled):
		return protocol.EncodeErrorCode(protocol.ErrCodeCancelled, err.Error())
	case errors.Is(err, engine.ErrTimeout):
		return protocol.EncodeErrorCode(protocol.ErrCodeTimeout, err.Error())
	case errors.Is(err, engine.ErrReadOnly):
		return protocol.EncodeErrorCode(protocol.ErrCodeReadOnly, err.Error())
	case errors.Is(err, engine.ErrMemory):
		return protocol.EncodeErrorCode(protocol.ErrCodeResource, err.Error())
	case errors.Is(err, engine.ErrBusy):
		return protocol.EncodeErrorCode(protocol.ErrCodeBusy, err.Error())
	}
	return protocol.EncodeError(err.Error())
}
