package engine

import (
	"fmt"
	"time"

	"tip/internal/exec"
	"tip/internal/sql/ast"
	"tip/internal/types"
)

// Statement cancellation and timeouts. Every session owns one
// exec.Token that its executor polls inside row loops. The token can be
// fired from any goroutine — the server's connection reader on a
// MsgCancel frame, or the statement-timeout timer armed for each
// statement of Exec and ExecScript alike (Session.runStatement) — and
// the statement then unwinds with a typed error (exec.ErrCancelled or
// exec.ErrTimeout) before any further rows are produced.
//
// Writes observe one hard rule: the token is checked before a statement
// applies its first change and never again between apply and WAL
// append, so a cancelled write either happens entirely or not at all —
// cancellation can never leave a statement applied in memory but
// missing from the log, nor half its rows applied.
//
// An Interrupt that lands between statements stays pending and aborts
// the session's next statement; the token is cleared when that
// statement finishes either way, so the session stays usable after a
// cancel (matching the wire contract: one MsgCancel aborts at most one
// statement).

// Typed cancellation errors, re-exported so callers above the engine
// (server, tools) can classify failures without importing exec.
var (
	ErrCancelled = exec.ErrCancelled
	ErrTimeout   = exec.ErrTimeout
)

// Interrupt aborts the session's in-flight statement (or, when idle,
// the next one) with exec.ErrCancelled. Safe to call from any
// goroutine; calling it on a session with no statement pending is
// harmless.
func (s *Session) Interrupt() { s.cancel.Cancel(exec.CauseCancelled) }

// SetDefaultStmtTimeout installs the server-level statement timeout:
// both the session's current cap and the value SET STATEMENT_TIMEOUT =
// DEFAULT reverts to. Zero means no cap. Call before serving
// statements; it is not synchronised with a running Exec.
func (s *Session) SetDefaultStmtTimeout(d time.Duration) {
	s.defaultTimeout = d
	s.stmtTimeout = d
}

// StmtTimeout reports the session's current statement timeout (0 = no
// cap).
func (s *Session) StmtTimeout() time.Duration { return s.stmtTimeout }

// setTimeout executes SET STATEMENT_TIMEOUT = <expr> | DEFAULT.
func (s *Session) setTimeout(st *ast.SetTimeout, params map[string]types.Value) (*exec.Result, error) {
	if st.Value == nil {
		s.stmtTimeout = s.defaultTimeout
		return &exec.Result{}, nil
	}
	v, err := exec.EvalConst(s.env(params), st.Value)
	if err != nil {
		return nil, err
	}
	d, err := timeoutValue(v)
	if err != nil {
		return nil, fmt.Errorf("engine: SET STATEMENT_TIMEOUT: %w", err)
	}
	s.stmtTimeout = d
	return &exec.Result{}, nil
}

// timeoutValue coerces a SET STATEMENT_TIMEOUT operand: an integer is
// milliseconds, a string is a Go duration ('250ms', '2s'); zero
// disables the cap.
func timeoutValue(v types.Value) (time.Duration, error) {
	if v.Null {
		return 0, fmt.Errorf("value cannot be NULL")
	}
	switch v.T.Kind {
	case types.KindInt:
		ms := v.Int()
		if ms < 0 {
			return 0, fmt.Errorf("negative timeout %d", ms)
		}
		return time.Duration(ms) * time.Millisecond, nil
	case types.KindString:
		d, err := time.ParseDuration(v.Str())
		if err != nil {
			return 0, err
		}
		if d < 0 {
			return 0, fmt.Errorf("negative timeout %s", d)
		}
		return d, nil
	}
	return 0, fmt.Errorf("expected milliseconds or a duration string, got %s", v.T)
}
