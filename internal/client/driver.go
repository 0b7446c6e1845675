package client

import (
	"context"
	"database/sql"
	"database/sql/driver"
	"fmt"
	"io"
	"sync"

	"tip/internal/blade"
	"tip/internal/core"
	"tip/internal/exec"
	"tip/internal/types"
)

// database/sql driver. Register once with the "tip" name; the DSN is the
// server address ("host:port"). Positional '?' placeholders are not
// supported — TIP uses named parameters — so statements take either no
// arguments or sql.Named arguments. TIP-typed result values are mapped to
// their literal text (the standard interface cannot carry UDT objects);
// use the native Conn for full type mapping. Redial is the pool's job: a
// connection whose transport broke reports itself invalid, so database/sql
// drops it and dials afresh.

// Driver implements driver.Driver over the TIP wire protocol.
type Driver struct{}

var registerOnce sync.Once

// RegisterDriver installs the driver under the name "tip". Safe to call
// multiple times.
func RegisterDriver() {
	registerOnce.Do(func() { sql.Register("tip", &Driver{}) })
}

// Open dials the server at the DSN address with a fresh TIP registry.
func (d *Driver) Open(dsn string) (driver.Conn, error) {
	reg := blade.NewRegistry()
	if _, err := core.Register(reg); err != nil {
		return nil, err
	}
	c, err := Connect(dsn, reg)
	if err != nil {
		return nil, err
	}
	return &sqlConn{c: c}, nil
}

type sqlConn struct{ c *Conn }

func (s *sqlConn) Prepare(query string) (driver.Stmt, error) {
	return &sqlStmt{c: s.c, query: query}, nil
}

func (s *sqlConn) Close() error { return s.c.Close() }

// IsValid implements driver.Validator: a broken or closed connection is
// not put back in the pool.
func (s *sqlConn) IsValid() bool {
	s.c.wmu.Lock()
	defer s.c.wmu.Unlock()
	return s.c.stateErrLocked() == nil
}

func (s *sqlConn) Begin() (driver.Tx, error) {
	if _, err := s.c.Exec("BEGIN", nil); err != nil {
		return nil, badConn(err)
	}
	return &sqlTx{c: s.c}, nil
}

type sqlTx struct{ c *Conn }

func (t *sqlTx) Commit() error {
	_, err := t.c.Exec("COMMIT", nil)
	return err
}

func (t *sqlTx) Rollback() error {
	_, err := t.c.Exec("ROLLBACK", nil)
	return err
}

type sqlStmt struct {
	c     *Conn
	query string
}

func (s *sqlStmt) Close() error { return nil }

// NumInput returns -1: the driver cannot count named placeholders without
// parsing, so the sql package skips the arity check.
func (s *sqlStmt) NumInput() int { return -1 }

func (s *sqlStmt) run(ctx context.Context, args []driver.NamedValue) (*exec.Result, error) {
	params, err := namedParams(args)
	if err != nil {
		return nil, err
	}
	res, err := s.c.ExecContext(ctx, s.query, params)
	return res, badConn(err)
}

// badConn maps a statement the Conn refused before sending any byte (the
// bare ErrConnClosed) to driver.ErrBadConn, so database/sql retries it on
// another connection. A transport failure mid-statement keeps its own
// error: the statement's fate is unknown, so it must not be re-run.
func badConn(err error) error {
	if err == ErrConnClosed {
		return driver.ErrBadConn
	}
	return err
}

// ExecContext implements driver.StmtExecContext, the path database/sql
// uses for sql.Named arguments. The context is forwarded to the server:
// cancelling it aborts the statement with a MsgCancel frame.
func (s *sqlStmt) ExecContext(ctx context.Context, args []driver.NamedValue) (driver.Result, error) {
	res, err := s.run(ctx, args)
	if err != nil {
		return nil, err
	}
	return driver.RowsAffected(res.Affected), nil
}

// QueryContext implements driver.StmtQueryContext; the context is
// forwarded like ExecContext's.
func (s *sqlStmt) QueryContext(ctx context.Context, args []driver.NamedValue) (driver.Rows, error) {
	res, err := s.run(ctx, args)
	if err != nil {
		return nil, err
	}
	return &sqlRows{res: res}, nil
}

// Exec implements the legacy interface for no-argument statements.
func (s *sqlStmt) Exec(args []driver.Value) (driver.Result, error) {
	return s.ExecContext(context.Background(), positional(args))
}

// Query implements the legacy interface for no-argument statements.
func (s *sqlStmt) Query(args []driver.Value) (driver.Rows, error) {
	return s.QueryContext(context.Background(), positional(args))
}

// CheckNamedValue accepts the Go types goToValue can map, letting
// database/sql pass named parameters through without its default
// conversions.
func (s *sqlStmt) CheckNamedValue(nv *driver.NamedValue) error {
	_, err := goToValue(nv.Value)
	return err
}

func positional(args []driver.Value) []driver.NamedValue {
	out := make([]driver.NamedValue, len(args))
	for i, a := range args {
		out[i] = driver.NamedValue{Ordinal: i + 1, Value: a}
	}
	return out
}

func namedParams(args []driver.NamedValue) (map[string]types.Value, error) {
	if len(args) == 0 {
		return nil, nil
	}
	params := make(map[string]types.Value, len(args))
	for _, a := range args {
		if a.Name == "" {
			return nil, fmt.Errorf("client: TIP uses named parameters; use sql.Named(...)")
		}
		v, err := goToValue(a.Value)
		if err != nil {
			return nil, err
		}
		params[a.Name] = v
	}
	return params, nil
}

func goToValue(v any) (types.Value, error) {
	switch x := v.(type) {
	case nil:
		return types.NewNull(types.TNull), nil
	case int64:
		return types.NewInt(x), nil
	case int:
		return types.NewInt(int64(x)), nil
	case int32:
		return types.NewInt(int64(x)), nil
	case float64:
		return types.NewFloat(x), nil
	case bool:
		return types.NewBool(x), nil
	case string:
		return types.NewString(x), nil
	case []byte:
		return types.NewString(string(x)), nil
	default:
		return types.Value{}, fmt.Errorf("client: unsupported parameter type %T", v)
	}
}

type sqlRows struct {
	res *exec.Result
	pos int
}

func (r *sqlRows) Columns() []string { return r.res.Cols }
func (r *sqlRows) Close() error      { return nil }

func (r *sqlRows) Next(dest []driver.Value) error {
	if r.pos >= len(r.res.Rows) {
		return io.EOF
	}
	row := r.res.Rows[r.pos]
	r.pos++
	for i, v := range row {
		dest[i] = valueToGo(v)
	}
	return nil
}

// valueToGo maps engine values onto driver.Value types: built-ins to
// their native Go forms, UDTs to their literal text.
func valueToGo(v types.Value) driver.Value {
	if v.Null {
		return nil
	}
	switch v.T.Kind {
	case types.KindInt:
		return v.Int()
	case types.KindFloat:
		return v.Float()
	case types.KindBool:
		return v.Bool()
	case types.KindString:
		return v.Str()
	default:
		return v.Format()
	}
}
