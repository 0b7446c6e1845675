package client

import (
	"context"
	"database/sql/driver"
	"errors"
	"testing"

	"tip/internal/types"
)

func TestGoToValue(t *testing.T) {
	tests := []struct {
		in   any
		want string
	}{
		{nil, "NULL"},
		{int64(7), "7"},
		{int(7), "7"},
		{int32(7), "7"},
		{3.5, "3.5"},
		{true, "TRUE"},
		{"hi", "hi"},
		{[]byte("bytes"), "bytes"},
	}
	for _, tt := range tests {
		v, err := goToValue(tt.in)
		if err != nil {
			t.Errorf("goToValue(%v): %v", tt.in, err)
			continue
		}
		if got := v.Format(); got != tt.want {
			t.Errorf("goToValue(%v) = %s, want %s", tt.in, got, tt.want)
		}
	}
	if _, err := goToValue(struct{}{}); err == nil {
		t.Error("unsupported type should fail")
	}
}

func TestValueToGo(t *testing.T) {
	tests := []struct {
		in   types.Value
		want driver.Value
	}{
		{types.NewInt(7), int64(7)},
		{types.NewFloat(2.5), 2.5},
		{types.NewBool(true), true},
		{types.NewString("x"), "x"},
		{types.NewNull(types.TInt), nil},
	}
	for _, tt := range tests {
		if got := valueToGo(tt.in); got != tt.want {
			t.Errorf("valueToGo(%v) = %v, want %v", tt.in.Format(), got, tt.want)
		}
	}
}

func TestNamedParams(t *testing.T) {
	params, err := namedParams(nil)
	if err != nil || params != nil {
		t.Errorf("empty params = %v, %v", params, err)
	}
	params, err = namedParams([]driver.NamedValue{{Name: "a", Value: int64(1)}})
	if err != nil || params["a"].Int() != 1 {
		t.Errorf("named = %v, %v", params, err)
	}
	// Positional arguments are rejected: TIP uses named parameters.
	if _, err := namedParams([]driver.NamedValue{{Ordinal: 1, Value: int64(1)}}); err == nil {
		t.Error("positional args should fail")
	}
}

func TestRegisterDriverIdempotent(t *testing.T) {
	RegisterDriver()
	RegisterDriver() // must not panic on double registration
}

// TestRefusedStatementIsBadConn: a connection that is already closed
// reports itself invalid, and refuses statements before sending a byte
// with driver.ErrBadConn, so database/sql retries them elsewhere.
func TestRefusedStatementIsBadConn(t *testing.T) {
	s := &sqlConn{c: &Conn{closed: true}}
	if s.IsValid() {
		t.Error("closed connection reports itself valid")
	}
	stmt, err := s.Prepare(`SELECT 1`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := stmt.(*sqlStmt).ExecContext(context.Background(), nil); !errors.Is(err, driver.ErrBadConn) {
		t.Errorf("refused statement: err = %v, want driver.ErrBadConn", err)
	}
	if _, err := s.Begin(); !errors.Is(err, driver.ErrBadConn) {
		t.Errorf("refused BEGIN: err = %v, want driver.ErrBadConn", err)
	}
}
