// Package txn provides the engine's transaction bookkeeping: transaction
// identity and the transaction time that interprets the special symbol
// NOW.
//
// The TIP semantics of NOW (after Clifford et al.) fix the interpretation
// of NOW-relative values to the *transaction* time: every statement within
// one transaction sees the same NOW, assigned when the transaction begins.
// What a transaction wrote lives in the engine's private table versions
// until COMMIT publishes them, so there is nothing here to undo.
package txn

import (
	"sync/atomic"
	"time"

	"tip/internal/temporal"
)

// Txn is one open transaction.
type Txn struct {
	ID int64
	// Time is the transaction time: the value of NOW for every statement
	// in this transaction (unless the session overrides NOW).
	Time temporal.Chronon
}

// Manager allocates transactions. The zero Manager uses the wall clock;
// tests may pin the clock with SetClock. The clock is stored atomically
// so SetClock may race with concurrent sessions reading Now.
type Manager struct {
	nextID atomic.Int64
	clock  atomic.Pointer[func() temporal.Chronon]
}

// NewManager returns a manager reading the wall clock.
func NewManager() *Manager {
	m := &Manager{}
	m.SetClock(func() temporal.Chronon { return temporal.ChrononOf(time.Now()) })
	return m
}

// SetClock replaces the clock, for deterministic tests and the browser's
// what-if evaluation. Safe to call while other goroutines read Now.
func (m *Manager) SetClock(clock func() temporal.Chronon) { m.clock.Store(&clock) }

// Now reads the manager's clock.
func (m *Manager) Now() temporal.Chronon {
	if c := m.clock.Load(); c != nil {
		return (*c)()
	}
	return temporal.ChrononOf(time.Now())
}

// Begin opens a transaction stamped with the current clock reading.
func (m *Manager) Begin() *Txn {
	return &Txn{ID: m.nextID.Add(1), Time: m.Now()}
}
