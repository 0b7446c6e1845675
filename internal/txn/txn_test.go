package txn

import (
	"sync"
	"testing"

	"tip/internal/temporal"
)

func TestManagerClockAndIDs(t *testing.T) {
	m := NewManager()
	fixed := temporal.MustDate(1999, 11, 12)
	m.SetClock(func() temporal.Chronon { return fixed })
	tx1 := m.Begin()
	tx2 := m.Begin()
	if tx1.ID == tx2.ID {
		t.Error("transaction ids must be unique")
	}
	if tx1.Time != fixed || tx2.Time != fixed {
		t.Error("transaction time should come from the clock")
	}
	if m.Now() != fixed {
		t.Error("Now should read the clock")
	}
}

// Regression: SetClock used to write a plain struct field, racing with
// sessions reading Now/Begin from other goroutines (caught by -race when
// the browser repinned NOW mid-query). The clock is now stored atomically.
func TestManagerClockConcurrent(t *testing.T) {
	m := NewManager()
	a := temporal.MustDate(1999, 1, 1)
	b := temporal.MustDate(2000, 1, 1)
	m.SetClock(func() temporal.Chronon { return a })
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := a
			if g%2 == 1 {
				c = b
			}
			for i := 0; i < 200; i++ {
				c := c
				m.SetClock(func() temporal.Chronon { return c })
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if now := m.Now(); now != a && now != b {
					t.Errorf("Now = %v, want one of the pinned clocks", now)
					return
				}
				if tx := m.Begin(); tx.Time != a && tx.Time != b {
					t.Errorf("Begin time = %v, want one of the pinned clocks", tx.Time)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// The zero Manager (no SetClock ever called) must still work: Now falls
// back to the wall clock.
func TestZeroManagerWallClock(t *testing.T) {
	var m Manager
	if m.Now() == 0 {
		t.Error("zero-manager Now should read the wall clock")
	}
	if tx := m.Begin(); tx.Time == 0 {
		t.Error("zero-manager Begin should stamp wall-clock time")
	}
}
