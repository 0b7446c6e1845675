package obs

import (
	"fmt"
	"time"
)

// Trace records the phase breakdown of one statement: parse (or
// statement-cache lookup), lock acquisition, execution and WAL append.
// A Trace is owned by a single session and reused across statements —
// no allocation per statement. Because every clock read costs tens of
// nanoseconds, traces are sampled: the engine begins a Trace on a fixed
// one-in-N share of statements, and on every statement while the
// slow-query log is enabled — nothing else changes the rate. Untraced
// statements still feed the pure-counter metrics.
type Trace struct {
	Active bool
	start  time.Time
	last   time.Time
	Parse  time.Duration
	Lock   time.Duration
	Exec   time.Duration
	WAL    time.Duration
}

// Begin arms the trace and stamps the start of the statement.
func (t *Trace) Begin() {
	now := time.Now()
	t.Active = true
	t.start, t.last = now, now
	t.Parse, t.Lock, t.Exec, t.WAL = 0, 0, 0, 0
}

// Mark closes the current phase into *d and opens the next one. Safe to
// call on an inactive trace (no clock read, no effect).
func (t *Trace) Mark(d *time.Duration) {
	if !t.Active {
		return
	}
	now := time.Now()
	*d = now.Sub(t.last)
	t.last = now
}

// End disarms the trace and returns the total elapsed time since Begin
// (through the last Mark'd phase boundary plus any trailing time).
func (t *Trace) End() time.Duration {
	t.Active = false
	return time.Since(t.start)
}

// Phases renders the recorded breakdown for the slow-query log.
func (t *Trace) Phases(total time.Duration) string {
	return fmt.Sprintf("total=%s parse=%s lock=%s exec=%s wal=%s",
		total, t.Parse, t.Lock, t.Exec, t.WAL)
}
