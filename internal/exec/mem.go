package exec

import (
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"

	"tip/internal/temporal"
	"tip/internal/types"
)

// Per-statement memory accounting. Scans and the last join level stream,
// but every other operator buffers its input (join inner sides, the
// coalesce operator's groups and interval arrays, DISTINCT sets, sort
// keys), so the natural failure mode of an oversized query is an OOM
// kill that takes the whole process — and every replica stream — down
// with it. The accountant turns that into a per-statement, typed error:
// each buffering site charges the bytes it retains, charges accumulate
// into a runtime-local counter with plain adds, and the counter is
// flushed to the statement's MemAccount on the same rationed schedule as
// the cancel poll (once per BatchRows loop iterations). A statement over
// its budget aborts with ErrMemory at the next poll — the same
// discipline, and therefore the same all-or-nothing write atomicity, as
// cooperative cancellation.
//
// Accounts nest: the session's statement account has the engine-wide
// account as its parent, so every charge also lands in the global
// account and the server can shed new statements under global pressure.
// Release is deliberately coarse: buffering operators keep their buffers
// alive until the statement completes, so the account is charge-only
// during execution and Reset returns the whole balance at the statement
// boundary. That makes the leak invariant structural: after Reset both
// the statement and global accounts must read exactly what they did
// before the statement started.

// ErrMemory reports a statement aborted because it exceeded its memory
// budget (SET STATEMENT_MEMORY / tipserver -stmt-mem), or because the
// engine-wide budget (-mem-budget) was exhausted.
var ErrMemory = errors.New("exec: statement memory budget exceeded")

// valueSize is the in-memory footprint of one types.Value (64 bytes on
// 64-bit platforms). String and UDT payloads are charged separately at
// the sites that retain them.
const valueSize = int64(unsafe.Sizeof(types.Value{}))

// rowHeaderSize is the footprint of one Row slice header in a []Row
// buffer (the row's backing array is charged where it is allocated).
const rowHeaderSize = int64(unsafe.Sizeof(Row{}))

// intervalSize is the footprint of one temporal.Interval in the
// coalesce operator's flat (group, lo, hi) arrays.
const intervalSize = int64(unsafe.Sizeof(temporal.Interval{}))

// mapEntryOverhead approximates the per-entry bookkeeping of a Go map
// (bucket slot, hash, padding) beyond the key and value payloads.
const mapEntryOverhead = 48

// memFlushBytes bounds how many locally-accumulated bytes a runtime may
// hold before force-flushing to the shared account. Keeps the global
// account honest within one batch-ish allocation even between rationed
// polls.
const memFlushBytes = 64 << 10

// MemAccount tracks bytes of intermediate state retained by a
// statement. The zero value is ready to use with no budget (unlimited)
// and no parent. Charges are atomic: one writer (the statement's
// goroutine) and any number of concurrent readers (metrics, the
// server's pressure check).
type MemAccount struct {
	used   atomic.Int64
	peak   atomic.Int64
	budget atomic.Int64 // 0 = unlimited
	parent *MemAccount
}

// SetParent nests this account inside p: every charge and release is
// mirrored there. Must be called before the account is used.
func (a *MemAccount) SetParent(p *MemAccount) { a.parent = p }

// SetBudget sets the byte budget; 0 means unlimited.
func (a *MemAccount) SetBudget(n int64) { a.budget.Store(n) }

// Budget returns the current byte budget (0 = unlimited).
func (a *MemAccount) Budget() int64 { return a.budget.Load() }

// Used returns the bytes currently charged.
func (a *MemAccount) Used() int64 { return a.used.Load() }

// Peak returns the high-water mark since the last Reset.
func (a *MemAccount) Peak() int64 { return a.peak.Load() }

// Charge adds n bytes (n may be negative for the rare explicit
// release). Charging never fails: budget violations surface at the next
// rationed poll via Err, keeping the hot path branch-light.
func (a *MemAccount) Charge(n int64) {
	for acc := a; acc != nil; acc = acc.parent {
		u := acc.used.Add(n)
		for {
			p := acc.peak.Load()
			if u <= p || acc.peak.CompareAndSwap(p, u) {
				break
			}
		}
	}
}

// Err returns ErrMemory if this account (or any ancestor) is over its
// budget, nil otherwise.
func (a *MemAccount) Err() error {
	for acc := a; acc != nil; acc = acc.parent {
		if b := acc.budget.Load(); b > 0 && acc.used.Load() > b {
			return ErrMemory
		}
	}
	return nil
}

// Over reports whether used exceeds the given threshold fraction of the
// budget (for pressure checks); always false with no budget.
func (a *MemAccount) Over(frac float64) bool {
	b := a.budget.Load()
	return b > 0 && float64(a.used.Load()) > frac*float64(b)
}

// Reset returns the account's whole balance to its parent and zeroes
// used and peak, re-arming it for the next statement. The budget is
// left as set.
func (a *MemAccount) Reset() {
	u := a.used.Swap(0)
	a.peak.Store(0)
	if a.parent != nil && u != 0 {
		a.parent.used.Add(-u)
	}
}

// MemErr polls the environment's memory account (nil-safe).
func (e *Env) MemErr() error {
	if e.Mem == nil {
		return nil
	}
	return e.Mem.Err()
}

// charge accumulates n bytes into the runtime-local counter (a plain
// add — this is the per-row hot path). The counter drains to the shared
// account at every rationed poll and whenever it crosses memFlushBytes.
func (rt *runtime) charge(n int64) {
	rt.memLocal += n
	if rt.memLocal >= memFlushBytes {
		rt.flushMem()
	}
}

// flushMem drains the local counter into the statement account.
func (rt *runtime) flushMem() {
	if rt.memLocal != 0 && rt.env.Mem != nil {
		rt.env.Mem.Charge(rt.memLocal)
		rt.memLocal = 0
	}
}

// pollMem is the rationed budget check: flush pending charges, then ask
// the account chain. Called from checkCancel's slow path and from grow.
func (rt *runtime) pollMem() error {
	rt.flushMem()
	return rt.env.MemErr()
}

// grow is the fallible charge for large upfront allocations (a scan's
// batch buffer, a join's gathered inner side, projection growth and the
// result slice, the coalesce
// scratch, interval and emission buffers, group emission): charge n
// bytes and immediately check the budget, so a single allocation far
// beyond the budget fails before the make, not a batch later.
func (rt *runtime) grow(n int64) error {
	rt.charge(n)
	return rt.pollMem()
}

// growRows makes room for n more elements in s, doubling as append
// would, and charges the new capacity at size bytes each before the make.
func growRows[T any](rt *runtime, s []T, n int, size int64) ([]T, error) {
	if n <= cap(s)-len(s) {
		return s, nil
	}
	newCap := max(2*cap(s), len(s)+n)
	if err := rt.grow(int64(newCap-cap(s)) * size); err != nil {
		return s, err
	}
	return slices.Grow(s, newCap-len(s)), nil
}

// maxPooledScratch bounds the working memory an operator hands back to
// its scratchPool: a larger scratch is left to the collector, so one
// giant statement does not pin its arrays for every later one.
const maxPooledScratch = 16 << 20

// scratchPool keeps one operator's working arrays between statements,
// so a repeated statement reuses them instead of allocating them again
// and leaving the collector to reclaim them. Each execution takes its
// own value and owns it until it puts it back; nothing in a pooled value
// may be part of a result. The arrays are charged to the statement that
// takes them (reuse), as fresh ones would be.
type scratchPool[T any] struct{ p sync.Pool }

// get returns a pooled value, or a zero one.
func (p *scratchPool[T]) get() *T {
	if x, ok := p.p.Get().(*T); ok {
		return x
	}
	return new(T)
}

// put hands x, holding the given bytes of arrays, to the next get,
// unless it holds more than maxPooledScratch.
func (p *scratchPool[T]) put(x *T, bytes int64) {
	if bytes <= maxPooledScratch {
		p.p.Put(x)
	}
}

// reuse returns s emptied with room for n elements, charging n elements
// of size bytes before it hands them out, as a fresh make of n is
// charged; s's own array serves when it is large enough.
func reuse[T any](rt *runtime, s []T, n int, size int64) ([]T, error) {
	if err := rt.grow(int64(n) * size); err != nil {
		return s[:0], err
	}
	return slices.Grow(s[:0], n), nil
}
