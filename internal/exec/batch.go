package exec

import (
	"strconv"

	"tip/internal/types"
)

// Batched execution support. Scans hand their rows on in batches of at
// most BatchRows (tableScan.read) and the last join level streams (see
// joinSources); hot loops work at batch granularity: row storage comes
// from a per-statement arena in chunks of up to BatchRows rows (one
// allocation per batch instead of one per row), grouping keys build
// into a reused byte buffer instead of per-row strings, scans alias the
// immutable MVCC slab rows instead of copying them, and the cancel token
// is polled once per BatchRows rows. The specialised
// coalesce operator (coalesce.go) is the columnar end of this: it
// extracts the period columns of a grouped temporal aggregation into
// flat (group, lo, hi) arrays and sort-merges them.

// BatchRows is the executor's batch size: the most rows a scan hands
// over at once, the arena chunk granularity and the number of row-loop
// iterations between cancel-token polls.
// Must be a power of two. It is exported so the engine's write paths
// poll at the same granularity as the executor's batch loops (the
// write-atomicity tests depend on one shared definition).
const BatchRows = 256

// rowArena hands out row backing storage in chunks of up to BatchRows
// rows so a statement's row loops allocate once per batch instead of
// once per row. Chunks are never recycled: rows handed out may escape
// into the statement's Result, so the arena only amortises allocation —
// handed out memory stays owned by whoever holds the row.
type rowArena struct {
	buf  []types.Value
	next int // values in the next chunk
}

// arenaFirstChunk is the size in values of a statement's first arena
// chunk. Chunks double from it up to BatchRows rows, so a statement that
// returns a handful of rows allocates, and leaves the GC to scan, a few
// kilobytes instead of a whole batch.
const arenaFirstChunk = 64

// alloc returns a zeroed row of the given width carved from the
// arena's current chunk (full capacity: appends to the row never bleed
// into its neighbours). It is a runtime method so each fresh chunk is
// charged to the statement's memory account (mem.go).
func (rt *runtime) alloc(w int) Row {
	a := &rt.arena
	if w <= 0 {
		return Row{}
	}
	if len(a.buf) < w {
		a.next = min(max(2*a.next, arenaFirstChunk), BatchRows*w)
		n := max(a.next, w)
		a.buf = make([]types.Value, n)
		rt.charge(int64(n) * valueSize)
	}
	r := a.buf[:w:w]
	a.buf = a.buf[w:]
	return r
}

// appendKey appends the grouping/DISTINCT key of vals to dst. It builds
// into a reusable buffer, so map probes via m[string(buf)] stay
// allocation-free on hits.
func (rt *runtime) appendKey(dst []byte, vals []types.Value) []byte {
	for _, v := range vals {
		dst = rt.appendValueKey(dst, v)
	}
	return dst
}

// appendValueKey appends one value's key: "N" for NULL, else the
// length-prefixed Value.Key (len:key). A length prefix starts with a
// digit, so no value's key can read as NULL.
func (rt *runtime) appendValueKey(dst []byte, v types.Value) []byte {
	if v.Null {
		return append(dst, 'N')
	}
	k := v.Key(rt.env.Now)
	dst = strconv.AppendInt(dst, int64(len(k)), 10)
	dst = append(dst, ':')
	return append(dst, k...)
}
