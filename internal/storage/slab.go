// Package storage implements the engine's row store. A table's rows
// live in a chain of immutable slab versions: each writer builds a new
// Version — published at once, or kept private to a transaction until
// COMMIT — and readers pin one Version per statement, never blocking on
// (or being blocked by) writers. The Go garbage collector reclaims
// superseded and dropped versions once no snapshot holds them: versions
// point at no other version, only at shared chunks.
//
// Copy-on-write is per chunk of chunkSize row slots: a writer that
// touches a slot of a published chunk copies just that chunk, while
// appends fill the shared tail chunk in place — slots at or beyond a
// published version's slot bound are invisible to every reader of that
// version, so in-place tail writes race with nothing.
//
// Row ids are slot positions and stay stable across versions; the log
// and snapshots name rows by id, and replay places rows at their ids
// (Put). Deletes queue the slot on a FIFO free list stamped with the
// deleting version's sequence (see Builder.Insert).
package storage

import (
	"fmt"

	"tip/internal/types"
)

// Row is one stored tuple. Rows are immutable once stored: writers
// replace whole rows rather than mutating them in place, so a row
// reached through any version may be read without synchronisation.
type Row = []types.Value

// chunkSize is the number of row slots per slab chunk — the
// copy-on-write grain.
const chunkSize = 256

type chunk struct {
	rows [chunkSize]Row
	live [chunkSize]bool
}

// freeSlot records a tombstoned slot and the sequence of the version
// that freed it.
type freeSlot struct {
	id  int
	seq uint64
}

// Version is one immutable snapshot of a table's rows. All methods are
// safe for concurrent use by any number of readers while writers build
// successor versions.
type Version struct {
	seq    uint64
	chunks []*chunk
	slots  int // row slots visible in this version
	n      int // live rows
	free   []freeSlot
}

// NewVersion returns an empty version with sequence zero.
func NewVersion() *Version { return &Version{} }

// Seq returns the sequence of the writer that published this version.
func (v *Version) Seq() uint64 { return v.seq }

// Len returns the number of live rows.
func (v *Version) Len() int { return v.n }

// Capacity returns the number of row slots including tombstones.
func (v *Version) Capacity() int { return v.slots }

// Get returns the row with the given id.
func (v *Version) Get(id int) (Row, bool) {
	if id < 0 || id >= v.slots {
		return nil, false
	}
	c := v.chunks[id/chunkSize]
	if !c.live[id%chunkSize] {
		return nil, false
	}
	return c.rows[id%chunkSize], true
}

// Scan visits every live row in id order until yield returns false.
func (v *Version) Scan(yield func(id int, r Row) bool) {
	for ci, c := range v.chunks {
		base := ci * chunkSize
		end := v.slots - base
		if end > chunkSize {
			end = chunkSize
		}
		for off := 0; off < end; off++ {
			if c.live[off] && !yield(base+off, c.rows[off]) {
				return
			}
		}
	}
}

// Builder mutates a copy-on-write successor of a base version. A
// builder must only be used by the one writer goroutine that holds the
// table's write lock; Commit publishes the new version, and dropping a
// builder without Commit discards every change (published chunks were
// never mutated in visible slots).
type Builder struct {
	base    *Version
	seq     uint64
	horizon uint64
	chunks  []*chunk
	shared  bool   // chunks aliases base.chunks' backing array
	owned   []bool // when !shared: chunks[i] is builder-local and freely mutable
	slots   int
	n       int
	// free is the free list, oldest first. It shares base.free's
	// backing array, and appends may write past base.free's length:
	// safe, because a table's builders start from its newest version,
	// one at a time.
	free []freeSlot
}

// NewBuilder starts a successor of v with the given version sequence.
// Free slots stamped before horizon may be reused. The engine passes
// seq as the horizon (exec's TableVersion.NewWriter): a reader fetches
// rows from the version it pinned, and each version carries its own
// indexes, so a slot an earlier version freed is reused at once. The
// parameter stays because the benchmark's slab kernel calls NewBuilder
// the same way; it can go with that kernel.
//
// The builder starts out aliasing v's chunk-pointer slice rather than
// copying it — a pure-append statement (the INSERT hot path) then costs
// O(1) instead of O(table size). Appending a tail chunk may write the
// shared backing array past v's length, which no reader of v (or of any
// older version sharing the backing) ever indexes; replacing a chunk at
// an index a published version CAN see first privatizes the slice
// (see mutable).
func (v *Version) NewBuilder(seq, horizon uint64) *Builder {
	return &Builder{
		base:    v,
		seq:     seq,
		horizon: horizon,
		chunks:  v.chunks,
		shared:  true,
		slots:   v.slots,
		n:       v.n,
		free:    v.free,
	}
}

// privatize unshares the chunk-pointer slice so entries below the
// published bound may be replaced. Tail chunks this builder already
// appended are builder-local and stay freely mutable.
func (b *Builder) privatize() {
	chunks := append([]*chunk(nil), b.chunks...)
	owned := make([]bool, len(chunks))
	for i := len(b.base.chunks); i < len(chunks); i++ {
		owned[i] = true
	}
	b.chunks, b.owned, b.shared = chunks, owned, false
}

// mutable returns chunk ci as a builder-local chunk, copying a shared
// published chunk on first touch. ci == len(chunks) allocates the next
// tail chunk.
func (b *Builder) mutable(ci int) *chunk {
	if ci == len(b.chunks) {
		c := &chunk{}
		b.chunks = append(b.chunks, c)
		if !b.shared {
			b.owned = append(b.owned, true)
		}
		return c
	}
	if b.shared {
		if ci >= len(b.base.chunks) {
			// A tail chunk this builder appended: already builder-local.
			return b.chunks[ci]
		}
		b.privatize()
	}
	if !b.owned[ci] {
		c := *b.chunks[ci]
		b.chunks[ci] = &c
		b.owned[ci] = true
	}
	return b.chunks[ci]
}

// Get returns a row of the builder's working state.
func (b *Builder) Get(id int) (Row, bool) {
	if id < 0 || id >= b.slots {
		return nil, false
	}
	c := b.chunks[id/chunkSize]
	if !c.live[id%chunkSize] {
		return nil, false
	}
	return c.rows[id%chunkSize], true
}

// Insert stores a row and returns its id, reusing the oldest tombstoned
// slot once its free stamp has fallen behind the horizon. A reader
// fetches rows from the version it pinned, so a reused slot never shows
// it a wrong row.
func (b *Builder) Insert(r Row) int {
	if len(b.free) > 0 && b.free[0].seq < b.horizon {
		id := b.free[0].id
		b.free = b.free[1:]
		b.place(id, r)
		return id
	}
	return b.appendSlot(r)
}

// appendSlot stores r in a new slot past the last one.
func (b *Builder) appendSlot(r Row) int {
	id := b.slots
	c := b.tailChunk(id / chunkSize)
	c.rows[id%chunkSize], c.live[id%chunkSize] = r, true
	b.slots = id + 1
	b.n++
	return id
}

// tailChunk returns chunk ci for writing slots at or beyond the slot
// bound. Those slots are invisible to every reader of a published
// version, so a shared tail chunk is written in place.
func (b *Builder) tailChunk(ci int) *chunk {
	if ci < len(b.chunks) {
		return b.chunks[ci]
	}
	return b.mutable(ci)
}

// place stores r in the dead slot id, below the slot bound.
func (b *Builder) place(id int, r Row) {
	c := b.mutable(id / chunkSize)
	c.rows[id%chunkSize] = r
	c.live[id%chunkSize] = true
	b.n++
}

// Put stores r at row id, whatever the slot holds — replay's way to
// place a row where the log says it was written. It returns the row it
// replaced, if the slot was live. A dead slot leaves the free list; an
// id past the last slot extends the table, queueing the slots it skips
// as free.
func (b *Builder) Put(id int, r Row) (old Row, ok bool) {
	if id < b.slots {
		ci, off := id/chunkSize, id%chunkSize
		if b.chunks[ci].live[off] {
			c := b.mutable(ci)
			old, c.rows[off] = c.rows[off], r
			return old, true
		}
		b.unfree(id)
		b.place(id, r)
		return nil, false
	}
	for ; b.slots < id; b.slots++ {
		c, off := b.tailChunk(b.slots/chunkSize), b.slots%chunkSize
		c.rows[off], c.live[off] = nil, false
		b.free = append(b.free, freeSlot{id: b.slots, seq: b.seq})
	}
	b.appendSlot(r)
	return nil, false
}

// unfree drops a dead slot's entry from the free list. Replay reuses
// slots in the order the live database did, so the entry is usually at
// the head; elsewhere the list is copied without it.
func (b *Builder) unfree(id int) {
	if len(b.free) > 0 && b.free[0].id == id {
		b.free = b.free[1:]
		return
	}
	for i, fs := range b.free {
		if fs.id == id {
			b.free = append(b.free[:i:i], b.free[i+1:]...)
			return
		}
	}
}

// Delete tombstones a row, returning its former content and queueing
// the slot for reuse.
func (b *Builder) Delete(id int) (Row, error) {
	if id < 0 || id >= b.slots {
		return nil, fmt.Errorf("storage: no row %d", id)
	}
	ci, off := id/chunkSize, id%chunkSize
	if !b.chunks[ci].live[off] {
		return nil, fmt.Errorf("storage: no row %d", id)
	}
	c := b.mutable(ci)
	old := c.rows[off]
	c.rows[off] = nil
	c.live[off] = false
	b.n--
	b.free = append(b.free, freeSlot{id: id, seq: b.seq})
	return old, nil
}

// Update replaces a row's content, returning the former content.
func (b *Builder) Update(id int, r Row) (Row, error) {
	if id < 0 || id >= b.slots {
		return nil, fmt.Errorf("storage: no row %d", id)
	}
	ci, off := id/chunkSize, id%chunkSize
	if !b.chunks[ci].live[off] {
		return nil, fmt.Errorf("storage: no row %d", id)
	}
	c := b.mutable(ci)
	old := c.rows[off]
	c.rows[off] = r
	return old, nil
}

// Commit publishes the builder's state as a new immutable version.
// The engine hands it to lock-free readers in the state its commit step
// stores.
func (b *Builder) Commit() *Version {
	return &Version{seq: b.seq, chunks: b.chunks, slots: b.slots, n: b.n, free: b.free}
}
