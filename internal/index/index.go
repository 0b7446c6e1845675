// Package index implements the engine's secondary indexes: a hash index
// for equality predicates and a period index for temporal overlap
// predicates (the in-engine counterpart of the temporal-index DataBlade of
// Bliujūtė et al. that the TIP paper cites as related work).
//
// The hash index returns the row ids posted under a key, which the
// executor re-checks against its filters. The period index answers
// overlap exactly: Overlapping marks precisely the rows one of whose
// periods, bound at the statement's NOW, shares a chronon with the probe
// — the answer of TIP's overlaps(Element, Element) — so the executor
// stops re-checking that predicate on every candidate. Search keeps the
// conservative contract (a superset at every NOW) for callers that have
// no NOW.
//
// Readers hold no table locks, so both indexes are immutable per-version
// values that travel with the row-slab versions, and each is built by a
// copy-on-write builder under the table's write lock, the way
// storage.Builder builds the rows:
//
//   - Hash is a small trie over the hash of the key. A HashBuilder
//     copies only the nodes and leaves on the path to a key it touches;
//     a key's id list grows in place past the length a published
//     version sees, and a removal copies it, once per builder. Lookup
//     hands out the version's own id list, so it neither locks nor
//     copies.
//
//   - Period keeps shared entry logs. Appends extend them in place (slots
//     beyond a published version's length are invisible to its readers);
//     removals mark the dropped entries in a per-version bitset over log
//     positions, copied once per builder, and a log half of whose
//     entries are dropped is compacted into a fresh one. The sorted
//     search form is built lazily once per version into fresh slices,
//     leaving dropped entries out, so the read path mutates nothing a
//     reader can see. Searches mark a caller-owned Hits bitset, which the
//     caller reads the ids from.
//
// Both builders rest on the slab's invariant: a table's builders start
// from its newest version, one at a time, so an in-place append never
// meets another builder's.
package index

import (
	"cmp"
	"hash/maphash"
	"math"
	"math/bits"
	"slices"
	"sort"
	"sync"

	"tip/internal/temporal"
)

// Hash is one immutable version of an equality index from value keys
// (types.Value.Key strings) to row ids. It is a trie over the key's
// hash whose last level heads chains of leaves, one leaf per key with
// its ids in insertion order. Lookup is safe for any number of
// concurrent readers.
type Hash hashRoot

type (
	hashRoot        = hashNode[hashNode[hashNode[hashLeaf]]]
	hashNode[K any] struct {
		gen  uint64 // the generation of the builder that made the node
		kids [fanout]*K
	}
)

type hashLeaf struct {
	gen   uint64
	owned bool // ids' backing array is private to the generation
	key   string
	ids   []int
	next  *hashLeaf // the next key of the chain
}

// Three 16-way levels give 4,096 chains. A builder copies one node per
// level, about 430 bytes in all; two 64-way levels copied about 1 KB.
const (
	levels  = 3
	fanBits = 4
	fanout  = 1 << fanBits
)

// seed hashes the keys of every Hash. Lookup's order does not depend on
// it: a key's ids keep the order they were added in.
var seed = maphash.MakeSeed()

// slots returns the child index of a key at each level.
func slots(key string) (s [levels]int) {
	x := maphash.String(seed, key)
	for i := range s {
		s[i] = int(x>>(64-(i+1)*fanBits)) & (fanout - 1)
	}
	return s
}

// Lookup returns the row ids indexed under key, in the order they were
// added. The slice belongs to the index and must not be modified; its
// capacity ends at its length, so an append copies.
func (h *Hash) Lookup(key string) []int {
	if h == nil {
		return nil
	}
	s := slots(key)
	if m := h.kids[s[0]]; m != nil {
		if n := m.kids[s[1]]; n != nil {
			for l := n.kids[s[2]]; l != nil; l = l.next {
				if l.key == key {
					return l.ids[:len(l.ids):len(l.ids)]
				}
			}
		}
	}
	return nil
}

// HashBuilder accumulates the next version of a hash index. Like
// storage.Builder it must only be used by the one writer holding the
// table's write lock, and a table's builders start from its newest
// version, one at a time. It copies the nodes and the chain prefix on
// the path to each key it touches, once per generation, and recognises
// its own copies by their generation. A key's id list grows in place
// past the length any published version sees, which is safe by that
// same rule; Remove copies the list, once per generation. Dropping the
// builder discards every change.
type HashBuilder struct {
	h   *Hash
	gen uint64 // taken on the first change after NewHashBuilder or Commit
}

// NewHashBuilder starts a successor of v, which may be nil to build the
// first version.
func NewHashBuilder(v *Hash) HashBuilder { return HashBuilder{h: v} }

// own returns *p as a node of generation gen, copying it (or making an
// empty one) first if it is not.
func own[K any](p **hashNode[K], gen uint64) *hashNode[K] {
	if n := *p; n == nil || n.gen != gen {
		c := &hashNode[K]{gen: gen}
		if n != nil {
			c.kids = n.kids
		}
		*p = c
	}
	return *p
}

// chain returns the builder's own copy of the node slot that heads
// key's chain.
func (b *HashBuilder) chain(key string) **hashLeaf {
	root := (*hashRoot)(b.h)
	if b.gen == 0 {
		// A root carries the highest generation in its trie. A dropped
		// builder may have used the same number, but none of its copies
		// is reachable from the base.
		b.gen = 1
		if root != nil {
			b.gen = root.gen + 1
		}
	}
	s := slots(key)
	own(&root, b.gen)
	b.h = (*Hash)(root)
	return &own(&own(&root.kids[s[0]], b.gen).kids[s[1]], b.gen).kids[s[2]]
}

// find returns the link that points at key's leaf, copying the leaves
// of the chain up to and including it, or nil when key has no leaf.
func (b *HashBuilder) find(p **hashLeaf, key string) **hashLeaf {
	l := *p
	for l != nil && l.key != key {
		l = l.next
	}
	if l == nil {
		return nil
	}
	for {
		if l := *p; l.gen != b.gen {
			c := *l
			c.gen, c.owned = b.gen, false
			*p = &c
		}
		if (*p).key == key {
			return p
		}
		p = &(*p).next
	}
}

// Add indexes a row id under key, after the ids already there.
func (b *HashBuilder) Add(key string, id int) {
	p := b.chain(key)
	if q := b.find(p, key); q != nil {
		l := *q
		l.owned = l.owned || len(l.ids) == cap(l.ids) // append reallocates
		l.ids = append(l.ids, id)
		return
	}
	*p = &hashLeaf{gen: b.gen, owned: true, key: key, ids: []int{id}, next: *p}
}

// Remove drops a row id from key's ids; a key left without ids goes.
func (b *HashBuilder) Remove(key string, id int) {
	q := b.find(b.chain(key), key)
	if q == nil {
		return
	}
	l := *q
	i := slices.Index(l.ids, id)
	switch {
	case i < 0:
	case len(l.ids) == 1:
		*q = l.next
	case l.owned:
		l.ids = slices.Delete(l.ids, i, i+1)
	default:
		l.ids = slices.Concat(l.ids[:i], l.ids[i+1:])
		l.owned = true
	}
}

// Commit returns the builder's state as an immutable version. The
// builder may go on to build that version's successor.
func (b *HashBuilder) Commit() *Hash {
	if b.h == nil {
		b.h = &Hash{}
	}
	b.gen = 0
	return b.h
}

// Period is one immutable version of an interval index over the periods
// of a temporal column. Each row contributes one entry per period of its
// (Element, Period, Chronon or Instant) value, to one of two runs:
//
//   - closed entries, both endpoints absolute, sorted by start with a
//     prefix maximum of ends, so an overlap search is O(log n + k);
//   - open entries, with a NOW-relative endpoint ([1999-10-01, NOW], the
//     open period of a still-current row), which keep their period and
//     are bound at search time. Sorted by start (the minimum chronon when
//     the start is NOW-relative too), a search walks those that start by
//     the probe's end. Kept out of the closed run, their unbounded ends no
//     longer saturate its prefix maximum.
//
// The sorted form is built lazily on first search, once per version, into
// fresh slices. All methods are safe for any number of concurrent readers.
type Period struct {
	closed []periodEntry // shared log prefixes; immutable within [0, len)
	open   []openEntry
	// gone marks the entries a removal dropped, by log position: gone[0]
	// over closed, gone[1] over open. A position past a bitset's words
	// is live. Nothing writes a published bitset.
	gone   [2][]uint64
	once   sync.Once
	sorted []periodEntry // closed, by lo
	maxHi  []int64       // maxHi[i] is the largest hi of sorted[:i+1]
	opens  []openEntry   // open, by lo
	slots  int           // one past the largest row id
}

type periodEntry struct {
	lo, hi int64
	id     int
}

type openEntry struct {
	lo int64 // the absolute start, or MinChronon for a NOW-relative one
	p  temporal.Period
	id int
}

// Len returns the number of indexed periods.
func (ix *Period) Len() int {
	if ix == nil {
		return 0
	}
	return len(ix.closed) + len(ix.open) - ones(ix.gone[0]) - ones(ix.gone[1])
}

func (ix *Period) build() {
	ix.sorted = live(ix.closed, ix.gone[0])
	slices.SortFunc(ix.sorted, func(a, b periodEntry) int { return cmp.Compare(a.lo, b.lo) })
	ix.maxHi = make([]int64, len(ix.sorted))
	maxSoFar := int64(math.MinInt64)
	for i, e := range ix.sorted {
		maxSoFar = max(maxSoFar, e.hi)
		ix.maxHi[i] = maxSoFar
		ix.slots = max(ix.slots, e.id+1)
	}
	ix.opens = live(ix.open, ix.gone[1])
	slices.SortFunc(ix.opens, func(a, b openEntry) int { return cmp.Compare(a.lo, b.lo) })
	for _, e := range ix.opens {
		ix.slots = max(ix.slots, e.id+1)
	}
}

// live returns a fresh slice of the entries of log that gone does not
// mark.
func live[E any](log []E, gone []uint64) []E {
	out := make([]E, 0, len(log)-ones(gone))
	for i := range log {
		if !marked(gone, i) {
			out = append(out, log[i])
		}
	}
	return out
}

func marked(set []uint64, i int) bool {
	w := i >> 6
	return w < len(set) && set[w]>>(i&63)&1 != 0
}

func ones(set []uint64) int {
	n := 0
	for _, w := range set {
		n += bits.OnesCount64(w)
	}
	return n
}

// Hits gathers the row ids of a search in a bitset over row slots: a row
// found through several periods or several probe intervals is marked
// once, and Next reads the ids in ascending slot order, the order a full
// scan visits rows in. The zero value is ready to use. A Hits holds one
// search's answer at a time, so each call site that searches owns one.
type Hits struct {
	words  []uint64
	lo, hi int // the word range the search touched and Next has not cleared
}

// reset clears what an abandoned read left behind.
func (h *Hits) reset(slots int) {
	clear(h.words[min(h.lo, h.hi):h.hi])
	if n := (slots + 63) >> 6; len(h.words) < n {
		h.words = make([]uint64, n)
	}
	h.lo, h.hi = len(h.words), 0
}

func (h *Hits) add(id int) {
	w := id >> 6
	h.words[w] |= 1 << (id & 63)
	h.lo, h.hi = min(h.lo, w), max(h.hi, w+1)
}

// Len returns the number of ids marked and not yet read.
func (h *Hits) Len() int {
	n := 0
	for w := h.lo; w < h.hi; w++ {
		n += bits.OnesCount64(h.words[w])
	}
	return n
}

// Drain returns the number of ids marked and not yet read, and clears
// them: a count that reads no id.
func (h *Hits) Drain() int {
	n := 0
	for ; h.lo < h.hi; h.lo++ {
		n += bits.OnesCount64(h.words[h.lo])
		h.words[h.lo] = 0
	}
	return n
}

// Next returns the smallest marked id and clears it; ok is false once
// every id has been read.
func (h *Hits) Next() (id int, ok bool) {
	for ; h.lo < h.hi; h.lo++ {
		if x := h.words[h.lo]; x != 0 {
			h.words[h.lo] = x & (x - 1)
			return h.lo<<6 | bits.TrailingZeros64(x), true
		}
	}
	return 0, false
}

// Overlapping marks in h, in place of its previous answer, the row ids
// one of whose periods, bound at now, shares a chronon with one of the
// probe intervals. The answer is exact: for a probe element bound at the
// same now, it is the set of rows whose value e satisfies
// e.Overlaps(probe, now) — a row whose periods all bind empty at now
// ([2000-01-01, NOW] asked in 1999) is not in it.
func (ix *Period) Overlapping(h *Hits, probe []temporal.Interval, now temporal.Chronon) {
	ix.collect(h, probe, now, true)
}

// Search returns the distinct row ids whose periods may overlap [qlo, qhi]
// (closed) at some value of NOW, in ascending order: exact for periods
// with absolute endpoints, conservative for NOW-relative ones (a
// NOW-relative start counts as the minimum chronon, a NOW-relative end as
// the maximum), so the answer is a superset of Overlapping's at every
// NOW. The slice is owned by the caller.
func (ix *Period) Search(qlo, qhi temporal.Chronon) []int {
	var h Hits
	var ids []int
	ix.collect(&h, []temporal.Interval{{Lo: qlo, Hi: qhi}}, 0, false)
	for id, ok := h.Next(); ok; id, ok = h.Next() {
		ids = append(ids, id)
	}
	return ids
}

// collect runs one search: open entries are bound at now when exact, and
// otherwise tested with their conservative bounds.
func (ix *Period) collect(h *Hits, probe []temporal.Interval, now temporal.Chronon, exact bool) {
	ix.once.Do(ix.build)
	h.reset(ix.slots)
	for _, q := range probe {
		qlo, qhi := int64(q.Lo), int64(q.Hi)
		// Entries starting after qhi cannot overlap. Below the cut, walk
		// the closed run backwards until every earlier end is below qlo.
		n := sort.Search(len(ix.sorted), func(i int) bool { return ix.sorted[i].lo > qhi })
		for i := n - 1; i >= 0 && ix.maxHi[i] >= qlo; i-- {
			if e := ix.sorted[i]; e.hi >= qlo {
				h.add(e.id)
			}
		}
		n = sort.Search(len(ix.opens), func(i int) bool { return ix.opens[i].lo > qhi })
		for _, e := range ix.opens[:n] {
			if exact {
				if iv, ok := e.p.Bind(now); ok && iv.Overlaps(q) {
					h.add(e.id)
				}
			} else if end, abs := e.p.End.Chronon(); !abs || end >= q.Lo {
				h.add(e.id)
			}
		}
	}
}

// PeriodBuilder accumulates the next version of a period index. It must
// only be used by the one writer holding the table's write lock; Commit
// publishes the new version, and dropping the builder discards every
// change (appends land beyond the base version's visible lengths, and
// removals only take effect at Commit).
type PeriodBuilder struct {
	closed []periodEntry
	open   []openEntry
	gone   [2][]uint64 // the base's until Commit drops entries
	// removed holds each row id removed since the last Commit with the
	// lengths of the two logs at its last removal: its entries below
	// them go at Commit, and any added since stay.
	removed map[int][2]int
}

// NewPeriodBuilder starts a successor of v, which may be nil to build
// the first version.
func NewPeriodBuilder(v *Period) *PeriodBuilder {
	b := &PeriodBuilder{}
	if v != nil {
		b.closed, b.open, b.gone = v.closed, v.open, v.gone
	}
	return b
}

// AddElement indexes every period of an element for the row id.
func (b *PeriodBuilder) AddElement(e temporal.Element, id int) {
	for _, p := range e.Periods() {
		b.AddPeriod(p, id)
	}
}

// AddPeriod indexes one period for the row id. The append may extend a
// shared entry log in place: published versions expose only their own
// prefix, so the new slot is invisible until Commit. A period with
// absolute endpoints in the wrong order binds empty at every NOW and is
// not indexed.
func (b *PeriodBuilder) AddPeriod(p temporal.Period, id int) {
	lo, loAbs := p.Start.Chronon()
	hi, hiAbs := p.End.Chronon()
	switch {
	case loAbs && hiAbs && hi < lo:
	case loAbs && hiAbs:
		b.closed = append(b.closed, periodEntry{lo: int64(lo), hi: int64(hi), id: id})
	default:
		if !loAbs {
			lo = temporal.MinChronon
		}
		b.open = append(b.open, openEntry{lo: int64(lo), p: p, id: id})
	}
}

// Remove drops every entry the row id has so far; entries added for it
// afterwards (an UPDATE re-indexing the row, a reused slot) stay. The
// entries go at Commit, in one pass over each log for all the ids
// removed.
func (b *PeriodBuilder) Remove(id int) {
	if b.removed == nil {
		b.removed = map[int][2]int{}
	}
	b.removed[id] = [2]int{len(b.closed), len(b.open)}
}

// Commit publishes the builder's state as a new immutable version. The
// builder may go on to build that version's successor.
func (b *PeriodBuilder) Commit() *Period {
	if len(b.removed) > 0 {
		b.closed, b.gone[0] = drop(b.closed, b.gone[0], b.removed, 0, func(e *periodEntry) int { return e.id })
		b.open, b.gone[1] = drop(b.open, b.gone[1], b.removed, 1, func(e *openEntry) int { return e.id })
		b.removed = nil
	}
	return &Period{closed: b.closed, open: b.open, gone: b.gone}
}

// drop marks in a copy of gone, in one pass over log, the entries of the
// removed rows below the log length each removal saw (removed[id][which]).
// Once half of the log is gone, the survivors move to a fresh log with
// nothing marked, so the dropped entries cost at most the live ones.
func drop[E any](log []E, gone []uint64, removed map[int][2]int, which int, id func(*E) int) ([]E, []uint64) {
	out := make([]uint64, (len(log)+63)>>6)
	copy(out, gone)
	for i := range log {
		if at, ok := removed[id(&log[i])]; ok && i < at[which] {
			out[i>>6] |= 1 << (i & 63)
		}
	}
	switch n := ones(out); {
	case n == 0:
		return log, nil
	case 2*n >= len(log):
		return live(log, out), nil
	}
	return log, out
}
