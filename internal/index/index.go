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
// Readers hold no table locks, so both indexes are versioned to match
// the row-slab versions they travel with:
//
//   - Hash is one shared structure per indexed column whose postings carry
//     the born/died version sequences of the writers that added and
//     removed them. Lookup filters postings against the reader's snapshot
//     sequence and copies the ids out, so nothing mutable escapes; a short
//     internal latch covers the map itself. Dead postings are reclaimed
//     opportunistically on Add and Remove once they fall behind the
//     snapshot horizon, so both insert-heavy and delete-heavy keys stay
//     bounded.
//
//   - Period is an immutable per-version value built by a PeriodBuilder
//     under the table's write lock. Appends extend the shared entry logs
//     in place (slots beyond a published version's length are invisible
//     to its readers); removals copy the surviving entries. The sorted
//     search form is built lazily once per version into fresh slices, so
//     the read path mutates nothing a reader can see. Searches mark a
//     caller-owned Hits bitset, which the caller reads the ids from.
package index

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
	"sort"
	"sync"

	"tip/internal/temporal"
)

// posting is one hash-index entry: a row id plus the version sequences
// bounding its visibility. died == 0 means the posting is still live.
type posting struct {
	id         int
	born, died uint64
}

// Hash is an equality index from value keys (types.Value.Key strings) to
// row ids, shared across all versions of its table. Mutations require the
// table's write lock on top of the internal latch; Lookup needs neither.
type Hash struct {
	mu sync.RWMutex
	m  map[string][]posting
}

// NewHash returns an empty hash index.
func NewHash() *Hash { return &Hash{m: make(map[string][]posting)} }

// Add indexes a row id under key, visible to snapshots at or after seq.
// Postings under the same key that died before horizon — the oldest
// sequence any open snapshot or transaction could read at — are
// reclaimed on the way.
func (h *Hash) Add(key string, id int, seq, horizon uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	ps := h.m[key]
	out := ps[:0]
	for _, p := range ps {
		if p.died != 0 && p.died <= horizon {
			continue
		}
		out = append(out, p)
	}
	h.m[key] = append(out, posting{id: id, born: seq})
}

// Remove marks the live posting of a row id under key as dead from seq
// on. Snapshots older than seq still see it. Like Add, it reclaims
// postings under the key that died behind horizon on the way —
// Add-side reclamation never visits keys that only shrink, so
// delete-heavy keys would otherwise accumulate dead postings without
// bound. The posting killed by this call is kept regardless of the
// horizon: a Discard (UndoRemove) must still find it.
func (h *Hash) Remove(key string, id int, seq, horizon uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	ps := h.m[key]
	killed := -1
	for i := len(ps) - 1; i >= 0; i-- {
		if ps[i].id == id && ps[i].died == 0 {
			ps[i].died = seq
			killed = i
			break
		}
	}
	out := ps[:0]
	for i, p := range ps {
		if i != killed && p.died != 0 && p.died <= horizon {
			continue
		}
		out = append(out, p)
	}
	if len(out) == 0 {
		delete(h.m, key)
	} else {
		h.m[key] = out
	}
}

// UndoAdd physically removes the posting Add(key, id, seq, _) created —
// the discard path for a failed writer statement or a rolled-back
// transaction, neither of which published seq to any reader.
func (h *Hash) UndoAdd(key string, id int, seq uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	ps := h.m[key]
	for i := len(ps) - 1; i >= 0; i-- {
		if ps[i].id == id && ps[i].born == seq && ps[i].died == 0 {
			ps[i] = ps[len(ps)-1]
			ps = ps[:len(ps)-1]
			break
		}
	}
	if len(ps) == 0 {
		delete(h.m, key)
	} else {
		h.m[key] = ps
	}
}

// UndoRemove revives the posting Remove(key, id, seq) killed — the
// discard path for a failed writer statement or a rolled-back
// transaction.
func (h *Hash) UndoRemove(key string, id int, seq uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	ps := h.m[key]
	for i := len(ps) - 1; i >= 0; i-- {
		if ps[i].id == id && ps[i].died == seq {
			ps[i].died = 0
			return
		}
	}
}

// Lookup appends to dst the row ids indexed under key as seen by a
// snapshot at seq, and returns the extended slice.
func (h *Hash) Lookup(key string, seq uint64, dst []int) []int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	ps := h.m[key]
	for i, p := range ps {
		if p.born <= seq && (p.died == 0 || p.died > seq) {
			// Room for every posting left, so dst grows at most once.
			dst = append(slices.Grow(dst, len(ps)-i), p.id)
		}
	}
	return dst
}

// Len returns the number of distinct keys with at least one live
// posting.
func (h *Hash) Len() int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	n := 0
	for _, ps := range h.m {
		for _, p := range ps {
			if p.died == 0 {
				n++
				break
			}
		}
	}
	return n
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
	return len(ix.closed) + len(ix.open)
}

func (ix *Period) build() {
	ix.sorted = slices.Clone(ix.closed)
	slices.SortFunc(ix.sorted, func(a, b periodEntry) int { return cmp.Compare(a.lo, b.lo) })
	ix.maxHi = make([]int64, len(ix.sorted))
	maxSoFar := int64(math.MinInt64)
	for i, e := range ix.sorted {
		maxSoFar = max(maxSoFar, e.hi)
		ix.maxHi[i] = maxSoFar
		ix.slots = max(ix.slots, e.id+1)
	}
	ix.opens = slices.Clone(ix.open)
	slices.SortFunc(ix.opens, func(a, b openEntry) int { return cmp.Compare(a.lo, b.lo) })
	for _, e := range ix.opens {
		ix.slots = max(ix.slots, e.id+1)
	}
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
// removals copy).
type PeriodBuilder struct {
	closed []periodEntry
	open   []openEntry
}

// NewPeriodBuilder starts a successor of v, which may be nil to build
// the first version.
func NewPeriodBuilder(v *Period) *PeriodBuilder {
	b := &PeriodBuilder{}
	if v != nil {
		b.closed, b.open = v.closed, v.open
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

// Remove drops all entries of a row id, copying the survivors so
// published versions keep theirs.
func (b *PeriodBuilder) Remove(id int) {
	b.closed = slices.DeleteFunc(slices.Clone(b.closed), func(e periodEntry) bool { return e.id == id })
	b.open = slices.DeleteFunc(slices.Clone(b.open), func(e openEntry) bool { return e.id == id })
}

// Commit publishes the builder's state as a new immutable version.
func (b *PeriodBuilder) Commit() *Period {
	return &Period{closed: b.closed, open: b.open}
}
