// Package index implements the engine's secondary indexes: a hash index
// for equality predicates and a period index for temporal overlap
// predicates (the in-engine counterpart of the temporal-index DataBlade of
// Bliujūtė et al. that the TIP paper cites as related work).
//
// Both indexes return candidate row ids; the executor always re-evaluates
// the predicate on the candidates against its row snapshot, so indexes may
// be conservative (supersets are fine, missing rows are not).
//
// Readers hold no table locks, so both indexes are versioned to match
// the row-slab versions they travel with:
//
//   - Hash is one shared structure per indexed column whose postings carry
//     the born/died version sequences of the writers that added and
//     removed them. Lookup filters postings against the reader's snapshot
//     sequence and copies the result, so nothing mutable escapes; a short
//     internal latch covers the map itself. Dead postings are reclaimed
//     opportunistically on Add and Remove once they fall behind the
//     snapshot horizon, so both insert-heavy and delete-heavy keys stay
//     bounded.
//
//   - Period is an immutable per-version value built by a PeriodBuilder
//     under the table's write lock. Appends extend the shared entry log in
//     place (slots beyond a published version's length are invisible to
//     its readers); removals copy the surviving entries. The sorted search
//     form is built lazily once per version into fresh slices, so the
//     read path mutates nothing a reader can see.
package index

import (
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
// the discard path for a failed writer statement, which never published
// seq to any reader.
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
// discard path for a failed writer statement.
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

// Lookup returns the row ids indexed under key as seen by a snapshot at
// seq. The returned slice is freshly allocated and owned by the caller.
func (h *Hash) Lookup(key string, seq uint64) []int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	var ids []int
	for _, p := range h.m[key] {
		if p.born <= seq && (p.died == 0 || p.died > seq) {
			ids = append(ids, p.id)
		}
	}
	return ids
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
// (Element, Period, Chronon or Instant) value. NOW-relative endpoints are
// indexed conservatively: a NOW-relative start as the minimum chronon and
// a NOW-relative end as the maximum, so the candidate set is a superset
// at every evaluation time.
//
// The sorted search form — entries by interval start with a prefix
// maximum of interval ends, giving O(log n + k) overlap search — is built
// lazily on first search, once per version, into fresh slices. All
// methods are safe for any number of concurrent readers.
type Period struct {
	entries []periodEntry // shared log prefix; immutable within [0, len)
	once    sync.Once
	sorted  []periodEntry
	maxHi   []int64
}

type periodEntry struct {
	lo, hi int64
	id     int
}

// boundsOf computes the conservative index interval of one period.
func boundsOf(p temporal.Period) (int64, int64) {
	lo, hi := int64(temporal.MinChronon), int64(temporal.MaxChronon)
	if c, ok := p.Start.Chronon(); ok {
		lo = int64(c)
	}
	if c, ok := p.End.Chronon(); ok {
		hi = int64(c)
	}
	if hi < lo {
		// A determinate empty period never matches; store an empty
		// sentinel that no query interval overlaps.
		return 1, 0
	}
	return lo, hi
}

// Len returns the number of indexed periods.
func (ix *Period) Len() int {
	if ix == nil {
		return 0
	}
	return len(ix.entries)
}

func (ix *Period) build() {
	ix.sorted = append([]periodEntry(nil), ix.entries...)
	sort.Slice(ix.sorted, func(i, j int) bool { return ix.sorted[i].lo < ix.sorted[j].lo })
	ix.maxHi = make([]int64, 0, len(ix.sorted))
	maxSoFar := int64(-1 << 62)
	for _, e := range ix.sorted {
		if e.hi > maxSoFar {
			maxSoFar = e.hi
		}
		ix.maxHi = append(ix.maxHi, maxSoFar)
	}
}

// Search returns the distinct row ids whose indexed intervals overlap
// [qlo, qhi] (closed). The result order is unspecified and the slice is
// owned by the caller.
func (ix *Period) Search(qlo, qhi temporal.Chronon) []int {
	ix.once.Do(ix.build)
	// Entries with lo > qhi cannot overlap; binary-search the cut.
	n := sort.Search(len(ix.sorted), func(i int) bool { return ix.sorted[i].lo > int64(qhi) })
	var ids []int
	seen := make(map[int]struct{})
	// Walk backwards pruning with prefix maxima: once every earlier
	// entry's hi is below qlo, stop.
	for i := n - 1; i >= 0; i-- {
		if ix.maxHi[i] < int64(qlo) {
			break
		}
		e := ix.sorted[i]
		if e.hi >= int64(qlo) {
			if _, dup := seen[e.id]; !dup {
				seen[e.id] = struct{}{}
				ids = append(ids, e.id)
			}
		}
	}
	return ids
}

// SearchElement returns candidates overlapping any period of the probe
// element, bound at the given moment.
func (ix *Period) SearchElement(e temporal.Element, now temporal.Chronon) []int {
	ivs := e.Bind(now)
	if len(ivs) == 1 {
		return ix.Search(ivs[0].Lo, ivs[0].Hi) // already distinct
	}
	var ids []int
	seen := make(map[int]struct{})
	for _, iv := range ivs {
		for _, id := range ix.Search(iv.Lo, iv.Hi) {
			if _, dup := seen[id]; !dup {
				seen[id] = struct{}{}
				ids = append(ids, id)
			}
		}
	}
	return ids
}

// PeriodBuilder accumulates the next version of a period index. It must
// only be used by the one writer holding the table's write lock; Commit
// publishes the new version, and dropping the builder discards every
// change (appends land beyond the base version's visible length, and
// removals copy).
type PeriodBuilder struct {
	entries []periodEntry
}

// NewPeriodBuilder starts a successor of v, which may be nil to build
// the first version.
func NewPeriodBuilder(v *Period) *PeriodBuilder {
	b := &PeriodBuilder{}
	if v != nil {
		b.entries = v.entries
	}
	return b
}

// AddElement indexes every period of an element for the row id.
func (b *PeriodBuilder) AddElement(e temporal.Element, id int) {
	for _, p := range e.Periods() {
		b.AddPeriod(p, id)
	}
}

// AddPeriod indexes one period for the row id. The append may extend
// the shared entry log in place: published versions expose only their
// own prefix, so the new slot is invisible until Commit.
func (b *PeriodBuilder) AddPeriod(p temporal.Period, id int) {
	lo, hi := boundsOf(p)
	if hi < lo {
		return
	}
	b.entries = append(b.entries, periodEntry{lo: lo, hi: hi, id: id})
}

// Remove drops all entries of a row id, copying the survivors so
// published versions keep theirs.
func (b *PeriodBuilder) Remove(id int) {
	out := make([]periodEntry, 0, len(b.entries))
	for _, e := range b.entries {
		if e.id != id {
			out = append(out, e)
		}
	}
	b.entries = out
}

// Len returns the number of indexed periods in the working state.
func (b *PeriodBuilder) Len() int { return len(b.entries) }

// Commit publishes the builder's state as a new immutable version.
func (b *PeriodBuilder) Commit() *Period {
	return &Period{entries: b.entries}
}
