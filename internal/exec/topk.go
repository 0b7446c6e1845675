package exec

import "unsafe"

// Bounded top-K sort. `ORDER BY ... LIMIT k` is the most common
// big-sort shape, and the full pipeline — materialise every output row,
// stably sort the lot, slice off k — makes its memory cost
// proportional to the input, not the answer. When k (= LIMIT + OFFSET)
// is at most topKMaxRows, the executor instead feeds output rows
// through a fixed-size max-heap ordered by (sort keys..., insertion
// sequence): the root is always the worst surviving entry, so a full
// heap admits a new row only if it sorts strictly before the root. The
// sequence tiebreaker makes the heap's survivors and final order
// byte-identical to the stable sort over the full input.
//
// Evicted entries donate their row storage back through a freelist
// (spare), so the statement arena — which never recycles on its own —
// stays bounded by k rows instead of growing with the input.

// topKMaxRows is the largest LIMIT+OFFSET the bounded top-K sort
// handles; beyond it the full sort's O(n log n) compares beat the
// heap's O(n log k) with its per-row offer overhead, and the memory win
// fades.
const topKMaxRows = 1024

// topkEntry is one candidate result row (its sort keys among its
// columns) with its insertion sequence, the stability tiebreaker.
type topkEntry struct {
	row Row
	seq int64
}

const topkEntrySize = int64(unsafe.Sizeof(topkEntry{}))

// topkCmp orders two rows by their sort keys: negative means a sorts
// before b. The output tail supplies its one comparator
// (outputTail.compare), for plain and compound selects alike.
type topkCmp func(a, b Row) (int, error)

// topkHeap is a manual array max-heap (no container/heap interface:
// its any-boxing would allocate per offer) of the best k entries.
type topkHeap struct {
	k        int
	cmp      topkCmp
	ents     []topkEntry
	seq      int64
	freeRows []Row
}

// newTopK returns a collector for the best k entries, charging the
// entry array to the statement's memory account.
func newTopK(rt *runtime, k int, cmp topkCmp) *topkHeap {
	rt.charge(int64(k) * topkEntrySize)
	return &topkHeap{k: k, cmp: cmp, ents: make([]topkEntry, 0, k)}
}

// spare returns a recycled row from an evicted entry; nil when none is
// available (the caller then allocates from the arena).
func (h *topkHeap) spare() Row {
	var r Row
	if n := len(h.freeRows); n > 0 {
		r, h.freeRows = h.freeRows[n-1], h.freeRows[:n-1]
	}
	return r
}

// worse reports whether a sorts after b, breaking key ties by
// insertion sequence — exactly the order the stable sort would leave
// equal-key entries in.
func (h *topkHeap) worse(a, b *topkEntry) (bool, error) {
	c, err := h.cmp(a.row, b.row)
	if err != nil {
		return false, err
	}
	if c != 0 {
		return c > 0, nil
	}
	return a.seq > b.seq, nil
}

func (h *topkHeap) recycle(r Row) {
	if r != nil {
		h.freeRows = append(h.freeRows, r)
	}
}

// offer considers one candidate: admitted into a non-full heap,
// admitted by evicting the root if it beats the current worst, or
// recycled on the spot.
func (h *topkHeap) offer(row Row) error {
	e := topkEntry{row: row, seq: h.seq}
	h.seq++
	if h.k == 0 {
		h.recycle(e.row)
		return nil
	}
	if len(h.ents) < h.k {
		h.ents = append(h.ents, e)
		return h.siftUp(len(h.ents) - 1)
	}
	w, err := h.worse(&e, &h.ents[0])
	if err != nil {
		return err
	}
	if w {
		h.recycle(e.row)
		return nil
	}
	h.recycle(h.ents[0].row)
	h.ents[0] = e
	return h.siftDown(0)
}

func (h *topkHeap) siftUp(i int) error {
	for i > 0 {
		p := (i - 1) / 2
		w, err := h.worse(&h.ents[i], &h.ents[p])
		if err != nil {
			return err
		}
		if !w {
			return nil
		}
		h.ents[i], h.ents[p] = h.ents[p], h.ents[i]
		i = p
	}
	return nil
}

func (h *topkHeap) siftDown(i int) error {
	n := len(h.ents)
	for {
		worst := i
		for _, c := range [2]int{2*i + 1, 2*i + 2} {
			if c >= n {
				break
			}
			w, err := h.worse(&h.ents[c], &h.ents[worst])
			if err != nil {
				return err
			}
			if w {
				worst = c
			}
		}
		if worst == i {
			return nil
		}
		h.ents[i], h.ents[worst] = h.ents[worst], h.ents[i]
		i = worst
	}
}

// finish heap-sorts the survivors in place and returns them in
// ascending (keys..., seq) order — the stable-sorted prefix of the
// full input.
func (h *topkHeap) finish() ([]topkEntry, error) {
	out := h.ents
	for n := len(out); n > 1; n-- {
		out[0], out[n-1] = out[n-1], out[0]
		h.ents = out[:n-1]
		if err := h.siftDown(0); err != nil {
			return nil, err
		}
	}
	h.ents = out
	return out, nil
}
