package temporal

import "fmt"

// Element is a set of Periods — the most general TIP timestamp. The
// paper's example {[1999-01-01, 1999-04-30], [1999-07-01, 1999-10-31]}
// denotes "from January to April, and then from July to October".
//
// An Element may contain NOW-relative periods; such elements are kept in
// insertion order and are normalised only once NOW is bound (Bind). A
// fully determinate element is kept in canonical form: periods sorted by
// start, pairwise disjoint, and non-adjacent (adjacent closed periods over
// discrete chronons are merged: [1,2] and [3,4] coalesce to [1,4]).
//
// All set operations on bound elements (union, intersect, difference) run
// in time linear in the total number of periods, as the paper claims for
// the TIP implementation.
type Element struct {
	periods []Period
}

// EmptyElement is the element containing no periods.
var EmptyElement = Element{}

// MakeElement builds an element from the given periods. Determinate inputs
// are normalised into canonical form immediately; if any period is
// NOW-relative the element stores the periods as given (after validating
// determinate periods) and defers normalisation to Bind.
func MakeElement(periods ...Period) (Element, error) {
	rel := false
	for _, p := range periods {
		if !p.Determinate() {
			rel = true
			continue
		}
		s, _ := p.Start.Chronon()
		e, _ := p.End.Chronon()
		if s > e {
			return Element{}, fmt.Errorf("temporal: period start %s after end %s", s, e)
		}
	}
	if rel {
		cp := make([]Period, len(periods))
		copy(cp, periods)
		return Element{periods: cp}, nil
	}
	ivs := make([]Interval, 0, len(periods))
	for _, p := range periods {
		iv, _ := p.Bind(0) // determinate: now is irrelevant
		ivs = append(ivs, iv)
	}
	return elementOf(normalize(ivs)), nil
}

// MustElement is like MakeElement but panics on error; intended for tests.
func MustElement(periods ...Period) Element {
	e, err := MakeElement(periods...)
	if err != nil {
		panic(err)
	}
	return e
}

// ElementOfIntervals builds a determinate element from raw intervals,
// normalizing them (sort, drop empties, merge overlapping and adjacent
// runs) exactly as the element algebra does. It exists so callers that
// assemble interval sets outside the algebra — the executor's
// coalesce operator — produce elements identical to the ones
// MakeElement-based aggregation yields. Normalization is linear when
// the input is already sorted by Lo.
func ElementOfIntervals(ivs []Interval) Element {
	if len(ivs) == 0 {
		return Element{}
	}
	sorted := true
	for i := 1; i < len(ivs); i++ {
		if ivs[i].Lo < ivs[i-1].Lo {
			sorted = false
			break
		}
	}
	if sorted {
		// Merge straight into the period slice: one exactly-sized
		// allocation instead of normalize's scratch copy plus elementOf's
		// conversion. Coalescing shrinks the set hard (that is its job),
		// so a counting pass first keeps the allocation at the merged
		// size, not the raw input size. The merge only depends on Lo order
		// (equal-Lo intervals always overlap), so normalize's (Lo, Hi)
		// tie-break is irrelevant to the result.
		merged := 1
		hi := ivs[0].Hi
		for _, iv := range ivs[1:] {
			if iv.Lo <= hi || (hi < MaxChronon && iv.Lo == hi+1) {
				if iv.Hi > hi {
					hi = iv.Hi
				}
				continue
			}
			merged++
			hi = iv.Hi
		}
		ps := make([]Period, 0, merged)
		cur := ivs[0]
		for _, iv := range ivs[1:] {
			if iv.Lo <= cur.Hi || (cur.Hi < MaxChronon && iv.Lo == cur.Hi+1) {
				if iv.Hi > cur.Hi {
					cur.Hi = iv.Hi
				}
				continue
			}
			ps = append(ps, cur.Period())
			cur = iv
		}
		ps = append(ps, cur.Period())
		return Element{periods: ps}
	}
	return elementOf(normalize(ivs))
}

// elementOf wraps normalised intervals into a determinate Element.
func elementOf(ivs []Interval) Element {
	ps := make([]Period, len(ivs))
	for i, iv := range ivs {
		ps[i] = iv.Period()
	}
	return Element{periods: ps}
}

// Periods returns a copy of the element's periods.
func (e Element) Periods() []Period {
	cp := make([]Period, len(e.periods))
	copy(cp, e.periods)
	return cp
}

// NumPeriods returns the number of periods stored in the element.
func (e Element) NumPeriods() int { return len(e.periods) }

// IsEmpty reports whether the element stores no periods at all. Note that
// a NOW-relative element with periods may still *denote* the empty set at
// a particular moment; use Bind to decide.
func (e Element) IsEmpty() bool { return len(e.periods) == 0 }

// Determinate reports whether no period of the element is NOW-relative.
func (e Element) Determinate() bool {
	for _, p := range e.periods {
		if !p.Determinate() {
			return false
		}
	}
	return true
}

// First returns the first period of a determinate canonical element, or
// false for an empty element. For NOW-relative elements, bind first.
func (e Element) First() (Period, bool) {
	if len(e.periods) == 0 {
		return Period{}, false
	}
	return e.periods[0], true
}

// Last returns the final period of a determinate canonical element.
func (e Element) Last() (Period, bool) {
	if len(e.periods) == 0 {
		return Period{}, false
	}
	return e.periods[len(e.periods)-1], true
}

// Bind resolves every period against a concrete value of NOW and returns
// the canonical set of closed intervals the element denotes at that
// moment. Periods that bind empty (start after end) vanish.
func (e Element) Bind(now Chronon) []Interval {
	ivs := make([]Interval, 0, len(e.periods))
	sorted := true
	var prev Interval
	for i, p := range e.periods {
		iv, ok := p.Bind(now)
		if !ok {
			continue
		}
		if i > 0 && len(ivs) > 0 && iv.Lo < prev.Lo {
			sorted = false
		}
		ivs = append(ivs, iv)
		prev = iv
	}
	if e.Determinate() && sorted {
		// Canonical already; MakeElement normalised it.
		return ivs
	}
	return normalize(ivs)
}

// AppendBound appends every period's binding at now to dst and returns
// the extended slice, without sorting or merging — the allocation-free
// variant of Bind for callers that normalise a larger collection
// afterwards (normalize(raw bindings) equals normalize(Bind output), so
// the skipped canonicalisation is never observable there). Periods that
// bind empty vanish, exactly as in Bind.
func (e Element) AppendBound(dst []Interval, now Chronon) []Interval {
	for _, p := range e.periods {
		if iv, ok := p.Bind(now); ok {
			dst = append(dst, iv)
		}
	}
	return dst
}

// Shift displaces every period of the element by s.
func (e Element) Shift(s Span) (Element, error) {
	ps := make([]Period, len(e.periods))
	for i, p := range e.periods {
		q, err := p.Shift(s)
		if err != nil {
			return Element{}, err
		}
		ps[i] = q
	}
	return Element{periods: ps}, nil
}

// Equal reports whether the two elements denote the same set of chronons
// under a concrete value of NOW.
func (e Element) Equal(other Element, now Chronon) bool {
	a, b := e.Bind(now), other.Bind(now)
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// normalize sorts intervals by Lo and merges overlapping or adjacent ones,
// producing the canonical form. It runs in O(n log n) for unsorted input
// and a single linear pass thereafter; inputs that are already sorted (the
// common case for stored elements) skip the sort.
func normalize(ivs []Interval) []Interval {
	if len(ivs) <= 1 {
		out := make([]Interval, len(ivs))
		copy(out, ivs)
		return out
	}
	sorted := true
	for i := 1; i < len(ivs); i++ {
		if ivs[i].Lo < ivs[i-1].Lo {
			sorted = false
			break
		}
	}
	work := ivs
	if !sorted {
		work = make([]Interval, len(ivs))
		copy(work, ivs)
		sortIntervals(work)
	}
	out := make([]Interval, 0, len(work))
	cur := work[0]
	for _, iv := range work[1:] {
		// Merge when overlapping or adjacent: [1,2] + [3,4] = [1,4]
		// because chronons 2 and 3 are consecutive on the discrete line.
		if iv.Lo <= cur.Hi || (cur.Hi < MaxChronon && iv.Lo == cur.Hi+1) {
			if iv.Hi > cur.Hi {
				cur.Hi = iv.Hi
			}
			continue
		}
		out = append(out, cur)
		cur = iv
	}
	return append(out, cur)
}

// sortIntervals sorts by (Lo, Hi) using an in-place merge-free pattern:
// a simple top-down merge sort over a scratch slice. We avoid package sort
// to keep the hot path free of interface dispatch.
func sortIntervals(ivs []Interval) {
	if len(ivs) < 2 {
		return
	}
	scratch := make([]Interval, len(ivs))
	mergeSort(ivs, scratch)
}

func mergeSort(a, scratch []Interval) {
	n := len(a)
	if n < 16 {
		insertionSort(a)
		return
	}
	mid := n / 2
	mergeSort(a[:mid], scratch[:mid])
	mergeSort(a[mid:], scratch[mid:])
	if less(a[mid-1], a[mid]) {
		return
	}
	copy(scratch, a)
	i, j, k := 0, mid, 0
	for i < mid && j < n {
		if less(scratch[j], scratch[i]) {
			a[k] = scratch[j]
			j++
		} else {
			a[k] = scratch[i]
			i++
		}
		k++
	}
	for i < mid {
		a[k] = scratch[i]
		i++
		k++
	}
}

func insertionSort(a []Interval) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && less(a[j], a[j-1]); j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

func less(a, b Interval) bool {
	if a.Lo != b.Lo {
		return a.Lo < b.Lo
	}
	return a.Hi < b.Hi
}
