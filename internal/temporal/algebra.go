package temporal

// Element set algebra. Each operation binds its operands against a
// concrete value of NOW and then runs a single merge pass over the two
// sorted interval lists, so every operation is linear in the total number
// of periods — the implementation strategy the paper describes in §3.
// Overlaps tests small elements pair by pair instead, which needs no
// bound lists.

// Union returns the element denoting the set union of e and other at the
// given moment. The result is always determinate and canonical.
func (e Element) Union(other Element, now Chronon) Element {
	a, b := e.Bind(now), other.Bind(now)
	return elementOf(unionIntervals(a, b))
}

// Intersect returns the element denoting the set intersection of e and
// other at the given moment.
func (e Element) Intersect(other Element, now Chronon) Element {
	a, b := e.Bind(now), other.Bind(now)
	return elementOf(intersectIntervals(a, b))
}

// Difference returns the element denoting e minus other at the given
// moment.
func (e Element) Difference(other Element, now Chronon) Element {
	a, b := e.Bind(now), other.Bind(now)
	return elementOf(differenceIntervals(a, b))
}

// Complement returns the element denoting all chronons of the supported
// time line not in e at the given moment.
func (e Element) Complement(now Chronon) Element {
	all := []Interval{{Lo: MinChronon, Hi: MaxChronon}}
	return elementOf(differenceIntervals(all, e.Bind(now)))
}

// overlapsPairLimit is the largest period-pair count Overlaps tests
// pairwise; bigger elements pay for Bind's canonical lists once and
// merge-walk them in linear time instead. BenchmarkOverlapsSquare on
// disjoint n × n elements (2 vCPUs, ns/op pairwise vs merge, determinate
// / NOW-relative): 4×4 166 vs 164 / 210 vs 230, 5×5 215 vs 177 /
// 314 vs 244, 8×8 527 vs 256 / 823 vs 477. The crossover is 16 pairs,
// and a tie goes to the path that allocates nothing.
const overlapsPairLimit = 16

// Overlaps reports whether e and other share at least one chronon at the
// given moment — the predicate used by the paper's temporal self-join.
// Sharing a chronon does not depend on canonical form (some bound period
// of e meets some bound period of other), so small elements are tested
// pair by pair without allocating.
func (e Element) Overlaps(other Element, now Chronon) bool {
	if len(e.periods)*len(other.periods) <= overlapsPairLimit {
		return overlapsPairwise(e.periods, other.periods, now)
	}
	a, b := e.Bind(now), other.Bind(now)
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i].Overlaps(b[j]) {
			return true
		}
		if a[i].Hi < b[j].Hi {
			i++
		} else {
			j++
		}
	}
	return false
}

// overlapsPairwise reports whether some period of ps meets some period
// of qs once both are bound at now.
func overlapsPairwise(ps, qs []Period, now Chronon) bool {
	for _, p := range ps {
		a, ok := p.Bind(now)
		if !ok {
			continue
		}
		for _, q := range qs {
			if b, ok := q.Bind(now); ok && a.Overlaps(b) {
				return true
			}
		}
	}
	return false
}

// Contains reports whether every chronon of other is in e at the given
// moment.
func (e Element) Contains(other Element, now Chronon) bool {
	a, b := e.Bind(now), other.Bind(now)
	i := 0
	for _, iv := range b {
		for i < len(a) && a[i].Hi < iv.Lo {
			i++
		}
		if i == len(a) || a[i].Lo > iv.Lo || a[i].Hi < iv.Hi {
			return false
		}
	}
	return true
}

// ContainsChronon reports whether the chronon c is in e at the given
// moment.
func (e Element) ContainsChronon(c Chronon, now Chronon) bool {
	ivs := e.Bind(now)
	// Binary search over the canonical (sorted, disjoint) intervals.
	lo, hi := 0, len(ivs)
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case ivs[mid].Hi < c:
			lo = mid + 1
		case ivs[mid].Lo > c:
			hi = mid
		default:
			return true
		}
	}
	return false
}

// Length returns the total duration covered by the element at the given
// moment: the sum of the lengths of its canonical periods. Because the
// canonical form is coalesced, overlapping input periods are counted once,
// which is exactly why the paper's coalescing query must use
// length(group_union(valid)) rather than SUM(length(valid)).
func (e Element) Length(now Chronon) Span {
	// Fast path: a determinate element is stored canonically (sorted and
	// disjoint — the same assumption Bind's no-normalize path makes), so
	// the period spans sum directly without materialising the interval
	// set Bind allocates.
	var total Span
	var prevLo Chronon
	direct := true
	for i, p := range e.periods {
		if !p.Determinate() {
			direct = false
			break
		}
		iv, nonEmpty := p.Bind(now)
		if !nonEmpty {
			continue
		}
		if i > 0 && iv.Lo < prevLo {
			direct = false
			break
		}
		prevLo = iv.Lo
		total += iv.Length()
	}
	if direct {
		return total
	}
	total = 0
	for _, iv := range e.Bind(now) {
		total += iv.Length()
	}
	return total
}

// Start returns the start instant of the first period in the element —
// the TIP routine `start` used by the paper's Tylenol query. The second
// result is false for an element denoting the empty set.
func (e Element) Start(now Chronon) (Chronon, bool) {
	ivs := e.Bind(now)
	if len(ivs) == 0 {
		return 0, false
	}
	return ivs[0].Lo, true
}

// End returns the end instant of the last period in the element.
func (e Element) End(now Chronon) (Chronon, bool) {
	ivs := e.Bind(now)
	if len(ivs) == 0 {
		return 0, false
	}
	return ivs[len(ivs)-1].Hi, true
}

// BoundElement returns the element as it stands at the given moment with
// NOW substituted everywhere: the cast from a NOW-relative element to a
// determinate one.
func (e Element) BoundElement(now Chronon) Element { return elementOf(e.Bind(now)) }

// unionIntervals merges two canonical interval lists in one linear pass.
func unionIntervals(a, b []Interval) []Interval {
	if len(a) == 0 {
		return append([]Interval(nil), b...)
	}
	if len(b) == 0 {
		return append([]Interval(nil), a...)
	}
	out := make([]Interval, 0, len(a)+len(b))
	i, j := 0, 0
	var next Interval
	pick := func() Interval {
		if j >= len(b) || (i < len(a) && a[i].Lo <= b[j].Lo) {
			iv := a[i]
			i++
			return iv
		}
		iv := b[j]
		j++
		return iv
	}
	next = pick()
	cur := next
	for i < len(a) || j < len(b) {
		next = pick()
		if next.Lo <= cur.Hi || (cur.Hi < MaxChronon && next.Lo == cur.Hi+1) {
			if next.Hi > cur.Hi {
				cur.Hi = next.Hi
			}
			continue
		}
		out = append(out, cur)
		cur = next
	}
	return append(out, cur)
}

// intersectIntervals intersects two canonical interval lists in one linear
// pass.
func intersectIntervals(a, b []Interval) []Interval {
	var out []Interval
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		lo := a[i].Lo
		if b[j].Lo > lo {
			lo = b[j].Lo
		}
		hi := a[i].Hi
		if b[j].Hi < hi {
			hi = b[j].Hi
		}
		if lo <= hi {
			out = append(out, Interval{Lo: lo, Hi: hi})
		}
		if a[i].Hi < b[j].Hi {
			i++
		} else {
			j++
		}
	}
	return out
}

// differenceIntervals subtracts b from a in one linear pass.
func differenceIntervals(a, b []Interval) []Interval {
	var out []Interval
	j := 0
	for _, iv := range a {
		lo := iv.Lo
		for j < len(b) && b[j].Lo <= iv.Hi {
			if b[j].Hi < lo {
				// This b-interval lies wholly before the uncovered part;
				// it cannot clip any later a-interval either.
				j++
				continue
			}
			if b[j].Lo > lo {
				out = append(out, Interval{Lo: lo, Hi: b[j].Lo - 1})
			}
			if b[j].Hi >= iv.Hi {
				// b[j] extends beyond iv; keep it (it may clip the next
				// a-interval) and mark iv fully consumed.
				lo = iv.Hi + 1
				break
			}
			lo = b[j].Hi + 1
			j++
		}
		if lo <= iv.Hi {
			out = append(out, Interval{Lo: lo, Hi: iv.Hi})
		}
	}
	return out
}
