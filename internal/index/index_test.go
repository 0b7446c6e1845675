package index

import (
	"cmp"
	"maps"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"tip/internal/temporal"
)

func day(d int) temporal.Chronon { return temporal.MustDate(1999, 1, 1) + temporal.Chronon(d*86400) }

func pd(lo, hi int) temporal.Period {
	return temporal.MustPeriod(day(lo), day(hi))
}

func TestPeriodIndexBasics(t *testing.T) {
	b := NewPeriodBuilder(nil)
	b.AddPeriod(pd(0, 10), 1)
	b.AddPeriod(pd(20, 30), 2)
	b.AddPeriod(pd(5, 25), 3)
	ix := b.Commit()
	if ix.Len() != 3 {
		t.Fatalf("len = %d", ix.Len())
	}
	got := ix.Search(day(8), day(9))
	sort.Ints(got)
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Errorf("search = %v", got)
	}
	if got := ix.Search(day(50), day(60)); len(got) != 0 {
		t.Errorf("out of range = %v", got)
	}
	b = NewPeriodBuilder(ix)
	b.Remove(3)
	ix2 := b.Commit()
	got = ix2.Search(day(8), day(9))
	if len(got) != 1 || got[0] != 1 {
		t.Errorf("after remove = %v", got)
	}
	// The prior version is an immutable snapshot: it still has row 3.
	got = ix.Search(day(8), day(9))
	if len(got) != 2 {
		t.Errorf("old version after remove = %v", got)
	}
}

func TestPeriodIndexElementDedup(t *testing.T) {
	b := NewPeriodBuilder(nil)
	e := temporal.MustElement(pd(0, 5), pd(10, 15))
	b.AddElement(e, 7)
	ix := b.Commit()
	// A query spanning both periods must report the row once.
	got := ix.Search(day(0), day(20))
	if len(got) != 1 || got[0] != 7 {
		t.Errorf("dedup = %v", got)
	}
	// Overlapping dedups across probe periods too.
	var h Hits
	probe := temporal.MustElement(pd(1, 2), pd(11, 12))
	ix.Overlapping(&h, probe.Bind(day(0)), day(0))
	if got = readHits(&h); len(got) != 1 || got[0] != 7 {
		t.Errorf("Overlapping dedup = %v", got)
	}
	// A one-period probe spanning both of the row's periods.
	ix.Overlapping(&h, pd(1, 12).Element().Bind(day(0)), day(0))
	if got = readHits(&h); len(got) != 1 || got[0] != 7 {
		t.Errorf("one-period Overlapping = %v", got)
	}
}

// readHits reads every id h holds, leaving it clear.
func readHits(h *Hits) []int {
	var ids []int
	for id, ok := h.Next(); ok; id, ok = h.Next() {
		ids = append(ids, id)
	}
	return ids
}

// TestPeriodHitsAbandonedRead: a search whose ids were only partly read must
// not leak the rest into the next search on the same Hits.
func TestPeriodHitsAbandonedRead(t *testing.T) {
	b := NewPeriodBuilder(nil)
	for id := 0; id < 200; id++ {
		b.AddPeriod(pd(id, id), id)
	}
	ix := b.Commit()
	var h Hits
	ix.Overlapping(&h, pd(10, 150).Element().Bind(day(0)), day(0))
	if n := h.Len(); n != 141 {
		t.Fatalf("Len = %d, want 141", n)
	}
	for i := 0; i < 70; i++ {
		if id, ok := h.Next(); !ok || id != 10+i {
			t.Fatalf("Next = %d, %v; want %d", id, ok, 10+i)
		}
	}
	if n := h.Len(); n != 71 {
		t.Fatalf("Len after 70 reads = %d, want 71", n)
	}
	ix.Overlapping(&h, pd(190, 195).Element().Bind(day(0)), day(0))
	if got := readHits(&h); !slices.Equal(got, []int{190, 191, 192, 193, 194, 195}) {
		t.Errorf("after an abandoned read: %v", got)
	}
	if h.Len() != 0 {
		t.Errorf("Len after a full read = %d", h.Len())
	}
}

func TestPeriodIndexNowRelativeConservative(t *testing.T) {
	b := NewPeriodBuilder(nil)
	since, err := temporal.ParsePeriod("[1999-10-01, NOW]")
	if err != nil {
		t.Fatal(err)
	}
	b.AddPeriod(since, 1)
	ix := b.Commit()
	// Search has no NOW, so it counts the open end as MaxChronon: any
	// future query window still finds the row.
	got := ix.Search(temporal.MustDate(2010, 1, 1), temporal.MustDate(2010, 12, 31))
	if len(got) != 1 {
		t.Errorf("NOW-relative candidate missing: %v", got)
	}
	// A window entirely before the fixed start does not match.
	if got := ix.Search(day(0), day(1)); len(got) != 0 {
		t.Errorf("pre-start window = %v", got)
	}
}

func TestPeriodIndexEmptyBindingSkipped(t *testing.T) {
	b := NewPeriodBuilder(nil)
	p := temporal.Period{Start: temporal.AbsInstant(day(10)), End: temporal.AbsInstant(day(10))}
	b.AddPeriod(p, 1)
	ix := b.Commit()
	if got := ix.Search(day(10), day(10)); len(got) != 1 {
		t.Errorf("degenerate period = %v", got)
	}
}

// TestPeriodIndexAgainstScan cross-checks index search against a naive
// scan over random intervals.
func TestPeriodIndexAgainstScan(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	b := NewPeriodBuilder(nil)
	type iv struct{ lo, hi int }
	var data []iv
	for id := 0; id < 300; id++ {
		lo := r.Intn(1000)
		hi := lo + r.Intn(50)
		data = append(data, iv{lo, hi})
		b.AddPeriod(pd(lo, hi), id)
	}
	ix := b.Commit()
	for trial := 0; trial < 100; trial++ {
		qlo := r.Intn(1000)
		qhi := qlo + r.Intn(100)
		got := ix.Search(day(qlo), day(qhi))
		sort.Ints(got)
		var want []int
		for id, d := range data {
			if d.lo <= qhi && qlo <= d.hi {
				want = append(want, id)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("query [%d,%d]: got %d ids, want %d", qlo, qhi, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("query [%d,%d]: got %v, want %v", qlo, qhi, got, want)
			}
		}
	}
}

// TestPeriodIndexVersionChain interleaves searches (which force the
// lazy sorted build) with successor versions extending the shared log
// in place, checking each version sees exactly its own prefix.
func TestPeriodIndexVersionChain(t *testing.T) {
	v1 := func() *Period {
		b := NewPeriodBuilder(nil)
		b.AddPeriod(pd(0, 10), 1)
		return b.Commit()
	}()
	_ = v1.Search(day(0), day(5)) // force v1's build
	b := NewPeriodBuilder(v1)
	b.AddPeriod(pd(3, 7), 2) // in-place tail append past v1's length
	v2 := b.Commit()
	got := v2.Search(day(4), day(4))
	sort.Ints(got)
	if len(got) != 2 {
		t.Errorf("successor search = %v", got)
	}
	if got := v1.Search(day(4), day(4)); len(got) != 1 {
		t.Errorf("pinned version sees successor's append: %v", got)
	}
}

// TestPeriodOverlappingExact checks Overlapping against Element.Overlaps,
// the predicate it answers, row by row. Stored values take the four
// indexable shapes (an Element of one to three periods, a Period, a
// Chronon, an Instant) and mix NOW-relative starts and ends, periods
// that bind empty at some NOWs ([2000-01-01, NOW] before 2000) and
// day-aligned periods that touch or abut; the probes are elements of the
// same mix, bound at three NOWs. Search, which has no NOW, must return a
// superset every time. A second version with some rows removed is checked
// the same way, with the first still answering for all its rows.
func TestPeriodOverlappingExact(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	const d = 86400
	base := temporal.MustDate(1999, 1, 1)
	instant := func() temporal.Instant {
		if r.Intn(4) == 0 {
			return temporal.NowRelative(temporal.Span((r.Intn(240) - 120) * d))
		}
		return temporal.AbsInstant(base + temporal.Chronon(r.Intn(900)*d))
	}
	period := func() temporal.Period {
		switch r.Intn(6) {
		case 0:
			return temporal.Period{Start: temporal.AbsInstant(temporal.MustDate(2000, 1, 1)), End: temporal.Now}
		case 1:
			lo := base + temporal.Chronon(r.Intn(900)*d)
			return temporal.MustPeriod(lo, lo+d-1)
		}
		p := temporal.Period{Start: instant(), End: instant()}
		lo, loAbs := p.Start.Chronon()
		hi, hiAbs := p.End.Chronon()
		if loAbs && hiAbs && hi < lo {
			p.Start, p.End = p.End, p.Start
		}
		return p
	}
	element := func() temporal.Element {
		ps := make([]temporal.Period, 1+r.Intn(3))
		for i := range ps {
			ps[i] = period()
		}
		return temporal.MustElement(ps...)
	}

	const n = 400
	rows := make([]temporal.Element, n) // each row's value as the Element overlaps sees
	b := NewPeriodBuilder(nil)
	for id := range rows {
		switch id % 4 {
		case 0:
			rows[id] = element()
			b.AddElement(rows[id], id)
			continue
		case 1:
			p := period()
			rows[id] = p.Element()
		case 2:
			rows[id] = (base + temporal.Chronon(r.Intn(900)*d)).Period().Element()
		case 3:
			i := instant()
			rows[id] = temporal.Period{Start: i, End: i}.Element()
		}
		p, _ := rows[id].First()
		b.AddPeriod(p, id)
	}
	v1 := b.Commit()
	b = NewPeriodBuilder(v1)
	live := make([]bool, n)
	for id := range live {
		live[id] = id%7 != 3
		if !live[id] {
			b.Remove(id)
		}
	}
	v2 := b.Commit()

	var h Hits
	var ivs []temporal.Interval
	probes := 0
	for _, now := range []temporal.Chronon{
		temporal.MustDate(1999, 6, 15), temporal.MustDate(2000, 6, 15), temporal.MustDate(2001, 9, 1),
	} {
		for trial := 0; trial < 100; trial++ {
			probe := element()
			ivs = probe.AppendBound(ivs[:0], now)
			for _, v := range []struct {
				ix   *Period
				live func(id int) bool
			}{
				{v1, func(int) bool { return true }},
				{v2, func(id int) bool { return live[id] }},
			} {
				v.ix.Overlapping(&h, ivs, now)
				got := readHits(&h)
				var want []int
				for id, e := range rows {
					if v.live(id) && e.Overlaps(probe, now) {
						want = append(want, id)
					}
				}
				if !slices.Equal(got, want) {
					t.Fatalf("NOW %s, probe %s: Overlapping = %v, Element.Overlaps says %v", now, probe, got, want)
				}
				found := map[int]bool{}
				for _, iv := range ivs {
					for _, id := range v.ix.Search(iv.Lo, iv.Hi) {
						found[id] = true
					}
				}
				for _, id := range got {
					if !found[id] {
						t.Fatalf("NOW %s, probe %s: Search misses row %d", now, probe, id)
					}
				}
				probes += len(want)
			}
		}
	}
	if probes == 0 {
		t.Fatal("no probe matched any row; the generator is broken")
	}
}

// TestPeriodBlockBoundaries checks Overlapping row by row against
// Element.Overlaps, and Search for a superset, on closed runs of 0 to
// 2,100 entries, so that every search meets the edges of the blocks the
// closed run is cut into: runs of identical starts that cross a block
// edge, periods reaching MinChronon or MaxChronon, [start, NOW] entries
// that start after NOW (they bind empty), NOW ± span ends, and probes
// that are empty, single chronons, the whole extent, and windows inside,
// around and after the data, at several NOWs. A second version with a
// few rows removed is checked the same way.
func TestPeriodBlockBoundaries(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	const d = 86400
	base := temporal.MustDate(1999, 1, 1)
	at := func(days int) temporal.Chronon { return base + temporal.Chronon(days*d) }
	rel := func(days int) temporal.Instant { return temporal.NowRelative(temporal.Span(days * d)) }
	abs := func(days int) temporal.Instant { return temporal.AbsInstant(at(days)) }
	closed := func(starts []int) temporal.Period {
		switch r.Intn(12) {
		case 0:
			return temporal.MustPeriod(temporal.MinChronon, at(r.Intn(1000)))
		case 1:
			return temporal.MustPeriod(at(r.Intn(1000)), temporal.MaxChronon)
		case 2:
			return temporal.MustPeriod(temporal.MinChronon, temporal.MaxChronon)
		}
		lo := at(starts[r.Intn(len(starts))])
		if r.Intn(2) == 0 {
			lo = at(r.Intn(1000)) + temporal.Chronon(r.Intn(d))
		}
		return temporal.MustPeriod(lo, lo+temporal.Chronon(r.Intn(90*d)))
	}
	open := func() temporal.Period {
		switch r.Intn(4) {
		case 0, 1: // starts up to day 1,300, after several of the NOWs below
			return temporal.Period{Start: abs(r.Intn(1300)), End: temporal.Now}
		case 2:
			return temporal.Period{Start: abs(r.Intn(1000)), End: rel(r.Intn(200) - 100)}
		}
		return temporal.Period{Start: rel(-r.Intn(200)), End: rel(r.Intn(200) - 50)}
	}
	window := func() temporal.Period {
		switch r.Intn(8) {
		case 0: // binds empty at every NOW
			return temporal.Period{Start: rel(10), End: rel(-10)}
		case 1:
			c := at(r.Intn(1300)) + temporal.Chronon(r.Intn(d))
			return temporal.MustPeriod(c, c)
		case 2:
			return temporal.MustPeriod(temporal.MinChronon, temporal.MaxChronon)
		case 3:
			return temporal.Period{Start: rel(-r.Intn(30)), End: rel(r.Intn(30))}
		}
		lo := at(r.Intn(1400) - 100)
		return temporal.MustPeriod(lo, lo+temporal.Chronon(r.Intn(60*d)))
	}
	nows := []temporal.Chronon{at(150), at(600), at(999) + d - 1, at(1500), temporal.MinChronon, temporal.MaxChronon}

	straddles := 0
	for _, n := range []int{0, 1, 63, 64, 65, 127, 128, 129, 1000, 2100} {
		// n closed entries, whose starts repeat within runs of ~20, and a
		// quarter as many open ones; each row holds one period.
		starts := make([]int, max(1, n/20))
		for i := range starts {
			starts[i] = r.Intn(1000)
		}
		var rows []temporal.Period
		for i := 0; i < n; i++ {
			rows = append(rows, closed(starts))
		}
		for i := 0; i < n/4+1; i++ {
			rows = append(rows, open())
		}
		r.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
		b := NewPeriodBuilder(nil)
		for id, p := range rows {
			b.AddPeriod(p, id)
		}
		v1 := b.Commit()
		b = NewPeriodBuilder(v1)
		live := make([]bool, len(rows))
		for id := range live {
			if live[id] = id%5 != 2; !live[id] {
				b.Remove(id)
			}
		}
		v2 := b.Commit()
		elems := make([]temporal.Element, len(rows))
		for id, p := range rows {
			elems[id] = p.Element()
		}

		var h Hits
		var ivs []temporal.Interval
		for _, now := range nows {
			for trial := 0; trial < 24; trial++ {
				probe := temporal.MustElement(window())
				if r.Intn(4) == 0 {
					probe = temporal.MustElement(window(), window())
				}
				ivs = probe.AppendBound(ivs[:0], now)
				for _, v := range []struct {
					ix   *Period
					live func(id int) bool
				}{
					{v1, func(int) bool { return true }},
					{v2, func(id int) bool { return live[id] }},
				} {
					v.ix.Overlapping(&h, ivs, now)
					got := readHits(&h)
					var want []int
					for id, e := range elems {
						if v.live(id) && e.Overlaps(probe, now) {
							want = append(want, id)
						}
					}
					if !slices.Equal(got, want) {
						t.Fatalf("%d closed entries, NOW %s, probe %s: Overlapping = %v, Element.Overlaps says %v", n, now, probe, got, want)
					}
					found := map[int]bool{}
					for _, iv := range ivs {
						for _, id := range v.ix.Search(iv.Lo, iv.Hi) {
							found[id] = true
						}
					}
					for _, id := range got {
						if !found[id] {
							t.Fatalf("%d closed entries, NOW %s, probe %s: Search misses row %d", n, now, probe, id)
						}
					}
				}
			}
		}
		for s, b := v1.s, 1; b < len(s.blockLo); b++ {
			if slices.Contains(s.lo[b*blockLen:min(len(s.lo), (b+1)*blockLen)], s.blockLo[b-1]) {
				straddles++
			}
		}
	}
	if straddles == 0 {
		t.Fatal("no run of identical starts crosses a block edge; the generator is broken")
	}
}

// TestPeriodSortBy checks the build's sort against a comparison sort: by
// packed keys one radix pass at a time at and above 1<<radixBits values,
// by a comparison sort below, and through the keys themselves when their
// range does not fit beside the values.
func TestPeriodSortBy(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, tc := range []struct {
		n    int
		keys func() int64
	}{
		{5, func() int64 { return r.Int63n(100) }},
		{1<<radixBits - 1, func() int64 { return r.Int63n(1 << 30) }},
		{3 << radixBits, func() int64 { return r.Int63n(1<<40) - 1<<39 }},
		{3 << radixBits, func() int64 { return r.Int63n(8) }},
		{100, func() int64 { return []int64{math.MinInt64, math.MaxInt64, 0}[r.Intn(3)] }},
	} {
		keys := make([]int64, tc.n)
		for i := range keys {
			keys[i] = tc.keys()
		}
		ps, want := identity(tc.n), identity(tc.n)
		slices.SortStableFunc(want, func(a, b uint64) int { return cmp.Compare(keys[a], keys[b]) })
		sortBy(ps, bits.Len(uint(tc.n)), func(v uint64) int64 { return keys[v] })
		for i := range ps {
			if keys[ps[i]] != keys[want[i]] {
				t.Fatalf("%d values: position %d holds %d (key %d), want key %d", tc.n, i, ps[i], keys[ps[i]], keys[want[i]])
			}
		}
		if slices.Sort(ps); !slices.Equal(ps, identity(tc.n)) {
			t.Fatalf("%d values: the result is not a permutation of them", tc.n)
		}
	}
}

func identity(n int) []uint64 {
	ps := make([]uint64, n)
	for i := range ps {
		ps[i] = uint64(i)
	}
	return ps
}

// TestPeriodBound checks Bound, the walk the coalesce operator reads its
// periods from, row by row against Element.AppendBound of the row's
// element, at MinChronon, a NOW inside the data and MaxChronon: on a
// first version, on a successor that removes rows and refills some of
// their slots, and on one whose removals compact the logs. Elements mix
// closed periods, [start, NOW], NOW-relative starts and NOW ± span ends;
// empty elements index nothing and must not be reported. The walk must
// not build the search form, and a false from yield must stop it.
func TestPeriodBound(t *testing.T) {
	r := rand.New(rand.NewSource(47))
	const d = 86400
	base := temporal.MustDate(1999, 1, 1)
	instant := func() temporal.Instant {
		if r.Intn(4) == 0 {
			return temporal.NowRelative(temporal.Span((r.Intn(240) - 120) * d))
		}
		return temporal.AbsInstant(base + temporal.Chronon(r.Intn(900)*d))
	}
	period := func() temporal.Period {
		switch r.Intn(4) {
		case 0:
			return temporal.Period{Start: temporal.AbsInstant(base + temporal.Chronon(r.Intn(900)*d)), End: temporal.Now}
		case 1:
			lo := base + temporal.Chronon(r.Intn(900)*d)
			return temporal.MustPeriod(lo, lo+temporal.Chronon(r.Intn(20)*d)+d-1)
		}
		p := temporal.Period{Start: instant(), End: instant()}
		lo, loAbs := p.Start.Chronon()
		hi, hiAbs := p.End.Chronon()
		if loAbs && hiAbs && hi < lo {
			p.Start, p.End = p.End, p.Start
		}
		return p
	}
	element := func() temporal.Element {
		ps := make([]temporal.Period, r.Intn(4)) // one in four is empty
		for i := range ps {
			ps[i] = period()
		}
		return temporal.MustElement(ps...)
	}

	const n = 500
	rows := map[int]temporal.Element{}
	b := NewPeriodBuilder(nil)
	for id := 0; id < n; id++ {
		rows[id] = element()
		b.AddElement(rows[id], id)
	}
	check := func(name string, ix *Period, rows map[int]temporal.Element) {
		t.Helper()
		for _, now := range []temporal.Chronon{temporal.MinChronon, temporal.MustDate(2000, 6, 15), temporal.MaxChronon} {
			got, seen := map[int][]temporal.Interval{}, map[int]bool{}
			ix.Bound(now, func(id int, iv temporal.Interval, ok bool) bool {
				seen[id] = true
				if ok {
					got[id] = append(got[id], iv)
				}
				return true
			})
			for id := range seen {
				if _, ok := rows[id]; !ok {
					t.Fatalf("%s, NOW %s: row %d is not in the version", name, now, id)
				}
			}
			for id, e := range rows {
				want := e.AppendBound(nil, now)
				byLo := func(a, b temporal.Interval) int { return cmp.Or(cmp.Compare(a.Lo, b.Lo), cmp.Compare(a.Hi, b.Hi)) }
				slices.SortFunc(want, byLo)
				slices.SortFunc(got[id], byLo)
				if !slices.Equal(got[id], want) {
					t.Fatalf("%s, NOW %s: row %d (%s) bound to %v, AppendBound says %v", name, now, id, e, got[id], want)
				}
				if seen[id] != (len(e.Periods()) > 0) {
					t.Fatalf("%s, NOW %s: row %d (%s) with %d periods reported: %v", name, now, id, e, len(e.Periods()), seen[id])
				}
			}
		}
		if ix.s != nil {
			t.Errorf("%s: Bound built the search form", name)
		}
	}
	v1 := b.Commit()
	check("first version", v1, rows)

	// Remove every third row; refill every other freed slot with a new
	// element, as a reused slot or an UPDATE does.
	b = NewPeriodBuilder(v1)
	rows2 := maps.Clone(rows)
	for id := 0; id < n; id += 3 {
		b.Remove(id)
		delete(rows2, id)
		if id%2 == 0 {
			rows2[id] = element()
			b.AddElement(rows2[id], id)
		}
	}
	v2 := b.Commit()
	if v2.gone[0] == nil {
		t.Fatal("the successor dropped nothing: the test no longer covers marked entries")
	}
	check("successor with removals", v2, rows2)
	check("first version after its successor", v1, rows)

	// Remove most of what is left: drop compacts both logs.
	b = NewPeriodBuilder(v2)
	rows3 := maps.Clone(rows2)
	for id := range rows2 {
		if id%4 != 1 {
			b.Remove(id)
			delete(rows3, id)
		}
	}
	v3 := b.Commit()
	if v3.gone[0] != nil || v3.gone[1] != nil || len(v3.closed)+len(v3.open) != v3.Len() {
		t.Fatalf("drop did not compact: %d closed, %d open, %d live", len(v3.closed), len(v3.open), v3.Len())
	}
	check("compacted successor", v3, rows3)
	check("marked version after compaction", v2, rows2)

	calls := 0
	v1.Bound(0, func(int, temporal.Interval, bool) bool {
		calls++
		return calls < 5
	})
	if calls != 5 {
		t.Errorf("Bound went on for %d entries after yield said stop at 5", calls)
	}
}
