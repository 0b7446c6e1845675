package index

import (
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"tip/internal/temporal"
)

func TestHashIndex(t *testing.T) {
	h := NewHash()
	h.Add("a", 1, 1, 1)
	h.Add("a", 2, 1, 1)
	h.Add("b", 3, 1, 1)
	if got := h.Lookup("a", 1, nil); len(got) != 2 {
		t.Errorf("lookup a = %v", got)
	}
	if got := h.Lookup("missing", 1, nil); got != nil {
		t.Errorf("lookup missing = %v", got)
	}
	h.Remove("a", 1, 2, 0)
	if got := h.Lookup("a", 2, nil); len(got) != 1 || got[0] != 2 {
		t.Errorf("after remove = %v", got)
	}
	// A snapshot from before the remove still sees both postings.
	if got := h.Lookup("a", 1, nil); len(got) != 2 {
		t.Errorf("old snapshot after remove = %v", got)
	}
	// A snapshot from before an add does not see it.
	h.Add("c", 4, 5, 5)
	if got := h.Lookup("c", 4, nil); len(got) != 0 {
		t.Errorf("pre-add snapshot = %v", got)
	}
	h.Remove("a", 2, 3, 0)
	if h.Len() != 2 { // "b" and "c" still have live postings
		t.Errorf("len = %d", h.Len())
	}
	// Removing a non-existent entry is a no-op.
	h.Remove("zzz", 9, 4, 0)
}

func TestHashUndo(t *testing.T) {
	h := NewHash()
	h.Add("a", 1, 1, 1)
	// A discarded statement's add is physically removed.
	h.Add("a", 2, 5, 1)
	h.UndoAdd("a", 2, 5)
	if got := h.Lookup("a", 9, nil); len(got) != 1 || got[0] != 1 {
		t.Errorf("after UndoAdd = %v", got)
	}
	// A discarded statement's remove is revived.
	h.Remove("a", 1, 6, 0)
	h.UndoRemove("a", 1, 6)
	if got := h.Lookup("a", 9, nil); len(got) != 1 || got[0] != 1 {
		t.Errorf("after UndoRemove = %v", got)
	}
	// UndoAdd of the only posting drops the key.
	h.Add("solo", 3, 7, 1)
	h.UndoAdd("solo", 3, 7)
	if got := h.Lookup("solo", 9, nil); got != nil {
		t.Errorf("key survived UndoAdd = %v", got)
	}
}

func TestHashDeadPostingGC(t *testing.T) {
	h := NewHash()
	for seq := uint64(1); seq <= 100; seq++ {
		h.Add("k", int(seq), seq, seq)
		h.Remove("k", int(seq), seq, 0)
	}
	// Every posting died behind the horizon; one more add reclaims them.
	h.Add("k", 999, 101, 101)
	h.mu.RLock()
	n := len(h.m["k"])
	h.mu.RUnlock()
	if n > 2 {
		t.Errorf("dead postings not reclaimed: %d postings remain", n)
	}
}

// TestHashRemoveSideGC is the regression test for delete-heavy keys:
// a key that sees removals but no further adds must not accumulate
// dead postings, since Add-side reclamation never visits it.
func TestHashRemoveSideGC(t *testing.T) {
	h := NewHash()
	for i := 0; i < 100; i++ {
		h.Add("k", i, 1, 0)
	}
	for i := 0; i < 100; i++ {
		seq := uint64(2 + i)
		h.Remove("k", i, seq, seq-1)
	}
	h.mu.RLock()
	n := len(h.m["k"])
	h.mu.RUnlock()
	// Each removal reclaims the previous removals' dead postings along
	// with the still-live tail; only the most recent kill (kept for its
	// Discard path) may linger.
	if n > 1 {
		t.Errorf("delete-heavy key kept %d postings, want <= 1", n)
	}
	// The kill of the final Remove must survive its own call so a
	// discarded statement can revive it.
	h.Remove("solo", 0, 5, 9) // no-op: key never existed
	h.Add("solo", 1, 5, 0)
	h.Remove("solo", 1, 6, 9) // horizon ahead of seq: posting still kept
	h.UndoRemove("solo", 1, 6)
	if got := h.Lookup("solo", 7, nil); len(got) != 1 || got[0] != 1 {
		t.Errorf("killed posting was reclaimed by its own Remove: %v", got)
	}
}

// TestHashConcurrentLookupRemove is the regression test for the old
// Lookup slice-aliasing bug: Lookup used to return the live internal
// slice while Remove swap-mutated it. Under -race this test fails on
// that implementation; with versioned postings behind a latch the
// scans are stable and race-free.
func TestHashConcurrentLookupRemove(t *testing.T) {
	h := NewHash()
	const n = 1000
	for i := 0; i < n; i++ {
		h.Add("k", i, 1, 1)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for seq := uint64(2); seq < 2+n; seq++ {
			h.Remove("k", int(seq-2), seq, 1)
		}
		close(stop)
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				// A snapshot pinned before every remove sees all ids.
				got := h.Lookup("k", 1, nil)
				if len(got) != n {
					t.Errorf("snapshot scan saw %d ids, want %d", len(got), n)
					return
				}
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
	}
	wg.Wait()
	if got := h.Lookup("k", 2+n, nil); len(got) != 0 {
		t.Errorf("after all removes = %v", got)
	}
}

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
