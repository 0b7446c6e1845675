package temporal

import (
	"fmt"
	"math/rand"
	"testing"
)

// overlapsByMerge is the reference form of Overlaps: bind both elements
// to their canonical interval lists and merge-walk the two.
func overlapsByMerge(e, other Element, now Chronon) bool {
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

// genOverlapElement builds an element of up to 12 periods around 2000:
// absolute, NOW-relative at either end, adjacent to the previous period,
// or binding empty before 2000 ([2000-01-01, NOW]).
func genOverlapElement(r *rand.Rand) Element {
	base := MustDate(1999, 6, 1)
	abs := func() Instant { return AbsInstant(base + Chronon(r.Int63n(int64(400*Day)))) }
	rel := func() Instant { return NowRelative(Span(r.Int63n(int64(120*Day))) - 60*Day) }
	periods := make([]Period, r.Intn(13))
	for i := range periods {
		var p Period
		switch r.Intn(6) {
		case 0:
			p = Period{Start: MustDate(2000, 1, 1).Instant(), End: Now}
		case 1:
			p = Period{Start: abs(), End: rel()}
		case 2:
			p = Period{Start: rel(), End: abs()}
		case 3:
			if i > 0 {
				if hi, ok := periods[i-1].End.Chronon(); ok {
					lo := hi + 1
					p = MustPeriod(lo, lo+Chronon(r.Int63n(int64(5*Day))))
					break
				}
			}
			fallthrough
		default:
			lo := base + Chronon(r.Int63n(int64(400*Day)))
			p = MustPeriod(lo, lo+Chronon(r.Int63n(int64(20*Day))))
		}
		periods[i] = p
	}
	e, err := MakeElement(periods...)
	if err != nil {
		panic(err)
	}
	return e
}

// TestOverlapsMatchesMerge checks the pairwise Overlaps against the
// bind-and-merge reference on generated elements, at moments before and
// after 2000 so NOW-relative periods move and some bind empty. Element
// sizes reach 12 × 12 periods, past the pairwise limit, so both of
// Overlaps' paths run.
func TestOverlapsMatchesMerge(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	nows := []Chronon{MustDate(1999, 11, 12), MustDate(2000, 1, 1), MustDate(2000, 3, 15)}
	for trial := 0; trial < 4000; trial++ {
		a, b := genOverlapElement(r), genOverlapElement(r)
		for _, now := range nows {
			if got, want := a.Overlaps(b, now), overlapsByMerge(a, b, now); got != want {
				t.Fatalf("at %s: %s overlaps %s = %v, reference %v", now, a, b, got, want)
			}
		}
	}
}

// disjointSquare returns two n-period elements whose periods interleave
// without meeting (a's on days 4k, b's on days 4k+2), the worst case for
// both Overlaps paths: neither can stop early. With rel set every
// period is NOW-relative, so Bind must also sort its result.
func disjointSquare(n int, rel bool) (Element, Element) {
	at := func(day int) Period {
		lo := Span(day)*Day - 2000*Day
		if rel {
			return Period{Start: NowRelative(lo), End: NowRelative(lo + Day/2)}
		}
		return MustPeriod(testNow+Chronon(lo), testNow+Chronon(lo+Day/2))
	}
	var ps, qs []Period
	for k := 0; k < n; k++ {
		ps = append(ps, at(4*k))
		qs = append(qs, at(4*k+2))
	}
	return MustElement(ps...), MustElement(qs...)
}

// TestOverlapsAcrossPairLimit runs both Overlaps paths on square
// elements below and above overlapsPairLimit: disjoint ones never
// overlap, and one extra period meeting a's last period always does.
func TestOverlapsAcrossPairLimit(t *testing.T) {
	for _, rel := range []bool{false, true} {
		for _, n := range []int{2, 4, 5, 8, 32} {
			a, b := disjointSquare(n, rel)
			if n*n <= overlapsPairLimit == (n > 4) {
				t.Fatalf("n=%d on the unexpected side of overlapsPairLimit", n)
			}
			if a.Overlaps(b, testNow) || b.Overlaps(a, testNow) {
				t.Errorf("rel=%v n=%d: disjoint elements overlap", rel, n)
			}
			last := a.periods[len(a.periods)-1]
			hit := MustElement(append(append([]Period(nil), b.periods...), last)...)
			if !a.Overlaps(hit, testNow) || !hit.Overlaps(a, testNow) {
				t.Errorf("rel=%v n=%d: shared last period not found", rel, n)
			}
		}
	}
}

// BenchmarkOverlapsSquare times the pairwise test against the
// bind-and-merge walk on disjoint n × n elements, the measurement behind
// overlapsPairLimit.
func BenchmarkOverlapsSquare(b *testing.B) {
	for _, rel := range []bool{false, true} {
		for _, n := range []int{2, 4, 5, 6, 8, 16, 32} {
			e, o := disjointSquare(n, rel)
			name := fmt.Sprintf("rel=%v/n=%d", rel, n)
			b.Run(name+"/pairwise", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if overlapsPairwise(e.periods, o.periods, testNow) {
						b.Fatal("disjoint elements overlap")
					}
				}
			})
			b.Run(name+"/merge", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if overlapsByMerge(e, o, testNow) {
						b.Fatal("disjoint elements overlap")
					}
				}
			})
		}
	}
}

func TestOverlapsAllocs(t *testing.T) {
	a := MustElement(MustPeriod(MustDate(1999, 1, 1), MustDate(1999, 3, 1)),
		Period{Start: MustDate(1999, 6, 1).Instant(), End: Now})
	b := MustPeriod(MustDate(1999, 8, 1), MustDate(1999, 9, 1)).Element()
	if n := testing.AllocsPerRun(100, func() { a.Overlaps(b, testNow) }); n != 0 {
		t.Errorf("Overlaps of small elements allocates %.0f times; want 0", n)
	}
}
