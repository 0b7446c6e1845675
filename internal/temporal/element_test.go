package temporal

import (
	"math/rand"
	"sort"
	"testing"
)

// el parses an element literal, failing the test on error.
func el(t *testing.T, s string) Element {
	t.Helper()
	e, err := ParseElement(s)
	if err != nil {
		t.Fatalf("ParseElement(%q): %v", s, err)
	}
	return e
}

var testNow = MustDate(1999, 11, 12)

func TestElementCanonicalForm(t *testing.T) {
	tests := []struct {
		name, in, want string
	}{
		{"already canonical", "{[1999-01-01, 1999-04-30], [1999-07-01, 1999-10-31]}",
			"{[1999-01-01, 1999-04-30], [1999-07-01, 1999-10-31]}"},
		{"unsorted", "{[1999-07-01, 1999-10-31], [1999-01-01, 1999-04-30]}",
			"{[1999-01-01, 1999-04-30], [1999-07-01, 1999-10-31]}"},
		{"overlapping merge", "{[1999-01-01, 1999-06-30], [1999-03-01, 1999-10-31]}",
			"{[1999-01-01, 1999-10-31]}"},
		{"adjacent chronons merge", "{[1999-01-01, 1999-01-01 11:59:59], [1999-01-01 12:00:00, 1999-01-02]}",
			"{[1999-01-01, 1999-01-02]}"},
		{"contained absorbed", "{[1999-01-01, 1999-12-31], [1999-03-01, 1999-04-01]}",
			"{[1999-01-01, 1999-12-31]}"},
		{"duplicates collapse", "{[1999-01-01, 1999-02-01], [1999-01-01, 1999-02-01]}",
			"{[1999-01-01, 1999-02-01]}"},
		{"empty", "{}", "{}"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := el(t, tt.in).String(); got != tt.want {
				t.Errorf("canonical form = %q, want %q", got, tt.want)
			}
		})
	}
}

func TestElementUnion(t *testing.T) {
	tests := []struct {
		name, a, b, want string
	}{
		{"disjoint", "{[1999-01-01, 1999-02-01]}", "{[1999-06-01, 1999-07-01]}",
			"{[1999-01-01, 1999-02-01], [1999-06-01, 1999-07-01]}"},
		{"overlapping", "{[1999-01-01, 1999-05-01]}", "{[1999-03-01, 1999-07-01]}",
			"{[1999-01-01, 1999-07-01]}"},
		{"with empty", "{[1999-01-01, 1999-02-01]}", "{}",
			"{[1999-01-01, 1999-02-01]}"},
		{"interleaved", "{[1999-01-01, 1999-02-01], [1999-05-01, 1999-06-01]}",
			"{[1999-03-01, 1999-04-01], [1999-07-01, 1999-08-01]}",
			"{[1999-01-01, 1999-02-01], [1999-03-01, 1999-04-01], [1999-05-01, 1999-06-01], [1999-07-01, 1999-08-01]}"},
		{"bridging", "{[1999-01-01, 1999-03-01], [1999-05-01, 1999-07-01]}",
			"{[1999-02-01, 1999-06-01]}",
			"{[1999-01-01, 1999-07-01]}"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			a, b := el(t, tt.a), el(t, tt.b)
			if got := a.Union(b, testNow).String(); got != tt.want {
				t.Errorf("Union = %q, want %q", got, tt.want)
			}
			// Union is commutative.
			if got := b.Union(a, testNow).String(); got != tt.want {
				t.Errorf("reversed Union = %q, want %q", got, tt.want)
			}
		})
	}
}

func TestElementIntersect(t *testing.T) {
	tests := []struct {
		name, a, b, want string
	}{
		{"disjoint", "{[1999-01-01, 1999-02-01]}", "{[1999-06-01, 1999-07-01]}", "{}"},
		{"overlap", "{[1999-01-01, 1999-05-01]}", "{[1999-03-01, 1999-07-01]}",
			"{[1999-03-01, 1999-05-01]}"},
		{"shared endpoint", "{[1999-01-01, 1999-03-01]}", "{[1999-03-01, 1999-07-01]}",
			"{[1999-03-01, 1999-03-01]}"},
		{"multi", "{[1999-01-01, 1999-04-01], [1999-06-01, 1999-09-01]}",
			"{[1999-03-01, 1999-07-01]}",
			"{[1999-03-01, 1999-04-01], [1999-06-01, 1999-07-01]}"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			a, b := el(t, tt.a), el(t, tt.b)
			if got := a.Intersect(b, testNow).String(); got != tt.want {
				t.Errorf("Intersect = %q, want %q", got, tt.want)
			}
			if got := b.Intersect(a, testNow).String(); got != tt.want {
				t.Errorf("reversed Intersect = %q, want %q", got, tt.want)
			}
		})
	}
}

func TestElementDifference(t *testing.T) {
	tests := []struct {
		name, a, b, want string
	}{
		{"carve middle", "{[1999-01-01, 1999-12-31]}", "{[1999-04-01, 1999-06-01]}",
			"{[1999-01-01, 1999-03-31 23:59:59], [1999-06-01 00:00:01, 1999-12-31]}"},
		{"remove all", "{[1999-03-01, 1999-04-01]}", "{[1999-01-01, 1999-12-31]}", "{}"},
		{"no overlap", "{[1999-01-01, 1999-02-01]}", "{[1999-06-01, 1999-07-01]}",
			"{[1999-01-01, 1999-02-01]}"},
		{"clip start", "{[1999-01-01, 1999-06-01]}", "{[1998-01-01, 1999-03-01]}",
			"{[1999-03-01 00:00:01, 1999-06-01]}"},
		{"one b spans two a", "{[1999-01-01, 1999-02-01], [1999-03-01, 1999-04-01]}",
			"{[1999-01-15, 1999-03-15]}",
			"{[1999-01-01, 1999-01-14 23:59:59], [1999-03-15 00:00:01, 1999-04-01]}"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			a, b := el(t, tt.a), el(t, tt.b)
			if got := a.Difference(b, testNow).String(); got != tt.want {
				t.Errorf("Difference = %q, want %q", got, tt.want)
			}
		})
	}
}

func TestElementComplement(t *testing.T) {
	e := el(t, "{[1999-01-01, 1999-12-31]}")
	c := e.Complement(testNow)
	if c.NumPeriods() != 2 {
		t.Fatalf("Complement has %d periods", c.NumPeriods())
	}
	// Complement of the complement is the original.
	if got := c.Complement(testNow).String(); got != e.String() {
		t.Errorf("double complement = %q", got)
	}
	// Full line complements to empty.
	full := elementOf([]Interval{{Lo: MinChronon, Hi: MaxChronon}})
	if !full.Complement(testNow).IsEmpty() {
		t.Error("complement of full line should be empty")
	}
}

func TestElementPredicates(t *testing.T) {
	a := el(t, "{[1999-01-01, 1999-04-30], [1999-07-01, 1999-10-31]}")
	b := el(t, "{[1999-04-01, 1999-08-01]}")
	c := el(t, "{[1999-05-01, 1999-06-30]}")
	if !a.Overlaps(b, testNow) {
		t.Error("a should overlap b")
	}
	if a.Overlaps(c, testNow) {
		t.Error("a should not overlap the gap element")
	}
	if !a.Contains(el(t, "{[1999-02-01, 1999-03-01]}"), testNow) {
		t.Error("a should contain a sub-period")
	}
	if a.Contains(b, testNow) {
		t.Error("a should not contain b")
	}
	if !a.ContainsChronon(MustDate(1999, 8, 15), testNow) {
		t.Error("a should contain 1999-08-15")
	}
	if a.ContainsChronon(MustDate(1999, 5, 15), testNow) {
		t.Error("a should not contain 1999-05-15")
	}
}

func TestElementStartEndLength(t *testing.T) {
	a := el(t, "{[1999-01-01, 1999-01-08], [1999-07-01, 1999-07-02]}")
	s, ok := a.Start(testNow)
	if !ok || s != MustDate(1999, 1, 1) {
		t.Errorf("Start = %v, %v", s, ok)
	}
	e, ok := a.End(testNow)
	if !ok || e != MustDate(1999, 7, 2) {
		t.Errorf("End = %v, %v", e, ok)
	}
	if got := a.Length(testNow); got != Week+Day {
		t.Errorf("Length = %v, want 8 days", got)
	}
	if _, ok := EmptyElement.Start(testNow); ok {
		t.Error("empty element should have no start")
	}
	if _, ok := EmptyElement.End(testNow); ok {
		t.Error("empty element should have no end")
	}
}

func TestElementNowRelative(t *testing.T) {
	since99 := el(t, "{[1999-01-01, NOW]}")
	if since99.Determinate() {
		t.Error("element with NOW should not be determinate")
	}
	ivs := since99.Bind(testNow)
	if len(ivs) != 1 || ivs[0].Hi != testNow {
		t.Errorf("Bind = %v", ivs)
	}
	// The same element grows as time advances.
	later := MustDate(2000, 6, 1)
	if since99.Length(later) <= since99.Length(testNow) {
		t.Error("NOW-relative element should grow over time")
	}
	// Binding produces a determinate element.
	bound := since99.BoundElement(testNow)
	if !bound.Determinate() {
		t.Error("BoundElement should be determinate")
	}
	if got := bound.String(); got != "{[1999-01-01, 1999-11-12]}" {
		t.Errorf("BoundElement = %q", got)
	}
}

func TestElementNowRelativeEmptyPeriodVanishes(t *testing.T) {
	e := el(t, "{[2000-01-01, NOW], [1998-01-01, 1998-06-01]}")
	ivs := e.Bind(testNow) // NOW is 1999: first period empty
	if len(ivs) != 1 || ivs[0].Lo != MustDate(1998, 1, 1) {
		t.Errorf("Bind = %v", ivs)
	}
}

func TestElementEqualAndShift(t *testing.T) {
	a := el(t, "{[1999-01-01, 1999-02-01]}")
	b := el(t, "{[1999-01-01, 1999-01-15], [1999-01-10, 1999-02-01]}")
	if !a.Equal(b, testNow) {
		t.Error("denotationally equal elements should be Equal")
	}
	shifted, err := a.Shift(Week)
	if err != nil {
		t.Fatal(err)
	}
	if got := shifted.String(); got != "{[1999-01-08, 1999-02-08]}" {
		t.Errorf("Shift = %q", got)
	}
}

func TestElementFirstLast(t *testing.T) {
	a := el(t, "{[1999-01-01, 1999-02-01], [1999-06-01, 1999-07-01]}")
	f, ok := a.First()
	if !ok || f.String() != "[1999-01-01, 1999-02-01]" {
		t.Errorf("First = %v, %v", f, ok)
	}
	l, ok := a.Last()
	if !ok || l.String() != "[1999-06-01, 1999-07-01]" {
		t.Errorf("Last = %v, %v", l, ok)
	}
}

// randomElement builds an element of n random periods within a fixed
// window, for property tests.
func randomElement(r *rand.Rand, n int) Element {
	base := int64(MustDate(1990, 1, 1))
	periods := make([]Period, n)
	for i := range periods {
		lo := base + r.Int63n(int64(10*365*Day))
		hi := lo + r.Int63n(int64(30*Day))
		periods[i] = MustPeriod(Chronon(lo), Chronon(hi))
	}
	e, err := MakeElement(periods...)
	if err != nil {
		panic(err)
	}
	return e
}

// containsPoint checks membership by the definition (any period contains
// the chronon), independent of the algebra implementation.
func containsPoint(e Element, c Chronon) bool {
	for _, iv := range e.Bind(testNow) {
		if iv.Contains(c) {
			return true
		}
	}
	return false
}

// TestElementAlgebraPointwise cross-checks union/intersect/difference
// against pointwise set semantics on random data.
func TestElementAlgebraPointwise(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		a := randomElement(r, 1+r.Intn(8))
		b := randomElement(r, 1+r.Intn(8))
		u := a.Union(b, testNow)
		i := a.Intersect(b, testNow)
		d := a.Difference(b, testNow)
		for probe := 0; probe < 200; probe++ {
			c := Chronon(int64(MustDate(1990, 1, 1)) + r.Int63n(int64(11*365*Day)))
			inA, inB := containsPoint(a, c), containsPoint(b, c)
			if got := containsPoint(u, c); got != (inA || inB) {
				t.Fatalf("union wrong at %s: got %v, a=%v b=%v", c, got, inA, inB)
			}
			if got := containsPoint(i, c); got != (inA && inB) {
				t.Fatalf("intersect wrong at %s: got %v, a=%v b=%v", c, got, inA, inB)
			}
			if got := containsPoint(d, c); got != (inA && !inB) {
				t.Fatalf("difference wrong at %s: got %v, a=%v b=%v", c, got, inA, inB)
			}
		}
	}
}

// TestElementAlgebraLaws checks algebraic identities on random elements.
func TestElementAlgebraLaws(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		a := randomElement(r, 1+r.Intn(6))
		b := randomElement(r, 1+r.Intn(6))
		c := randomElement(r, 1+r.Intn(6))
		eq := func(x, y Element, law string) {
			t.Helper()
			if !x.Equal(y, testNow) {
				t.Fatalf("%s violated:\n  %s\n  %s", law, x, y)
			}
		}
		eq(a.Union(b, testNow), b.Union(a, testNow), "union commutativity")
		eq(a.Intersect(b, testNow), b.Intersect(a, testNow), "intersect commutativity")
		eq(a.Union(a, testNow), a, "union idempotence")
		eq(a.Intersect(a, testNow), a, "intersect idempotence")
		eq(a.Union(b.Union(c, testNow), testNow), a.Union(b, testNow).Union(c, testNow),
			"union associativity")
		eq(a.Intersect(b.Intersect(c, testNow), testNow), a.Intersect(b, testNow).Intersect(c, testNow),
			"intersect associativity")
		eq(a.Difference(b, testNow), a.Intersect(b.Complement(testNow), testNow),
			"difference as intersect-with-complement")
		eq(a.Union(b, testNow).Complement(testNow),
			a.Complement(testNow).Intersect(b.Complement(testNow), testNow),
			"De Morgan")
		eq(a.Intersect(b.Union(c, testNow), testNow),
			a.Intersect(b, testNow).Union(a.Intersect(c, testNow), testNow),
			"distributivity")
		// Overlaps agrees with a non-empty intersection.
		if a.Overlaps(b, testNow) != !a.Intersect(b, testNow).IsEmpty() {
			t.Fatal("overlaps disagrees with intersect emptiness")
		}
		// Contains agrees with difference emptiness.
		if a.Contains(b, testNow) != b.Difference(a, testNow).IsEmpty() {
			t.Fatal("contains disagrees with difference emptiness")
		}
		// Length of union ≤ sum of lengths (the paper's coalescing point).
		if a.Union(b, testNow).Length(testNow) > a.Length(testNow)+b.Length(testNow) {
			t.Fatal("union length exceeds sum of lengths")
		}
	}
}

func TestNormalizeStability(t *testing.T) {
	// Normalisation of canonical input is the identity.
	ivs := []Interval{
		{Lo: MustDate(1999, 1, 1), Hi: MustDate(1999, 2, 1)},
		{Lo: MustDate(1999, 6, 1), Hi: MustDate(1999, 7, 1)},
	}
	out := normalize(ivs)
	if len(out) != 2 || out[0] != ivs[0] || out[1] != ivs[1] {
		t.Errorf("normalize changed canonical input: %v", out)
	}
}

// normalize sorts unsorted input and merges it into the canonical form:
// sorted, disjoint, non-adjacent intervals whose endpoints are input
// endpoints, with every input interval inside one of them.
func TestSortIntervals(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		n := r.Intn(200)
		ivs := make([]Interval, n)
		los, his := map[Chronon]bool{}, map[Chronon]bool{}
		for i := range ivs {
			lo := Chronon(r.Int63n(1 << 18)) // dense enough to merge
			ivs[i] = Interval{Lo: lo, Hi: lo + Chronon(r.Int63n(1000))}
			los[lo], his[ivs[i].Hi] = true, true
		}
		out := normalize(ivs)
		for i, o := range out {
			if i > 0 && o.Lo <= out[i-1].Hi+1 {
				t.Fatalf("trial %d: %v and %v are not sorted, disjoint and apart", trial, out[i-1], o)
			}
			if !los[o.Lo] || !his[o.Hi] {
				t.Fatalf("trial %d: %v has an endpoint no input has", trial, o)
			}
		}
		for _, iv := range ivs {
			j := sort.Search(len(out), func(k int) bool { return out[k].Lo > iv.Lo }) - 1
			if j < 0 || out[j].Hi < iv.Hi {
				t.Fatalf("trial %d: input %v is in no output interval", trial, iv)
			}
		}
	}
}
