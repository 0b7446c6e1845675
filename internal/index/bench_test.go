package index

import (
	"math/rand"
	"testing"

	"tip/internal/temporal"
)

// BenchmarkPeriodOverlapping times the period index on the referee's
// Prescription distribution: 20,000 rows of 1-3 periods of 1-90 days
// starting over 1,000 days, one row in ten ending in [start, NOW], asked
// 1-3-day windows at a NOW after every start. probe is one exact search
// of a built version; build+probe commits a one-period write and runs the
// new version's first search, which builds its search form.
func BenchmarkPeriodOverlapping(b *testing.B) {
	const (
		rows    = 20000
		horizon = 1000
		maxLen  = 90
		d       = 86400
	)
	base := temporal.MustDate(1997, 1, 1)
	now := temporal.MustDate(1999, 11, 12) + d - 1
	r := rand.New(rand.NewSource(1))
	bld := NewPeriodBuilder(nil)
	for id := 0; id < rows; id++ {
		n := 1 + r.Intn(3)
		ps := make([]temporal.Period, 0, n)
		for k := 0; k < n; k++ {
			lo := base + temporal.Chronon(r.Intn(horizon)*d)
			if k == n-1 && r.Intn(10) == 0 {
				ps = append(ps, temporal.Period{Start: temporal.AbsInstant(lo), End: temporal.Now})
				break
			}
			ps = append(ps, temporal.MustPeriod(lo, lo+temporal.Chronon((1+r.Intn(maxLen))*d)-1))
		}
		bld.AddElement(temporal.MustElement(ps...), id)
	}
	v := bld.Commit()
	windows := make([][]temporal.Interval, 256)
	for i := range windows {
		lo := base + temporal.Chronon(r.Intn(horizon)*d)
		windows[i] = []temporal.Interval{{Lo: lo, Hi: lo + temporal.Chronon((1+r.Intn(3))*d) - 1}}
	}
	var h Hits
	hits := 0
	b.Run("probe", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			v.Overlapping(&h, windows[i%len(windows)], now)
			hits += h.Drain()
		}
	})
	write := temporal.MustPeriod(base, base+d-1)
	b.Run("build+probe", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			wb := NewPeriodBuilder(v)
			wb.AddPeriod(write, rows)
			wb.Commit().Overlapping(&h, windows[i%len(windows)], now)
			hits += h.Drain()
		}
	})
	if hits == 0 {
		b.Fatal("no window matched any row")
	}
}
