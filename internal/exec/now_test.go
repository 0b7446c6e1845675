package exec_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"tip/internal/temporal"
)

// TestNowRelativeLiteralPerExecution runs one cached statement text with
// a NOW-relative literal under two SET NOW values and then under a moved
// engine clock, on one session. Call sites convert a literal argument
// once and the scan folds its probe, so this pins that both happen per
// execution: every run must return its own NOW's model answer.
func TestNowRelativeLiteralPerExecution(t *testing.T) {
	s := newDB(t)
	mustExec(t, s, `CREATE TABLE rx (id INT, valid Element)`)
	const day = 86400
	base := temporal.MustDate(1999, 1, 1)
	type span struct{ lo, hi temporal.Chronon }
	var spans []span
	var vals []string
	for i := 0; i < 400; i++ {
		// Rows thicken through the year, so windows ending at different
		// moments count different numbers of rows.
		lo := base + temporal.Chronon(int(365*math.Sqrt(float64(i)/400))*day)
		hi := lo + temporal.Chronon((i%9+1)*day) - 1
		spans = append(spans, span{lo, hi})
		vals = append(vals, fmt.Sprintf("(%d, '%s')", i, temporal.MustPeriod(lo, hi).Element()))
	}
	mustExec(t, s, "INSERT INTO rx VALUES "+strings.Join(vals, ", "))
	mustExec(t, s, `CREATE INDEX rx_valid ON rx (valid) USING PERIOD`)

	// The model answer: rows whose [lo, hi] meets [now-30 days, now].
	model := func(now temporal.Chronon) int64 {
		var n int64
		for _, sp := range spans {
			if sp.lo <= now && now-30*day <= sp.hi {
				n++
			}
		}
		return n
	}
	const q = `SELECT COUNT(*) FROM rx WHERE overlaps(valid, '[NOW-30, NOW]')`
	check := func(now temporal.Chronon) {
		t.Helper()
		hits := counter(s, "plancache.hits")
		got := mustExec(t, s, q).Rows[0][0].Int()
		if counter(s, "plancache.hits") != hits+1 {
			t.Fatalf("%s was not served from the plan cache", q)
		}
		if want := model(now); got != want {
			t.Errorf("NOW = %s: COUNT(*) = %d, model %d", now, got, want)
		}
	}
	mustExec(t, s, q) // cache the statement text

	answers := map[int64]bool{}
	for _, now := range []temporal.Chronon{temporal.MustDate(1999, 3, 15), temporal.MustDate(1999, 8, 20)} {
		mustExec(t, s, fmt.Sprintf(`SET NOW = '%s'`, now))
		check(now)
		answers[model(now)] = true
	}
	mustExec(t, s, `SET NOW = DEFAULT`)
	moved := temporal.MustDate(1999, 12, 10)
	s.Database().SetClock(func() temporal.Chronon { return moved })
	check(moved)
	answers[model(moved)] = true
	if len(answers) != 3 {
		t.Fatalf("the three moments share model answers %v; pick moments that tell them apart", answers)
	}
}
