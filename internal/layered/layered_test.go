package layered_test

import (
	"fmt"
	"math/rand"
	"testing"

	"tip/internal/blade"
	"tip/internal/core"
	"tip/internal/engine"
	"tip/internal/layered"
	"tip/internal/temporal"
	"tip/internal/types"
)

var testNow = temporal.MustDate(1999, 11, 12)

// newSessions builds two independent databases: a TIP-enabled one and a
// plain one for the stratum (a real stratum sits on a backend without
// temporal support).
func newSessions(t *testing.T) (*engine.Session, *layered.Stratum, *core.Blade) {
	t.Helper()
	reg := blade.NewRegistry()
	b, err := core.Register(reg)
	if err != nil {
		t.Fatal(err)
	}
	tipDB := engine.New(reg)
	tipDB.SetClock(func() temporal.Chronon { return testNow })
	flatDB := engine.New(blade.NewRegistry())
	flatDB.SetClock(func() temporal.Chronon { return testNow })
	return tipDB.NewSession(), layered.New(flatDB.NewSession()), b
}

// day n is n days after 1999-01-01 at midnight.
func day(n int) temporal.Chronon {
	return temporal.MustDate(1999, 1, 1) + temporal.Chronon(n*86400)
}

// randomPatientData builds per-patient period sets, loading both the TIP
// table and the flat stratum table with identical data.
func randomPatientData(t *testing.T, tip *engine.Session, st *layered.Stratum, b *core.Blade,
	patients, periodsPer int, seed int64) map[string]temporal.Element {
	t.Helper()
	if _, err := tip.Exec(`CREATE TABLE rx (patient VARCHAR(10), valid Element)`, nil); err != nil {
		t.Fatal(err)
	}
	if err := st.CreateTemporalTable("rx", "patient VARCHAR(10)"); err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(seed))
	truth := make(map[string]temporal.Element)
	for p := 0; p < patients; p++ {
		name := fmt.Sprintf("p%02d", p)
		var all []temporal.Period
		for k := 0; k < periodsPer; k++ {
			lo := r.Intn(300)
			hi := lo + 1 + r.Intn(60)
			pd := temporal.MustPeriod(day(lo), day(hi))
			all = append(all, pd)
			el := pd.Element()
			if _, err := tip.Exec(`INSERT INTO rx VALUES (:p, :v)`, map[string]types.Value{
				"p": types.NewString(name), "v": b.ElementValue(el)}); err != nil {
				t.Fatal(err)
			}
			if err := st.Insert("rx", []string{"patient"}, []types.Value{types.NewString(name)}, el); err != nil {
				t.Fatal(err)
			}
		}
		e, err := temporal.MakeElement(all...)
		if err != nil {
			t.Fatal(err)
		}
		truth[name] = e
	}
	return truth
}

// TestCoalesceAgreesWithTIP is the core stratum correctness check: the
// classic layered coalescing SQL and TIP's group_union must produce the
// same coalesced periods.
func TestCoalesceAgreesWithTIP(t *testing.T) {
	tip, st, b := newSessions(t)
	truth := randomPatientData(t, tip, st, b, 6, 5, 42)

	// Layered result.
	res, err := st.Coalesce("rx", "patient")
	if err != nil {
		t.Fatal(err)
	}
	layeredGot := make(map[string][]temporal.Interval)
	for _, row := range res.Rows {
		p := row[0].Str()
		layeredGot[p] = append(layeredGot[p], temporal.Interval{
			Lo: temporal.Chronon(row[1].Int()), Hi: temporal.Chronon(row[2].Int())})
	}
	for p, want := range truth {
		got := layeredGot[p]
		wantIvs := want.Bind(testNow)
		if len(got) != len(wantIvs) {
			t.Errorf("%s: layered %d periods, truth %d", p, len(got), len(wantIvs))
			continue
		}
		// Order within the layered result is unspecified; match by set.
		seen := make(map[temporal.Interval]bool)
		for _, iv := range got {
			seen[iv] = true
		}
		for _, iv := range wantIvs {
			if !seen[iv] {
				t.Errorf("%s: missing coalesced period %v", p, iv)
			}
		}
	}

	// TIP result via group_union, against the same truth.
	res, err = tip.Exec(`SELECT patient, group_union(valid) FROM rx GROUP BY patient`, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		p := row[0].Str()
		got := row[1].Obj().(temporal.Element)
		if !got.Equal(truth[p], testNow) {
			t.Errorf("%s: TIP %s, truth %s", p, got, truth[p])
		}
	}
}

// TestTotalDurationAgrees compares the full Q4 pipeline: layered
// total-duration SQL vs TIP's length(group_union(valid)).
func TestTotalDurationAgrees(t *testing.T) {
	tip, st, b := newSessions(t)
	_ = randomPatientData(t, tip, st, b, 5, 4, 7)

	layeredRes, err := st.TotalDuration("rx", "patient")
	if err != nil {
		t.Fatal(err)
	}
	layeredTotal := make(map[string]int64)
	for _, row := range layeredRes.Rows {
		layeredTotal[row[0].Str()] = row[1].Int()
	}

	tipRes, err := tip.Exec(`SELECT patient, length(group_union(valid)) FROM rx GROUP BY patient`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(tipRes.Rows) != len(layeredRes.Rows) {
		t.Fatalf("group counts differ: tip %d, layered %d", len(tipRes.Rows), len(layeredRes.Rows))
	}
	for _, row := range tipRes.Rows {
		p := row[0].Str()
		tipSpan := row[1].Obj().(temporal.Span)
		if int64(tipSpan) != layeredTotal[p] {
			t.Errorf("%s: tip %d seconds, layered %d", p, int64(tipSpan), layeredTotal[p])
		}
	}
}

// TestOverlapJoinAgrees compares the Q3 temporal self-join: the layered
// fragment join, re-coalesced, must denote the same chronons as TIP's
// intersect.
func TestOverlapJoinAgrees(t *testing.T) {
	tip, st, b := newSessions(t)
	if _, err := tip.Exec(`CREATE TABLE rx (patient VARCHAR(10), drug VARCHAR(10), valid Element)`, nil); err != nil {
		t.Fatal(err)
	}
	if err := st.CreateTemporalTable("rx", "patient VARCHAR(10), drug VARCHAR(10)"); err != nil {
		t.Fatal(err)
	}
	ins := func(p, d string, el temporal.Element) {
		t.Helper()
		if _, err := tip.Exec(`INSERT INTO rx VALUES (:p, :d, :v)`, map[string]types.Value{
			"p": types.NewString(p), "d": types.NewString(d), "v": b.ElementValue(el)}); err != nil {
			t.Fatal(err)
		}
		if err := st.Insert("rx", []string{"patient", "drug"},
			[]types.Value{types.NewString(p), types.NewString(d)}, el); err != nil {
			t.Fatal(err)
		}
	}
	mkEl := func(ps ...temporal.Period) temporal.Element { return temporal.MustElement(ps...) }
	ins("alice", "A", mkEl(temporal.MustPeriod(day(0), day(30)), temporal.MustPeriod(day(60), day(90))))
	ins("alice", "B", mkEl(temporal.MustPeriod(day(20), day(70))))
	ins("bob", "A", mkEl(temporal.MustPeriod(day(0), day(10))))
	ins("bob", "B", mkEl(temporal.MustPeriod(day(40), day(50))))

	tipRes, err := tip.Exec(`
		SELECT p1.patient, intersect(p1.valid, p2.valid)
		FROM rx p1, rx p2
		WHERE p1.drug = 'A' AND p2.drug = 'B' AND p1.patient = p2.patient
		AND overlaps(p1.valid, p2.valid)`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(tipRes.Rows) != 1 || tipRes.Rows[0][0].Str() != "alice" {
		t.Fatalf("tip rows = %v", tipRes.Rows)
	}
	tipEl := tipRes.Rows[0][1].Obj().(temporal.Element)

	layeredRes, err := st.OverlapJoin("rx", "patient", "p1.drug = 'A'", "p2.drug = 'B'")
	if err != nil {
		t.Fatal(err)
	}
	var frags []temporal.Period
	for _, row := range layeredRes.Rows {
		if row[0].Str() != "alice" {
			t.Errorf("unexpected overlap row for %s", row[0].Str())
			continue
		}
		frags = append(frags, temporal.MustPeriod(
			temporal.Chronon(row[1].Int()), temporal.Chronon(row[2].Int())))
	}
	// The stratum returns fragments; coalesce them to compare sets.
	layeredEl, err := temporal.MakeElement(frags...)
	if err != nil {
		t.Fatal(err)
	}
	if !layeredEl.Equal(tipEl, testNow) {
		t.Errorf("layered %s, tip %s", layeredEl, tipEl)
	}
}

func TestWindowSQL(t *testing.T) {
	_, st, b := newSessions(t)
	if err := st.CreateTemporalTable("ev", "name VARCHAR(10)"); err != nil {
		t.Fatal(err)
	}
	el := temporal.MustPeriod(day(10), day(20)).Element()
	if err := st.Insert("ev", []string{"name"}, []types.Value{types.NewString("x")}, el); err != nil {
		t.Fatal(err)
	}
	_ = b
	res, err := st.Session().Exec(layered.WindowSQL("ev", int64(day(15)), int64(day(16))), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Errorf("window hit = %d", len(res.Rows))
	}
	res, err = st.Session().Exec(layered.WindowSQL("ev", int64(day(30)), int64(day(40))), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Errorf("window miss = %d", len(res.Rows))
	}
}

// TestNowRelativeEncoding checks the stratum's Forever sentinel.
func TestNowRelativeEncoding(t *testing.T) {
	_, st, _ := newSessions(t)
	if err := st.CreateTemporalTable("ev", "name VARCHAR(10)"); err != nil {
		t.Fatal(err)
	}
	el, err := temporal.ParseElement("{[1999-10-01, NOW]}")
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Insert("ev", []string{"name"}, []types.Value{types.NewString("open")}, el); err != nil {
		t.Fatal(err)
	}
	res, err := st.Session().Exec(`SELECT vend FROM ev`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() != layered.Forever {
		t.Errorf("open end = %d, want Forever sentinel", res.Rows[0][0].Int())
	}
}

// TestComplexityMetrics verifies E5's measurements: the generated
// coalescing SQL is much larger and deeper than the TIP equivalent.
func TestComplexityMetrics(t *testing.T) {
	layeredSQL := layered.TotalDurationSQL("rx", "patient")
	tipSQL := `SELECT patient, length(group_union(valid)) FROM rx GROUP BY patient`
	lc := layered.MeasureSQL(layeredSQL)
	tc := layered.MeasureSQL(tipSQL)
	if lc.Chars <= 2*tc.Chars {
		t.Errorf("layered SQL should be much longer: %d vs %d chars", lc.Chars, tc.Chars)
	}
	if lc.Depth < 2 || tc.Depth >= lc.Depth {
		t.Errorf("layered nesting %d should exceed TIP nesting %d", lc.Depth, tc.Depth)
	}
	if lc.TableRefs < 5 {
		t.Errorf("layered table refs = %d, want ≥ 5", lc.TableRefs)
	}
	if tc.TableRefs != 1 {
		t.Errorf("tip table refs = %d", tc.TableRefs)
	}
}

// TestCoalesceAgainstTruth runs TIP's group_union through the coalesce
// operator and checks every group against the kernel truth.
func TestCoalesceAgainstTruth(t *testing.T) {
	tip, _, b := newSessions(t)
	truth := randomPatientData2(t, tip, b, 8, 6, int64(101))
	res, err := tip.Exec(`SELECT patient, group_union(valid) FROM rx GROUP BY patient`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(truth) {
		t.Fatalf("%d groups, want %d", len(res.Rows), len(truth))
	}
	for _, row := range res.Rows {
		p := row[0].Str()
		got := row[1].Obj().(temporal.Element)
		if !got.Equal(truth[p], testNow) {
			t.Errorf("%s: got %s, truth %s", p, got, truth[p])
		}
	}
}

// randomPatientData2 is randomPatientData without the stratum side, for
// TIP-only checks.
func randomPatientData2(t *testing.T, tip *engine.Session, b *core.Blade,
	patients, periodsPer int, seed int64) map[string]temporal.Element {
	t.Helper()
	if _, err := tip.Exec(`CREATE TABLE rx (patient VARCHAR(10), valid Element)`, nil); err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(seed))
	truth := make(map[string]temporal.Element)
	for p := 0; p < patients; p++ {
		name := fmt.Sprintf("p%02d", p)
		var all []temporal.Period
		for k := 0; k < periodsPer; k++ {
			lo := r.Intn(300)
			hi := lo + 1 + r.Intn(60)
			pd := temporal.MustPeriod(day(lo), day(hi))
			all = append(all, pd)
			if _, err := tip.Exec(`INSERT INTO rx VALUES (:p, :v)`, map[string]types.Value{
				"p": types.NewString(name), "v": b.ElementValue(pd.Element())}); err != nil {
				t.Fatal(err)
			}
		}
		e, err := temporal.MakeElement(all...)
		if err != nil {
			t.Fatal(err)
		}
		truth[name] = e
	}
	return truth
}
