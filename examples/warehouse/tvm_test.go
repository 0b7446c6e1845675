package main

import (
	"strings"
	"testing"

	"tip/internal/blade"
	"tip/internal/core"
	"tip/internal/engine"
	"tip/internal/temporal"
	"tip/internal/types"
)

func newDB(t *testing.T) (*engine.Database, *engine.Session, *core.Blade) {
	t.Helper()
	reg := blade.NewRegistry()
	b, err := core.Register(reg)
	if err != nil {
		t.Fatal(err)
	}
	db := engine.New(reg)
	db.SetClock(func() temporal.Chronon { return temporal.MustDate(1999, 12, 31) })
	return db, db.NewSession(), b
}

func day(mo, d int) temporal.Chronon { return temporal.MustDate(1999, mo, d) }

func key(s string) []types.Value { return []types.Value{types.NewString(s)} }

func attrs(s string) []types.Value { return []types.Value{types.NewString(s)} }

func newMaintainer(t *testing.T) (*Maintainer, *engine.Session) {
	t.Helper()
	_, sess, b := newDB(t)
	m, err := NewMaintainer(sess, b, "AssignmentHistory",
		[]string{"employee VARCHAR(20)"}, []string{"dept VARCHAR(20)"})
	if err != nil {
		t.Fatal(err)
	}
	return m, sess
}

func TestSetCloseLifecycle(t *testing.T) {
	m, sess := newMaintainer(t)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(m.Set(day(1, 1), key("ada"), attrs("engineering")))
	must(m.Set(day(4, 1), key("ada"), attrs("research")))    // move: closes eng
	must(m.Set(day(9, 1), key("ada"), attrs("engineering"))) // move back
	must(m.Delete(day(12, 1), key("ada")))                   // leaves

	res, err := m.History(key("ada"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("history rows = %d", len(res.Rows))
	}
	// First spell: engineering, Jan 1 to the second before Apr 1.
	if res.Rows[0][1].Str() != "engineering" ||
		res.Rows[0][2].Format() != "{[1999-01-01, 1999-03-31 23:59:59]}" {
		t.Errorf("first spell = %v %v", res.Rows[0][1].Format(), res.Rows[0][2].Format())
	}
	// Final spell closed by Delete: no open rows remain.
	cnt, err := sess.Exec(`SELECT COUNT(*) FROM AssignmentHistory WHERE isopen(valid)`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cnt.Rows[0][0].Int() != 0 {
		t.Error("Delete left an open row")
	}
	must(m.Validate())
}

func TestAsOf(t *testing.T) {
	m, _ := newMaintainer(t)
	for _, step := range []struct {
		t    temporal.Chronon
		emp  string
		dept string
	}{
		{day(1, 1), "ada", "engineering"},
		{day(1, 1), "grace", "engineering"},
		{day(6, 1), "grace", "sales"},
	} {
		if err := m.Set(step.t, key(step.emp), attrs(step.dept)); err != nil {
			t.Fatal(err)
		}
	}
	res, err := m.AsOf(day(3, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[1][1].Str() != "engineering" {
		t.Fatalf("as-of March = %v", res.Rows)
	}
	res, err = m.AsOf(day(7, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[1][1].Str() != "sales" {
		t.Fatalf("as-of July = %v", res.Rows)
	}
	// Before anyone was hired: empty.
	res, err = m.AsOf(temporal.MustDate(1998, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Fatalf("as-of 1998 = %v", res.Rows)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestOpenRowsGrowWithNow(t *testing.T) {
	db, sess, b := newDB(t)
	m, err := NewMaintainer(sess, b, "H", []string{"k VARCHAR(5)"}, []string{"v VARCHAR(5)"})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Set(day(1, 1), key("x"), attrs("a")); err != nil {
		t.Fatal(err)
	}
	length := func() int64 {
		res, err := sess.Exec(`SELECT length(valid) FROM H`, nil)
		if err != nil {
			t.Fatal(err)
		}
		return int64(res.Rows[0][0].Obj().(temporal.Span))
	}
	before := length()
	db.SetClock(func() temporal.Chronon { return temporal.MustDate(2001, 12, 31) })
	if after := length(); after <= before {
		t.Errorf("open history did not grow: %d then %d", before, after)
	}
}

func TestSetSameDayReplaces(t *testing.T) {
	m, sess := newMaintainer(t)
	if err := m.Set(day(5, 1), key("ada"), attrs("eng")); err != nil {
		t.Fatal(err)
	}
	// A correction arriving for the same instant replaces the spell:
	// the old row's history would be empty, so it is deleted.
	if err := m.Set(day(5, 1), key("ada"), attrs("sales")); err != nil {
		t.Fatal(err)
	}
	res, err := sess.Exec(`SELECT dept FROM AssignmentHistory ORDER BY dept`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Str() != "sales" {
		t.Fatalf("same-day replace = %v", res.Rows)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateDetectsOverlap(t *testing.T) {
	m, sess := newMaintainer(t)
	if err := m.Set(day(1, 1), key("ada"), attrs("eng")); err != nil {
		t.Fatal(err)
	}
	// Corrupt the view behind the maintainer's back.
	if _, err := sess.Exec(`INSERT INTO AssignmentHistory VALUES
		('ada', 'rogue', '{[1999-02-01, 1999-03-01]}')`, nil); err != nil {
		t.Fatal(err)
	}
	err := m.Validate()
	if err == nil || !strings.Contains(err.Error(), "overlapping") {
		t.Errorf("Validate = %v, want overlap violation", err)
	}
}

func TestValidateDetectsDoubleOpen(t *testing.T) {
	m, sess := newMaintainer(t)
	if err := m.Set(day(1, 1), key("ada"), attrs("eng")); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Exec(`INSERT INTO AssignmentHistory VALUES
		('ada', 'rogue', '{[1999-06-01, NOW]}')`, nil); err != nil {
		t.Fatal(err)
	}
	err := m.Validate()
	if err == nil || !strings.Contains(err.Error(), "open rows") {
		t.Errorf("Validate = %v, want double-open violation", err)
	}
}

func TestArgumentErrors(t *testing.T) {
	m, sess := newMaintainer(t)
	if err := m.Set(day(1, 1), nil, attrs("x")); err == nil {
		t.Error("missing key should fail")
	}
	if err := m.Set(day(1, 1), key("a"), nil); err == nil {
		t.Error("missing attrs should fail")
	}
	_, b := m, sess
	_ = b
	if _, err := NewMaintainer(sess, nil, "bad", nil, nil); err == nil {
		t.Error("no key columns should fail")
	}
}

// TestCoalescedTenure closes the loop with the TIP aggregate: total
// employment time across moves comes straight from group_union.
func TestCoalescedTenure(t *testing.T) {
	m, sess := newMaintainer(t)
	steps := []struct {
		t    temporal.Chronon
		dept string
	}{
		{day(1, 1), "eng"}, {day(4, 1), "research"}, {day(9, 1), "eng"},
	}
	for _, st := range steps {
		if err := m.Set(st.t, key("ada"), attrs(st.dept)); err != nil {
			t.Fatal(err)
		}
	}
	res, err := sess.Exec(`
		SELECT employee, length(group_union(valid)) FROM AssignmentHistory
		GROUP BY employee`, nil)
	if err != nil {
		t.Fatal(err)
	}
	tenure := res.Rows[0][1].Obj().(temporal.Span)
	// Jan 1 through the pinned NOW (Dec 31) with no gaps: 364 days.
	if tenure != 364*temporal.Day {
		t.Errorf("tenure = %v, want 364 days", tenure)
	}
}
