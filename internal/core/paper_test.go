package core_test

// The paper's §2 example statements, executed verbatim (experiments Q1-Q4
// of DESIGN.md). These are the acceptance tests of the TIP DataBlade: the
// exact SQL from the paper must parse, plan and produce the semantics the
// paper describes.

import (
	"strings"
	"testing"

	"tip/internal/blade"
	"tip/internal/core"
	"tip/internal/engine"
	"tip/internal/exec"
	"tip/internal/temporal"
	"tip/internal/types"
)

// testNow pins the transaction clock to 1999-11-12, the paper's era.
var testNow = temporal.MustDate(1999, 11, 12)

// newTestDB builds a TIP-enabled database with a pinned clock and the
// paper's Prescription table.
func newTestDB(t *testing.T) (*engine.Database, *engine.Session, *core.Blade) {
	t.Helper()
	reg := blade.NewRegistry()
	b, err := core.Register(reg)
	if err != nil {
		t.Fatal(err)
	}
	db := engine.New(reg)
	db.SetClock(func() temporal.Chronon { return testNow })
	s := db.NewSession()
	mustExec(t, s, `
		CREATE TABLE Prescription (
			doctor CHAR(20), patient CHAR(20), patientdob Chronon,
			drug CHAR(20), dosage INT, frequency Span, valid Element)`)
	return db, s, b
}

func mustExec(t *testing.T, s *engine.Session, sql string, params ...map[string]types.Value) *exec.Result {
	t.Helper()
	var p map[string]types.Value
	if len(params) > 0 {
		p = params[0]
	}
	res, err := s.Exec(sql, p)
	if err != nil {
		t.Fatalf("Exec(%s): %v", sql, err)
	}
	return res
}

// TestPaperQ1CreateInsert is the paper's CREATE TABLE plus the INSERT of
// Dr. Pepper's long-term Diabeta prescription, with every TIP value
// arriving as a string literal through the automatic casts.
func TestPaperQ1CreateInsert(t *testing.T) {
	_, s, _ := newTestDB(t)
	mustExec(t, s, `INSERT INTO Prescription VALUES
		('Dr.Pepper', 'Mr.Showbiz', '1963-08-13', 'Diabeta', 1, '0 08:00:00', '{[1999-10-01, NOW]}')`)
	res := mustExec(t, s, `SELECT doctor, patient, patientdob, drug, dosage, frequency, valid FROM Prescription`)
	if len(res.Rows) != 1 {
		t.Fatalf("got %d rows", len(res.Rows))
	}
	row := res.Rows[0]
	want := []string{"Dr.Pepper", "Mr.Showbiz", "1963-08-13", "Diabeta", "1", "0 08:00:00", "{[1999-10-01, NOW]}"}
	for i, w := range want {
		if got := row[i].Format(); got != w {
			t.Errorf("column %s = %q, want %q", res.Cols[i], got, w)
		}
	}
	// The stored element is a real Element object, not text.
	if _, ok := row[6].Obj().(temporal.Element); !ok {
		t.Errorf("valid column stored as %T", row[6].Obj())
	}
}

func seedMedical(t *testing.T, s *engine.Session) {
	t.Helper()
	stmts := []string{
		// Tylenol when patients were newborn or older.
		`INSERT INTO Prescription VALUES ('Dr.No', 'Baby.Doe', '1999-01-01', 'Tylenol', 1, '1', '{[1999-01-10, 1999-01-20]}')`,
		`INSERT INTO Prescription VALUES ('Dr.No', 'Kid.Roe', '1995-03-01', 'Tylenol', 1, '1', '{[1999-02-01, 1999-02-10]}')`,
		// Diabeta and Aspirin overlapping for Mr.Showbiz, disjoint for Ms.Quiet.
		`INSERT INTO Prescription VALUES ('Dr.Pepper', 'Mr.Showbiz', '1963-08-13', 'Diabeta', 1, '0 08:00:00', '{[1999-10-01, NOW]}')`,
		`INSERT INTO Prescription VALUES ('Dr.Salt', 'Mr.Showbiz', '1963-08-13', 'Aspirin', 2, '0 12:00:00', '{[1999-09-01, 1999-10-15]}')`,
		`INSERT INTO Prescription VALUES ('Dr.Salt', 'Ms.Quiet', '1970-02-02', 'Diabeta', 1, '1', '{[1999-01-01, 1999-02-01]}')`,
		`INSERT INTO Prescription VALUES ('Dr.Salt', 'Ms.Quiet', '1970-02-02', 'Aspirin', 1, '1', '{[1999-03-01, 1999-04-01]}')`,
		// Overlapping prescriptions for the coalescing query.
		`INSERT INTO Prescription VALUES ('Dr.Who', 'Mx.Overlap', '1980-01-01', 'DrugA', 1, '1', '{[1999-01-01, 1999-03-01]}')`,
		`INSERT INTO Prescription VALUES ('Dr.Who', 'Mx.Overlap', '1980-01-01', 'DrugB', 1, '1', '{[1999-02-01, 1999-04-01]}')`,
	}
	for _, q := range stmts {
		mustExec(t, s, q)
	}
}

// TestPaperQ2TylenolAge is the paper's parameterised query: patients
// prescribed Tylenol when they were less than :w weeks old, exercising
// the start routine, Chronon subtraction, the explicit ::Span cast and
// Span * INT.
func TestPaperQ2TylenolAge(t *testing.T) {
	_, s, _ := newTestDB(t)
	seedMedical(t, s)
	query := `
		SELECT patient
		FROM Prescription
		WHERE drug = 'Tylenol'
		AND start(valid) - patientdob < '7 00:00:00'::Span * :w`
	run := func(w int64) []string {
		res := mustExec(t, s, query, map[string]types.Value{"w": types.NewInt(w)})
		var got []string
		for _, r := range res.Rows {
			got = append(got, r[0].Str())
		}
		return got
	}
	// Baby.Doe was 9 days old at prescription start; Kid.Roe ~4 years.
	if got := run(1); len(got) != 0 {
		t.Errorf("w=1 matched %v, want none (9 days ≥ 1 week)", got)
	}
	if got := run(2); len(got) != 1 || got[0] != "Baby.Doe" {
		t.Errorf("w=2 matched %v, want [Baby.Doe]", got)
	}
	if got := run(500); len(got) != 2 {
		t.Errorf("w=500 matched %v, want both Tylenol patients", got)
	}
}

// TestPaperQ3TemporalSelfJoin is the Diabeta/Aspirin self-join: who took
// both simultaneously and exactly when, exercising overlaps and
// intersect on Elements.
func TestPaperQ3TemporalSelfJoin(t *testing.T) {
	_, s, _ := newTestDB(t)
	seedMedical(t, s)
	res := mustExec(t, s, `
		SELECT p1.patient, intersect(p1.valid, p2.valid)
		FROM Prescription p1, Prescription p2
		WHERE p1.drug = 'Diabeta' AND p2.drug = 'Aspirin'
		AND p1.patient = p2.patient
		AND overlaps(p1.valid, p2.valid)`)
	if len(res.Rows) != 1 {
		t.Fatalf("got %d rows, want 1 (only Mr.Showbiz overlaps)", len(res.Rows))
	}
	if got := res.Rows[0][0].Str(); got != "Mr.Showbiz" {
		t.Errorf("patient = %q", got)
	}
	// Diabeta [1999-10-01, NOW] ∩ Aspirin [1999-09-01, 1999-10-15] with
	// NOW = 1999-11-12 is [1999-10-01, 1999-10-15].
	if got := res.Rows[0][1].Format(); got != "{[1999-10-01, 1999-10-15]}" {
		t.Errorf("intersect = %q", got)
	}
}

// TestPaperQ4Coalesce is the coalescing query: total time on prescription
// medication per patient via length(group_union(valid)) — and the paper's
// point that SUM(length(valid)) double-counts overlapping periods.
func TestPaperQ4Coalesce(t *testing.T) {
	_, s, _ := newTestDB(t)
	seedMedical(t, s)
	res := mustExec(t, s, `
		SELECT patient, length(group_union(valid)) AS onmeds
		FROM Prescription
		WHERE patient = 'Mx.Overlap'
		GROUP BY patient`)
	if len(res.Rows) != 1 {
		t.Fatalf("got %d rows", len(res.Rows))
	}
	// [1999-01-01, 1999-03-01] ∪ [1999-02-01, 1999-04-01] = [1999-01-01,
	// 1999-04-01]: 90 days.
	coalesced := res.Rows[0][1].Obj().(temporal.Span)
	if coalesced != 90*temporal.Day {
		t.Errorf("coalesced length = %v, want 90 days", coalesced)
	}
	// SUM(length(valid)) counts the February overlap twice.
	res2 := mustExec(t, s, `
		SELECT patient, SUM(length(valid)) AS naive
		FROM Prescription
		WHERE patient = 'Mx.Overlap'
		GROUP BY patient`)
	naive := res2.Rows[0][1].Obj().(temporal.Span)
	if naive != 118*temporal.Day {
		t.Errorf("naive sum = %v, want 118 days", naive)
	}
	if naive <= coalesced {
		t.Error("the paper's point requires SUM(length) > length(group_union)")
	}
}

// TestPaperChrononPlusChrononIsTypeError checks the §2 rule that a
// Chronon plus a Chronon is a type error, reported when the statement is
// bound: the table is empty, so no row ever evaluates the expression.
// Routine arguments and comparisons no overload accepts fail the same
// way.
func TestPaperChrononPlusChrononIsTypeError(t *testing.T) {
	_, s, _ := newTestDB(t)
	for _, c := range []struct{ sql, want string }{
		{`SELECT patientdob + patientdob FROM Prescription`, "no overload of +"},
		{`SELECT start(valid) + start(valid) FROM Prescription`, "no overload of +"},
		{`SELECT patient FROM Prescription WHERE overlaps(valid, 5)`, "no overload of overlaps"},
		{`SELECT patient FROM Prescription WHERE valid < 3`, "cannot compare Element < INT"},
	} {
		_, err := s.Exec(c.sql, nil)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s on an empty table: err = %v, want %q", c.sql, err, c.want)
		}
	}
}

// TestChrononPlusChrononErrorsWithRows forces evaluation of the invalid
// overload.
func TestChrononPlusChrononErrorsWithRows(t *testing.T) {
	_, s, _ := newTestDB(t)
	seedMedical(t, s)
	_, err := s.Exec(`SELECT patientdob + patientdob FROM Prescription`, nil)
	if err == nil || !strings.Contains(err.Error(), "no overload") {
		t.Errorf("Chronon + Chronon: err = %v, want overload error", err)
	}
}

// TestNowSemantics verifies that a NOW-relative query changes its answer
// as the clock advances even though the data is unchanged (experiment E4).
func TestNowSemantics(t *testing.T) {
	db, s, _ := newTestDB(t)
	seedMedical(t, s)
	q := `SELECT patient FROM Prescription WHERE drug = 'Diabeta' AND contains(valid, now())`
	res := mustExec(t, s, q)
	if len(res.Rows) != 1 || res.Rows[0][0].Str() != "Mr.Showbiz" {
		t.Fatalf("in 1999, rows = %v", res.Rows)
	}
	// Years later, the open prescription {[1999-10-01, NOW]} still
	// covers NOW — it grows with time.
	db.SetClock(func() temporal.Chronon { return temporal.MustDate(2005, 6, 1) })
	res = mustExec(t, s, q)
	if len(res.Rows) != 1 {
		t.Fatalf("in 2005, rows = %d, want 1", len(res.Rows))
	}
	// Before the prescription started, it covers nothing.
	db.SetClock(func() temporal.Chronon { return temporal.MustDate(1999, 9, 1) })
	res = mustExec(t, s, q)
	if len(res.Rows) != 0 {
		t.Fatalf("in Sep 1999, rows = %d, want 0", len(res.Rows))
	}
}

// TestSetNowWhatIf exercises the Browser's what-if facility: SET NOW
// overrides the interpretation of NOW for the session.
func TestSetNowWhatIf(t *testing.T) {
	_, s, _ := newTestDB(t)
	seedMedical(t, s)
	q := `SELECT patient FROM Prescription WHERE drug = 'Diabeta' AND contains(valid, now())`
	mustExec(t, s, `SET NOW = '2005-06-01'`)
	res := mustExec(t, s, q)
	if len(res.Rows) != 1 {
		t.Fatalf("override 2005: rows = %d, want 1", len(res.Rows))
	}
	mustExec(t, s, `SET NOW = '1999-09-01'`)
	res = mustExec(t, s, q)
	if len(res.Rows) != 0 {
		t.Fatalf("override Sep 1999: rows = %d, want 0", len(res.Rows))
	}
	mustExec(t, s, `SET NOW = DEFAULT`)
	res = mustExec(t, s, q)
	if len(res.Rows) != 1 {
		t.Fatalf("default clock: rows = %d, want 1", len(res.Rows))
	}
}
