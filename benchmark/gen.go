package main

// Deterministic inputs and their expected answers. Everything here is
// built from the temporal and core constructors only, so a change to
// internal/workload or internal/bench cannot alter what the benchmark
// feeds the server, and every expected answer comes from the day-set
// model below rather than from the element algebra under test.

import (
	"fmt"
	"math/bits"
	"math/rand"

	"tip/internal/core"
	"tip/internal/temporal"
	"tip/internal/types"
)

const (
	daySeconds  = 86400
	horizonDays = 1000 // period starts fall in [base, base+horizonDays)
	maxLenDays  = 90
)

var (
	// base is day 0 of the generated history; pinnedNow is the last
	// second of 1999-11-12, so every bound interval covers whole days
	// and the day-set model is exact.
	base      = temporal.MustDate(1997, 1, 1)
	pinnedNow = temporal.MustChronon(1999, 11, 12, 23, 59, 59)
	nowDay    = int((pinnedNow - base) / daySeconds)
)

var drugs = []string{
	"Diabeta", "Aspirin", "Tylenol", "Prozac", "Insulin",
	"Lipitor", "Zyrtec", "Ambien", "Motrin", "Valium",
}

var doctors = []string{
	"Dr.Pepper", "Dr.Salt", "Dr.No", "Dr.Who", "Dr.Strange",
	"Dr.Quinn", "Dr.House", "Dr.Zhivago",
}

// sizes are the dataset dimensions; the smoke test divides them by 100.
type sizes struct {
	rows, patients, visits int
	probes, joins, pool    int // distinct probe windows, join ranges, statements per client
}

func fullSizes() sizes {
	return sizes{rows: 20000, patients: 5000, visits: 2000, probes: 1000, joins: 500, pool: 8192}
}

func (z sizes) scaled(div int) sizes {
	return sizes{rows: z.rows / div, patients: z.patients / div, visits: z.visits / div,
		probes: max(z.probes/div, 300), joins: max(z.joins/div, 10), pool: max(z.pool/div, 64)}
}

// daySet is the model of a temporal value: one bit per day since base.
type daySet []uint64

func newDaySet() daySet { return make(daySet, max(horizonDays+maxLenDays, nowDay+1)/64+1) }

// wordMask selects the days of [lo, hi] that fall in word w.
func wordMask(w, lo, hi int) uint64 {
	m := ^uint64(0)
	if w == lo/64 {
		m &= ^uint64(0) << (lo % 64)
	}
	if w == hi/64 {
		m &= ^uint64(0) >> (63 - hi%64)
	}
	return m
}

func (s daySet) addRange(lo, hi int) {
	for w := lo / 64; w <= hi/64; w++ {
		s[w] |= wordMask(w, lo, hi)
	}
}

func (s daySet) or(o daySet) {
	for i, w := range o {
		s[i] |= w
	}
}

func (s daySet) intersectsRange(lo, hi int) bool {
	for w := lo / 64; w <= hi/64; w++ {
		if s[w]&wordMask(w, lo, hi) != 0 {
			return true
		}
	}
	return false
}

// coalescedLength is length(group_union(...)) in the model: every run
// of consecutive days [a, b] is one closed period from the first second
// of a to the last second of b, whose TIP length is end minus start.
func (s daySet) coalescedLength() temporal.Span {
	days, runs := 0, 0
	prev := false
	for _, w := range s {
		days += bits.OnesCount64(w)
		for b := 0; b < 64; b++ {
			cur := w&(1<<b) != 0
			if cur && !prev {
				runs++
			}
			prev = cur
		}
	}
	return temporal.Span(days*daySeconds - runs)
}

func dayStart(d int) temporal.Chronon { return base + temporal.Chronon(d*daySeconds) }
func dayEnd(d int) temporal.Chronon   { return dayStart(d) + daySeconds - 1 }

// prescription is one row of the demo table with its model.
type prescription struct {
	doctor, drug string
	patient      int
	dob          temporal.Chronon
	dosage       int64
	freq         temporal.Span
	valid        temporal.Element
	days         daySet
}

type visit struct {
	id, patient int
	lo, hi      int // days
	during      temporal.Period
}

func patientName(i int) string { return fmt.Sprintf("patient%04d", i) }

// genPrescription draws one row: 1-3 periods of 1-90 days, one time in
// six starting the day after the previous one ends (adjacent, so they
// must coalesce), overlapping freely otherwise, and one row in ten with
// its last period left open as [start, NOW].
func genPrescription(r *rand.Rand, patients int) prescription {
	p := prescription{
		doctor:  doctors[r.Intn(len(doctors))],
		drug:    drugs[r.Intn(len(drugs))],
		patient: r.Intn(patients),
		dob:     base - temporal.Chronon(r.Intn(30000)*daySeconds),
		dosage:  1 + int64(r.Intn(4)),
		freq:    temporal.Span(1+r.Intn(24)) * temporal.Hour,
		days:    newDaySet(),
	}
	n := 1 + r.Intn(3)
	periods := make([]temporal.Period, 0, n)
	prevHi := -1
	for k := 0; k < n; k++ {
		lo := r.Intn(horizonDays)
		if prevHi >= 0 && prevHi+1 < horizonDays && r.Intn(6) == 0 {
			lo = prevHi + 1
		}
		hi := lo + r.Intn(maxLenDays)
		if k == n-1 && r.Intn(10) == 0 {
			periods = append(periods, temporal.Period{Start: temporal.AbsInstant(dayStart(lo)), End: temporal.Now})
			p.days.addRange(lo, nowDay)
			break
		}
		periods = append(periods, temporal.MustPeriod(dayStart(lo), dayEnd(hi)))
		p.days.addRange(lo, hi)
		prevHi = hi
	}
	p.valid = temporal.MustElement(periods...)
	return p
}

// dataset is everything a workload's database is loaded with, plus the
// model-side aggregates the checks need.
type dataset struct {
	z          sizes
	rows       []prescription
	visits     []visit
	perPatient []int           // rows per patient in the base load
	q4         []temporal.Span // model answer to Q4 per patient; -1 for a patient with no rows
}

func genDataset(seed int64, z sizes) *dataset {
	r := rand.New(rand.NewSource(seed))
	ds := &dataset{z: z, rows: make([]prescription, z.rows), visits: make([]visit, z.visits), perPatient: make([]int, z.patients)}
	for i := range ds.rows {
		ds.rows[i] = genPrescription(r, z.patients)
		ds.perPatient[ds.rows[i].patient]++
	}
	for i := range ds.visits {
		lo := r.Intn(horizonDays)
		hi := lo + r.Intn(3)
		ds.visits[i] = visit{id: i, patient: r.Intn(z.patients), lo: lo, hi: hi,
			during: temporal.MustPeriod(dayStart(lo), dayEnd(hi))}
	}
	ds.q4 = ds.coalescedLengths()
	return ds
}

// overlapCount is the model answer to COUNT(*) ... overlaps(valid, [lo, hi]).
func (ds *dataset) overlapCount(lo, hi int) int64 {
	var n int64
	for i := range ds.rows {
		if ds.rows[i].days.intersectsRange(lo, hi) {
			n++
		}
	}
	return n
}

// coalescedLengths is the model answer to the paper's Q4, per patient;
// -1 marks a patient with no rows (absent from the result).
func (ds *dataset) coalescedLengths() []temporal.Span {
	sets := make([]daySet, ds.z.patients)
	for i := range ds.rows {
		p := ds.rows[i].patient
		if sets[p] == nil {
			sets[p] = newDaySet()
		}
		sets[p].or(ds.rows[i].days)
	}
	out := make([]temporal.Span, len(sets))
	for p, s := range sets {
		out[p] = -1
		if s != nil {
			out[p] = s.coalescedLength()
		}
	}
	return out
}

// Statement kinds; each has its own check in run.go.
const (
	kindInsert = iota
	kindPointRead
	kindProbe
	kindCoalesce
	kindJoin
)

// stmt is one generated statement with what is needed to check its
// answer: the patient for inserts and point reads, the expected count
// for probes and joins.
type stmt struct {
	kind   int
	sql    string
	params map[string]types.Value
	arg    int64
	// model-side inputs the traced run replays against the kernels
	lo, hi temporal.Chronon // probe window
	visits []visit          // join outer rows
}

const (
	sqlSchemaP = `CREATE TABLE Prescription (
	doctor VARCHAR(20), patient VARCHAR(20), patientdob Chronon,
	drug VARCHAR(20), dosage INT, frequency Span, valid Element)`
	sqlSchemaV   = `CREATE TABLE visit (id INT, patient VARCHAR(20), during Period)`
	sqlInsertP   = `INSERT INTO Prescription VALUES (:doc, :pat, :dob, :drug, :dose, :freq, :valid)`
	sqlInsertV   = `INSERT INTO visit VALUES (:id, :pat, :during)`
	sqlIndexPat  = `CREATE INDEX p_patient ON Prescription (patient)`
	sqlIndexVal  = `CREATE INDEX p_valid ON Prescription (valid) USING PERIOD`
	sqlPointRead = `SELECT drug, dosage, valid FROM Prescription WHERE patient = :p`
	sqlCoalesce  = `SELECT patient, length(group_union(valid)) FROM Prescription GROUP BY patient`
	sqlJoin      = `SELECT COUNT(*) FROM visit v, Prescription p WHERE v.id BETWEEN :lo AND :hi AND overlaps(p.valid, v.during)`
	sqlCount     = `SELECT COUNT(*) FROM Prescription`
	joinOuter    = 4 // outer rows per join statement
)

func insertStmt(b *core.Blade, p *prescription) stmt {
	return stmt{kind: kindInsert, sql: sqlInsertP, arg: int64(p.patient), params: map[string]types.Value{
		"doc":   types.NewString(p.doctor),
		"pat":   types.NewString(patientName(p.patient)),
		"dob":   b.ChrononValue(p.dob),
		"drug":  types.NewString(p.drug),
		"dose":  types.NewInt(p.dosage),
		"freq":  b.SpanValue(p.freq),
		"valid": b.ElementValue(p.valid),
	}}
}

func visitParams(b *core.Blade, v *visit) map[string]types.Value {
	return map[string]types.Value{
		"id":     types.NewInt(int64(v.id)),
		"pat":    types.NewString(patientName(v.patient)),
		"during": b.PeriodValue(v.during),
	}
}

func date(c temporal.Chronon) string {
	y, m, d, _, _, _ := c.Civil()
	return fmt.Sprintf("%04d-%02d-%02d", y, m, d)
}

// A generator builds one client's statement pool; the client cycles
// through it in order for as long as the run lasts.
type generator func(r *rand.Rand, b *core.Blade, ds *dataset) []stmt

func genInsert(r *rand.Rand, b *core.Blade, ds *dataset) stmt {
	p := genPrescription(r, ds.z.patients)
	return insertStmt(b, &p)
}

// genInserts: fresh rows; a long run cycles the pool and so inserts
// some rows more than once, which the table allows.
func genInserts(r *rand.Rand, b *core.Blade, ds *dataset) []stmt {
	pool := make([]stmt, ds.z.pool)
	for i := range pool {
		pool[i] = genInsert(r, b, ds)
	}
	return pool
}

// genPointMix: four parameterised point reads to one insert.
func genPointMix(r *rand.Rand, b *core.Blade, ds *dataset) []stmt {
	pool := make([]stmt, ds.z.pool)
	for i := range pool {
		if r.Intn(5) == 0 {
			pool[i] = genInsert(r, b, ds)
			continue
		}
		p := r.Intn(ds.z.patients)
		pool[i] = stmt{kind: kindPointRead, sql: sqlPointRead, arg: int64(p),
			params: map[string]types.Value{"p": types.NewString(patientName(p))}}
	}
	return pool
}

// genProbes: literal 1-30-day windows, every text distinct, so that a
// pool cycled in order never finds its statement in a 256-entry LRU.
func genProbes(r *rand.Rand, _ *core.Blade, ds *dataset) []stmt {
	pool := make([]stmt, 0, ds.z.probes)
	seen := map[[2]int]bool{}
	for len(pool) < ds.z.probes {
		lo := r.Intn(horizonDays)
		hi := lo + r.Intn(30)
		if seen[[2]int{lo, hi}] {
			continue
		}
		seen[[2]int{lo, hi}] = true
		// A date literal is midnight, so the window ends on the first
		// second of day hi, which a whole-day period covering hi contains.
		pool = append(pool, stmt{kind: kindProbe, arg: ds.overlapCount(lo, hi), lo: dayStart(lo), hi: dayStart(hi),
			sql: fmt.Sprintf(`SELECT COUNT(*) FROM Prescription WHERE overlaps(valid, '[%s, %s]')`, date(dayStart(lo)), date(dayStart(hi)))})
	}
	return pool
}

func genCoalesce(*rand.Rand, *core.Blade, *dataset) []stmt {
	return []stmt{{kind: kindCoalesce, sql: sqlCoalesce}}
}

// genJoins: ranges of joinOuter consecutive visit ids.
func genJoins(r *rand.Rand, _ *core.Blade, ds *dataset) []stmt {
	perVisit := make([]int64, len(ds.visits))
	for i, v := range ds.visits {
		perVisit[i] = ds.overlapCount(v.lo, v.hi)
	}
	pool := make([]stmt, ds.z.joins)
	for i := range pool {
		lo := r.Intn(len(ds.visits) - joinOuter + 1)
		var want int64
		for _, n := range perVisit[lo : lo+joinOuter] {
			want += n
		}
		pool[i] = stmt{kind: kindJoin, sql: sqlJoin, arg: want, visits: ds.visits[lo : lo+joinOuter],
			params: map[string]types.Value{"lo": types.NewInt(int64(lo)), "hi": types.NewInt(int64(lo + joinOuter - 1))}}
	}
	return pool
}
