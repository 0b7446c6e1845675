package tip_test

// testing.B benchmarks, one family per experiment of EXPERIMENTS.md:
// the repository's in-process measurements, run with `go test -bench`
// (`make bench`; `make bench-smoke` runs each once). Machine-readable,
// gated end-to-end numbers come from the benchmark/ module instead.
//
//	E1  BenchmarkElementUnion / Intersect / Difference / NonCanonicalUnion
//	E2  BenchmarkCoalesceTIP / BenchmarkCoalesceLayered / BenchmarkCoalesceQuery
//	E3  BenchmarkTemporalJoinTIP / BenchmarkTemporalJoinLayered
//	E4  BenchmarkNowBinding
//	E6  BenchmarkOverlapsScan / BenchmarkOverlapsIndex
//	E7  BenchmarkWALInsert / BenchmarkWALReplay
//	E8  BenchmarkOverlapJoinNested / BenchmarkOverlapJoinIndexed
//	—   BenchmarkDisjointWriters* (a writer beside a scanning analyst;
//	    `make mvcc-smoke` runs them)
//	—   micro-benchmarks of the kernel (parse, format, codec, group_union)
//
// E5 counts SQL size rather than time; internal/layered's
// TestComplexityMetrics asserts it.

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"tip/internal/blade"
	"tip/internal/core"
	"tip/internal/engine"
	"tip/internal/layered"
	"tip/internal/temporal"
	"tip/internal/workload"
)

// benchNow is the benchmarks' fixed transaction time (the paper's demo
// era).
var benchNow = temporal.MustDate(1999, 11, 12)

// newTIPEngine builds a pinned-clock TIP engine.
func newTIPEngine() (*engine.Database, *core.Blade) {
	reg := blade.NewRegistry()
	bl := core.MustRegister(reg)
	db := engine.New(reg)
	db.SetClock(func() temporal.Chronon { return benchNow })
	return db, bl
}

// openTIPEngine opens a pinned-clock durable TIP database in dir.
func openTIPEngine(b *testing.B, dir string) (*engine.Database, *core.Blade) {
	b.Helper()
	reg := blade.NewRegistry()
	bl := core.MustRegister(reg)
	db, err := engine.Open(reg, dir)
	if err != nil {
		b.Fatal(err)
	}
	db.SetClock(func() temporal.Chronon { return benchNow })
	return db, bl
}

// newTIPDB builds a pinned-clock TIP database and session.
func newTIPDB() (*engine.Session, *core.Blade) {
	db, bl := newTIPEngine()
	return db.NewSession(), bl
}

// newFlatDB builds a pinned-clock plain database wrapped in a stratum.
func newFlatDB() *layered.Stratum {
	db := engine.New(blade.NewRegistry())
	db.SetClock(func() temporal.Chronon { return benchNow })
	return layered.New(db.NewSession())
}

// --- E1: element algebra scaling -----------------------------------------

func elementPair(n int) (temporal.Element, temporal.Element) {
	r := rand.New(rand.NewSource(11))
	horizon := int64(n) * 40
	return workload.RandomElement(r, n, horizon), workload.RandomElement(r, n, horizon)
}

func benchElementOp(b *testing.B, op func(a, c temporal.Element)) {
	for _, n := range []int{16, 256, 4096, 65536} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			x, y := elementPair(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op(x, y)
			}
		})
	}
}

func BenchmarkElementUnion(b *testing.B) {
	benchElementOp(b, func(x, y temporal.Element) { x.Union(y, benchNow) })
}

func BenchmarkElementIntersect(b *testing.B) {
	benchElementOp(b, func(x, y temporal.Element) { x.Intersect(y, benchNow) })
}

func BenchmarkElementDifference(b *testing.B) {
	benchElementOp(b, func(x, y temporal.Element) { x.Difference(y, benchNow) })
}

// BenchmarkElementNonCanonicalUnion is the E1 ablation: the input must
// be normalised (sort + merge) before every union.
func BenchmarkElementNonCanonicalUnion(b *testing.B) {
	for _, n := range []int{16, 256, 4096, 65536} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			x, y := elementPair(n)
			ps := x.Periods()
			r := rand.New(rand.NewSource(3))
			r.Shuffle(len(ps), func(i, j int) { ps[i], ps[j] = ps[j], ps[i] })
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				shuffled := make([]temporal.Period, len(ps))
				copy(shuffled, ps)
				e, err := temporal.MakeElement(shuffled...)
				if err != nil {
					b.Fatal(err)
				}
				e.Union(y, benchNow)
			}
		})
	}
}

// --- E2: coalescing, blade vs stratum --------------------------------------

func tipWithData(b *testing.B, n int) *engine.Session {
	b.Helper()
	cfg := workload.DefaultConfig(n)
	cfg.OpenFraction = 0
	sess, bl := newTIPDB()
	if err := workload.LoadTIP(sess, bl, workload.Generate(cfg)); err != nil {
		b.Fatal(err)
	}
	return sess
}

func layeredWithData(b *testing.B, n int) *layered.Stratum {
	b.Helper()
	cfg := workload.DefaultConfig(n)
	cfg.OpenFraction = 0
	st := newFlatDB()
	if err := workload.LoadLayered(st, workload.Generate(cfg)); err != nil {
		b.Fatal(err)
	}
	return st
}

func BenchmarkCoalesceTIP(b *testing.B) {
	for _, n := range []int{100, 400, 1600} {
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			sess := tipWithData(b, n)
			q := `SELECT patient, length(group_union(valid)) FROM Prescription GROUP BY patient`
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sess.Exec(q, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkCoalesceLayered(b *testing.B) {
	for _, n := range []int{100, 200, 400} { // superlinear: kept small
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			st := layeredWithData(b, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := st.TotalDuration("Prescription", "patient"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCoalesceQuery is the paper's Q4 over 2,000 rows with the
// default share of NOW-relative elements, reporting allocations.
func BenchmarkCoalesceQuery(b *testing.B) {
	sess, bl := newTIPDB()
	if err := workload.LoadTIP(sess, bl, workload.Generate(workload.DefaultConfig(2000))); err != nil {
		b.Fatal(err)
	}
	q := `SELECT patient, length(group_union(valid)) FROM Prescription GROUP BY patient`
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sess.Exec(q, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E3: temporal self-join -------------------------------------------------

const tipJoinQ = `
	SELECT p1.patient, intersect(p1.valid, p2.valid)
	FROM Prescription p1, Prescription p2
	WHERE p1.drug = 'Diabeta' AND p2.drug = 'Aspirin'
	AND p1.patient = p2.patient AND overlaps(p1.valid, p2.valid)`

func BenchmarkTemporalJoinTIP(b *testing.B) {
	for _, n := range []int{100, 400, 1600} {
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			sess := tipWithData(b, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sess.Exec(tipJoinQ, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkTemporalJoinLayered(b *testing.B) {
	for _, n := range []int{100, 400, 1600} {
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			st := layeredWithData(b, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := st.OverlapJoin("Prescription", "patient",
					"p1.drug = 'Diabeta'", "p2.drug = 'Aspirin'"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E4: NOW binding ---------------------------------------------------------

// BenchmarkNowBinding measures the evaluation-time cost of substituting
// the transaction time into NOW-relative elements.
func BenchmarkNowBinding(b *testing.B) {
	sess, bl := newTIPDB()
	cfg := workload.DefaultConfig(1000)
	cfg.OpenFraction = 1 // every element NOW-relative
	if err := workload.LoadTIP(sess, bl, workload.Generate(cfg)); err != nil {
		b.Fatal(err)
	}
	q := `SELECT COUNT(*) FROM Prescription WHERE contains(valid, now())`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sess.Exec(q, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E6: period index vs scan ---------------------------------------------

func overlapsBench(b *testing.B, indexed bool, windowDays int) {
	sess, bl := newTIPDB()
	if err := workload.LoadTIP(sess, bl, workload.Generate(workload.DefaultConfig(5000))); err != nil {
		b.Fatal(err)
	}
	if indexed {
		if _, err := sess.Exec(`CREATE INDEX rx_valid ON Prescription (valid) USING PERIOD`, nil); err != nil {
			b.Fatal(err)
		}
	}
	lo := temporal.MustDate(1998, 3, 1)
	hi := lo + temporal.Chronon(int64(windowDays)*86400)
	q := fmt.Sprintf(`SELECT COUNT(*) FROM Prescription WHERE overlaps(valid, '[%s, %s]')`, lo, hi)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sess.Exec(q, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOverlapsScan(b *testing.B) {
	for _, w := range []int{1, 30, 720} {
		b.Run(fmt.Sprintf("window=%dd", w), func(b *testing.B) { overlapsBench(b, false, w) })
	}
}

func BenchmarkOverlapsIndex(b *testing.B) {
	for _, w := range []int{1, 30, 720} {
		b.Run(fmt.Sprintf("window=%dd", w), func(b *testing.B) { overlapsBench(b, true, w) })
	}
}

// --- E7: durability, WAL overhead and recovery ----------------------------

// walRows is the number of INSERTs per E7 operation.
const walRows = 1000

// BenchmarkWALInsert times loading walRows prescriptions into a fresh
// engine, without a WAL and with one; an operation is the whole load.
func BenchmarkWALInsert(b *testing.B) {
	rows := workload.Generate(workload.DefaultConfig(walRows))
	for _, logged := range []bool{false, true} {
		name := "memory"
		if logged {
			name = "wal"
		}
		b.Run(name, func(b *testing.B) {
			dir := b.TempDir()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				db, bl := newTIPEngine()
				if logged {
					db, bl = openTIPEngine(b, filepath.Join(dir, fmt.Sprint(i)))
				}
				b.StartTimer()
				if err := workload.LoadTIP(db.NewSession(), bl, rows); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if err := db.Close(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*walRows), "ns/insert")
		})
	}
}

// BenchmarkWALReplay times recovery: replaying a log of walRows INSERTs
// (and the CREATE TABLE before them) into a fresh engine. Every replay
// must recover every row.
func BenchmarkWALReplay(b *testing.B) {
	dir := b.TempDir()
	db, bl := openTIPEngine(b, filepath.Join(dir, "src"))
	if err := workload.LoadTIP(db.NewSession(), bl, workload.Generate(workload.DefaultConfig(walRows))); err != nil {
		b.Fatal(err)
	}
	if err := db.Close(); err != nil {
		b.Fatal(err)
	}
	log, err := os.ReadFile(filepath.Join(dir, "src", "wal.log"))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Each open recovers a fresh copy: Open may append to the log.
		b.StopTimer()
		copyDir := filepath.Join(dir, fmt.Sprint(i))
		if err := os.MkdirAll(copyDir, 0o755); err != nil {
			b.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(copyDir, "wal.log"), log, 0o644); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		fresh, _ := openTIPEngine(b, copyDir)
		b.StopTimer()
		res, err := fresh.NewSession().Exec(`SELECT COUNT(*) FROM Prescription`, nil)
		if err != nil {
			b.Fatal(err)
		}
		if got := res.Rows[0][0].Int(); got != walRows {
			b.Fatalf("recovered %d rows, want %d", got, walRows)
		}
		if err := fresh.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// --- E8: temporal join algorithms ---------------------------------------

func overlapJoinBench(b *testing.B, indexed bool, n int) {
	sess, _ := newTIPDB()
	mustB := func(q string) {
		b.Helper()
		if _, err := sess.Exec(q, nil); err != nil {
			b.Fatal(err)
		}
	}
	mustB(`CREATE TABLE rx (id INT, valid Element)`)
	mustB(`CREATE TABLE visit (id INT, during Period)`)
	if indexed {
		mustB(`CREATE INDEX vix ON visit (during) USING PERIOD`)
	}
	r := rand.New(rand.NewSource(31))
	base := temporal.MustDate(1998, 1, 1)
	horizon := int64(n) * 20 * 86400
	for i := 0; i < n; i++ {
		lo := base + temporal.Chronon(r.Int63n(horizon))
		mustB(fmt.Sprintf(`INSERT INTO rx VALUES (%d, '%s')`,
			i, temporal.MustPeriod(lo, lo+temporal.Chronon(r.Int63n(30*86400))).Element()))
		vlo := base + temporal.Chronon(r.Int63n(horizon))
		mustB(fmt.Sprintf(`INSERT INTO visit VALUES (%d, '%s')`,
			i, temporal.MustPeriod(vlo, vlo+temporal.Chronon(r.Int63n(5*86400)))))
	}
	q := `SELECT COUNT(*) FROM rx r, visit v WHERE overlaps(v.during, r.valid)`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sess.Exec(q, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOverlapJoinNested(b *testing.B) {
	for _, n := range []int{100, 400} {
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) { overlapJoinBench(b, false, n) })
	}
}

func BenchmarkOverlapJoinIndexed(b *testing.B) {
	for _, n := range []int{100, 400, 1600} {
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) { overlapJoinBench(b, true, n) })
	}
}

// --- concurrency: a writer beside a scanning analyst -------------------------

// disjointWritersBench measures insert throughput into a writer-private
// table, optionally while an analyst session loops full temporal scans
// over another table.
func disjointWritersBench(b *testing.B, analyst bool) {
	sess, bl := newTIPDB()
	if err := workload.LoadTIP(sess, bl, workload.Generate(workload.DefaultConfig(2000))); err != nil {
		b.Fatal(err)
	}
	if _, err := sess.Exec(`CREATE TABLE w (a INT)`, nil); err != nil {
		b.Fatal(err)
	}
	db := sess.Database()
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		if !analyst {
			return
		}
		a := db.NewSession()
		q := `SELECT COUNT(*) FROM Prescription WHERE overlaps(valid, '[1998-03-01, 1998-03-10]')`
		for {
			select {
			case <-stop:
				return
			default:
				if _, err := a.Exec(q, nil); err != nil {
					panic(err)
				}
			}
		}
	}()
	writer := db.NewSession()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := writer.Exec(`INSERT INTO w VALUES (1)`, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	close(stop)
	<-done
}

func BenchmarkDisjointWritersPerTable(b *testing.B) { disjointWritersBench(b, true) }

// BenchmarkDisjointWritersNoAnalyst is the MVCC baseline: identical to
// PerTable without the scanning analyst. Since reads are
// snapshot-pinned and lock-free, the analyst costs the writer only the
// CPU the scans themselves burn — on a multi-core box PerTable should
// land within ~10% of this baseline (`make mvcc-smoke` runs both; the
// gap is CPU competition, not lock waits, so it widens on one core).
func BenchmarkDisjointWritersNoAnalyst(b *testing.B) { disjointWritersBench(b, false) }

// --- kernel micro-benchmarks -------------------------------------------------

func BenchmarkParseElement(b *testing.B) {
	s := "{[1999-01-01, 1999-04-30], [1999-07-01, 1999-10-31], [1999-11-01, NOW]}"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := temporal.ParseElement(s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFormatElement(b *testing.B) {
	e, err := temporal.ParseElement("{[1999-01-01, 1999-04-30], [1999-07-01, 1999-10-31]}")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = e.String()
	}
}

func BenchmarkElementCodec(b *testing.B) {
	e, _ := elementPair(64)
	buf := e.AppendBinary(nil)
	b.Run("encode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e.AppendBinary(nil)
		}
	})
	b.Run("decode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := temporal.DecodeElement(buf); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkGroupUnionAggregate isolates the aggregate itself: one group
// of n single-period elements coalesced by group_union.
func BenchmarkGroupUnionAggregate(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			sess, bl := newTIPDB()
			cfg := workload.DefaultConfig(n)
			cfg.OpenFraction = 0
			cfg.Patients = 1 // a single group: pure aggregate cost
			if err := workload.LoadTIP(sess, bl, workload.Generate(cfg)); err != nil {
				b.Fatal(err)
			}
			q := `SELECT patient, length(group_union(valid)) FROM Prescription GROUP BY patient`
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sess.Exec(q, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
