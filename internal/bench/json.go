package bench

// Machine-readable benchmark output. Each scenario runs against a
// pinned-clock engine with trace sampling forced to every statement, so
// the per-kind latency histograms of internal/obs hold the full
// distribution; the JSON reports ops/s plus the histogram's p50/p99.
// cmd/tipbench writes one BENCH_<name>.json per scenario with -json.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"tip/internal/engine"
	"tip/internal/temporal"
	"tip/internal/types"
	"tip/internal/workload"
)

// Result is one scenario's machine-readable measurement. Latencies come
// from the engine's stmt.<kind>.latency histogram, not from wall-clock
// division, so p50/p99 reflect the true per-statement distribution.
// AllocsPerOp and RowsReadPerOp cover only the measured window (setup —
// schema creation, loads, index builds — is excluded): heap allocations
// from runtime.MemStats.Mallocs deltas, rows read from the engine's
// rows.read counter delta.
type Result struct {
	Name          string             `json:"name"`
	Statements    int64              `json:"statements"`
	OpsPerSec     float64            `json:"ops_per_sec"`
	P50Nanos      float64            `json:"p50_ns"`
	P99Nanos      float64            `json:"p99_ns"`
	MeanNanos     float64            `json:"mean_ns"`
	AllocsPerOp   float64            `json:"allocs_per_op"`
	RowsReadPerOp float64            `json:"rows_read_per_op"`
	Metrics       map[string]float64 `json:"metrics,omitempty"`
}

// jsonScenario builds a fresh fully-traced engine, lets setup prepare it
// (load data, build indexes) and returns the measured closure, then
// times only that closure: wall clock for ops/s, MemStats.Mallocs for
// allocs/op, the rows.read counter for rows/op. The run closure must
// execute `n` statements of the given kind.
func jsonScenario(name, kind string, extra []string, setup func(db *engine.Database) (run func() int64)) Result {
	sess, _ := NewTIPDB()
	db := sess.Database()
	db.SetTraceSampling(1) // every statement feeds the histograms
	run := setup(db)
	before := db.Metrics().Snapshot()
	rowsBefore, _ := before.Get("rows.read")
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	n := run()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	snap := db.Metrics().Snapshot()
	get := func(metric string) float64 {
		v, _ := snap.Get(metric)
		return v
	}
	res := Result{
		Name:          name,
		Statements:    n,
		OpsPerSec:     float64(n) / elapsed.Seconds(),
		P50Nanos:      get("stmt." + kind + ".latency.p50"),
		P99Nanos:      get("stmt." + kind + ".latency.p99"),
		MeanNanos:     get("stmt." + kind + ".latency.mean"),
		AllocsPerOp:   float64(m1.Mallocs-m0.Mallocs) / float64(n),
		RowsReadPerOp: (get("rows.read") - rowsBefore) / float64(n),
	}
	if len(extra) > 0 {
		res.Metrics = make(map[string]float64, len(extra))
		for _, m := range extra {
			res.Metrics[m] = get(m)
		}
	}
	return res
}

// JSONResults measures the machine-readable scenarios: insert
// throughput, a repeated coalescing query (plan-cache resident), and the
// period-index temporal join.
func JSONResults(rows int) []Result {
	data := workload.Generate(workload.DefaultConfig(rows))

	insert := jsonScenario("insert", "insert",
		[]string{"wal.appends", "rows.written"},
		func(db *engine.Database) func() int64 {
			return func() int64 {
				if err := loadPrescriptions(db.NewSession(), data); err != nil {
					panic(err)
				}
				return int64(len(data))
			}
		})
	// The durability dimension: the same insert workload on WAL-backed
	// engines under each fsync policy. wal_nofsync (SyncOnCheckpoint) is
	// the baseline the grouped policy is judged against.
	insert.Metrics["durability.wal_nofsync.ops_per_sec"] =
		durabilityOpsPerSec(data, engine.SyncOnCheckpoint, 0)
	insert.Metrics["durability.grouped.ops_per_sec"] =
		durabilityOpsPerSec(data, engine.SyncGrouped, 0)
	insert.Metrics["durability.sync_every.ops_per_sec"] =
		durabilityOpsPerSec(data, engine.SyncEveryAppend, 0)
	// The MVCC dimension: insert throughput with and without a
	// snapshot-scanning analyst on a disjoint table. Scans take no
	// locks, so the gap between the two is the CPU the scans burn, not
	// lock waits (it therefore widens on single-core machines).
	insert.Metrics["mvcc.no_analyst.ops_per_sec"] = mvccOpsPerSec(false, 300*time.Millisecond)
	insert.Metrics["mvcc.analyst.ops_per_sec"] = mvccOpsPerSec(true, 300*time.Millisecond)

	coalesce := jsonScenario("coalesce", "select",
		[]string{"plancache.hit_rate", "rows.read", "planner.coalesce.sort_merge", "planner.coalesce.hash"},
		func(db *engine.Database) func() int64 {
			sess := db.NewSession()
			if err := loadPrescriptions(sess, data); err != nil {
				panic(err)
			}
			return func() int64 {
				const reps = 50
				q := `SELECT patient, length(group_union(valid)) FROM Prescription GROUP BY patient`
				for i := 0; i < reps; i++ {
					if _, err := sess.Exec(q, nil); err != nil {
						panic(err)
					}
				}
				return reps
			}
		})

	join := jsonScenario("period_index_join", "select",
		[]string{"table.prescription.reads", "planner.scan.period"},
		func(db *engine.Database) func() int64 {
			sess := db.NewSession()
			if err := loadPrescriptions(sess, data); err != nil {
				panic(err)
			}
			if _, err := sess.Exec(`CREATE INDEX rx_valid ON Prescription (valid) USING PERIOD`, nil); err != nil {
				panic(err)
			}
			return func() int64 {
				const reps = 20
				q := `SELECT COUNT(*) FROM Prescription WHERE overlaps(valid, '[1998-03-01, 1998-03-31]')`
				for i := 0; i < reps; i++ {
					if _, err := sess.Exec(q, nil); err != nil {
						panic(err)
					}
				}
				return reps
			}
		})

	return []Result{insert, coalesce, join, ReplReadResult()}
}

// mvccOpsPerSec measures single-writer insert throughput, optionally
// beside an analyst looping temporal full scans over a disjoint table —
// the BenchmarkDisjointWriters pair as one machine-readable number.
func mvccOpsPerSec(analyst bool, runFor time.Duration) float64 {
	sess, _ := NewTIPDB()
	db := sess.Database()
	if _, err := sess.Exec(`CREATE TABLE rx (a INT, valid Element)`, nil); err != nil {
		panic(err)
	}
	elementT, _ := db.Registry().LookupType("Element")
	base := temporal.MustDate(1998, 1, 1)
	p := map[string]types.Value{}
	for i := 0; i < 200; i++ {
		lo := base + temporal.Chronon(int64(i%1000)*86400)
		p["a"] = types.NewInt(int64(i))
		p["v"] = types.NewUDT(elementT, temporal.MustPeriod(lo, lo+10*86400).Element())
		if _, err := sess.Exec(`INSERT INTO rx VALUES (:a, :v)`, p); err != nil {
			panic(err)
		}
	}
	if _, err := sess.Exec(`CREATE TABLE w (a INT)`, nil); err != nil {
		panic(err)
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		if !analyst {
			return
		}
		a := db.NewSession()
		q := `SELECT COUNT(*) FROM rx WHERE overlaps(valid, '[1998-03-01, 1998-03-10]')`
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
	wp := map[string]types.Value{"a": types.NewInt(1)}
	n := int64(0)
	start := time.Now()
	deadline := start.Add(runFor)
	for time.Now().Before(deadline) {
		if _, err := writer.Exec(`INSERT INTO w VALUES (:a)`, wp); err != nil {
			panic(err)
		}
		n++
	}
	elapsed := time.Since(start)
	close(stop)
	<-done
	return float64(n) / elapsed.Seconds()
}

// durabilityOpsPerSec measures insert throughput on a fresh WAL-backed
// engine under one fsync policy (interval 0 keeps the grouped default).
func durabilityOpsPerSec(data []workload.Prescription, p engine.SyncPolicy, interval time.Duration) float64 {
	dir, err := os.MkdirTemp("", "tipbench-wal-")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	sess, _ := NewTIPDB()
	db := sess.Database()
	db.SetDurability(p, interval)
	if err := db.EnableWAL(filepath.Join(dir, "wal.log")); err != nil {
		panic(err)
	}
	defer func() { _ = db.DisableWAL() }()
	start := time.Now()
	if err := loadPrescriptions(sess, data); err != nil {
		panic(err)
	}
	return float64(len(data)) / time.Since(start).Seconds()
}

// loadPrescriptions creates the schema and loads the workload rows into
// an existing session (scenario setup outside the measured window is
// fine: the histograms still count those statements, but insert latency
// does not pollute the select histogram the scenarios report).
func loadPrescriptions(sess *engine.Session, data []workload.Prescription) error {
	if _, err := sess.Exec(workload.Schema, nil); err != nil {
		return err
	}
	reg := sess.Database().Registry()
	elementT, _ := reg.LookupType("Element")
	chrononT, _ := reg.LookupType("Chronon")
	spanT, _ := reg.LookupType("Span")
	const ins = `INSERT INTO Prescription VALUES (:doc, :pat, :dob, :drug, :dose, :freq, :valid)`
	for _, p := range data {
		params := map[string]types.Value{
			"doc":   types.NewString(p.Doctor),
			"pat":   types.NewString(p.Patient),
			"dob":   types.NewUDT(chrononT, p.PatientDOB),
			"drug":  types.NewString(p.Drug),
			"dose":  types.NewInt(p.Dosage),
			"freq":  types.NewUDT(spanT, p.Frequency),
			"valid": types.NewUDT(elementT, p.Valid),
		}
		if _, err := sess.Exec(ins, params); err != nil {
			return err
		}
	}
	return nil
}

// WriteJSON writes each result as BENCH_<name>.json under dir and
// returns the paths written.
func WriteJSON(dir string, results []Result) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var paths []string
	for _, r := range results {
		buf, err := json.MarshalIndent(r, "", "  ")
		if err != nil {
			return nil, err
		}
		path := filepath.Join(dir, fmt.Sprintf("BENCH_%s.json", r.Name))
		if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
			return nil, err
		}
		paths = append(paths, path)
	}
	return paths, nil
}
