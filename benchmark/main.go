// Command benchmark measures TIP end to end and layer by layer: one
// process opens a durable database, serves it on loopback TCP and drives
// it through client.Conn in a closed loop. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one reported number; the JSON shape is the driver's.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a single-workload run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEndBounds are the regression bounds of BENCHMARK.json, repeated
// here so that -repeat can judge two runs of one commit against them.
var endToEndBounds = []struct {
	name  string
	bound float64
}{
	{"throughput_ops_s", 0.25},
	{"latency_p50_ms", 0.25},
	{"latency_p95_ms", 0.25},
	{"setup_s", 0.25},
}

// config is one run's inputs.
type config struct {
	seed   int64
	dur    time.Duration // measured time
	trace  bool
	z      sizes
	outDir string
	log    io.Writer // the human-readable report
}

// runWorkload generates the inputs, sets the database up and runs the
// workload once, traced or not.
func runWorkload(w *workload, cfg config) (*result, error) {
	ds := genDataset(cfg.seed, cfg.z)
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	n := setups
	if cfg.trace {
		n = 1 // the traced run does not report setup_s
	}
	in, setupSecs, err := timedSetup(cfg.outDir, ds, w, n)
	if err != nil {
		return nil, err
	}
	defer in.close()
	pools := w.pools(cfg.seed, in.db, ds)
	texts := map[string]bool{}
	for _, pool := range pools {
		for i := range pool {
			texts[pool[i].sql] = true
		}
	}
	fmt.Fprintf(cfg.log, "env: %s: %d client(s), %d distinct statement text(s) against a 256-entry plan cache: %s\n", w.name, w.clients, len(texts), w.why)
	if cfg.trace {
		return traceWorkload(w, cfg, in, ds, pools[0])
	}

	m := measure(in, pools, ds, cfg.dur)
	checkErr := m.firstErr
	if m.acked > 0 {
		if err := verifyInserts(in, ds, m); err != nil && checkErr == nil {
			checkErr = err
		}
	}
	tput, p50, p95, tailName, tailMs := m.endToEnd()
	setupSum := summarize(setupSecs, len(setupSecs))
	res := &result{Correct: m.failed == 0, Attempted: m.attempted, Failed: m.failed, Metrics: map[string]metric{
		"throughput_ops_s": {tput.median, "1/s"},
		"latency_p50_ms":   {p50.median, "ms"},
		"latency_p95_ms":   {p95.median, "ms"},
		"setup_s":          {setupSum.median, "s"},
	}}
	fmt.Fprintf(cfg.log, "%s  (%d client(s), closed loop, %v in %d rounds, seed %d)\n", w.name, w.clients, cfg.dur, rounds, cfg.seed)
	line := func(name string, s summary, unit, of string) {
		fmt.Fprintf(cfg.log, "  %-18s %12.4f %-4s median of %s, quartile spread %.1f%%, %d samples\n", name, s.median, unit, of, 100*s.spread, s.n)
	}
	ofRounds := fmt.Sprintf("%d rounds", rounds)
	line("throughput_ops_s", tput, "1/s", ofRounds)
	line("latency_p50_ms", p50, "ms", ofRounds)
	line("latency_p95_ms", p95, "ms", ofRounds)
	fmt.Fprintf(cfg.log, "  %-18s %12.4f ms   %s, the highest percentile with >=10 samples beyond it (not gated)\n", "latency_tail_ms", tailMs, tailName)
	line("setup_s", setupSum, "s", fmt.Sprintf("%d set-ups", setups))
	fmt.Fprintf(cfg.log, "  %-18s %12.6f      %d failed of %d attempted (errors and wrong answers)\n", "failed_share", float64(m.failed)/float64(m.attempted), m.failed, m.attempted)
	if checkErr != nil {
		fmt.Fprintf(cfg.log, "  FAILED: %v\n", checkErr)
	}
	return res, nil
}

// printEnv records what produced the numbers.
func printEnv(out io.Writer, cfg config) {
	commit := "unknown"
	if _, err := os.Stat("../.git"); err == nil { // the benchmark runs from its own directory
		if b, err := exec.Command("git", "-C", "..", "rev-parse", "HEAD").Output(); err == nil {
			commit = strings.TrimSpace(string(b))
		}
	}
	fmt.Fprintf(out, "env: cpus=%d GOMAXPROCS=%d go=%s commit=%s\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit)
	fmt.Fprintf(out, "env: durability=grouped fsync every 2ms, loopback TCP, observability at its shipped default (1-in-16 sampling)\n")
	fmt.Fprintf(out, "env: seed=%d measured=%v (+%d%% warm-up) rounds=%d\n", cfg.seed, cfg.dur, 100/warmShare, rounds)
	fmt.Fprintf(out, "env: dataset Prescription=%d rows over %d patients, visit=%d rows, NOW pinned to the end of 1999-11-12\n", cfg.z.rows, cfg.z.patients, cfg.z.visits)
}

// compare prints, for two runs of the suite on one commit, both values
// of every end-to-end metric, their relative difference, and whether it
// stays inside the bound.
func compare(out io.Writer, names []string, a, b map[string]*result) bool {
	pass := true
	fmt.Fprintf(out, "\n%-15s %-18s %14s %14s %8s %7s\n", "workload", "metric", "run 1", "run 2", "diff", "bound")
	for _, name := range names {
		for _, e := range endToEndBounds {
			x, y := a[name].Metrics[e.name].Value, b[name].Metrics[e.name].Value
			diff := (y - x) / x
			verdict := "PASS"
			if diff > e.bound || diff < -e.bound {
				verdict, pass = "UNRESOLVED", false
			}
			fmt.Fprintf(out, "%-15s %-18s %14.4f %14.4f %+7.1f%% %6.0f%%  %s\n", name, e.name, x, y, 100*diff, 100*e.bound, verdict)
		}
	}
	return pass
}

func main() {
	var cfg config
	var name string
	var seconds, traceFlag, repeat int
	flag.StringVar(&name, "workload", "", "workload to run (default: all of them)")
	flag.Int64Var(&cfg.seed, "seed", 1999, "seed of the generated dataset and statements")
	flag.IntVar(&seconds, "seconds", 10, "measured time per workload")
	flag.IntVar(&traceFlag, "trace", 0, "1: run traced and report the per-layer metrics")
	flag.IntVar(&repeat, "repeat", 1, "2: run the suite twice and compare the runs against the bounds")
	flag.StringVar(&cfg.outDir, "out", "out", "directory for database files and trace_<workload>.json")
	flag.Parse()
	cfg.dur = time.Duration(seconds) * time.Second
	cfg.trace = traceFlag != 0
	cfg.z = fullSizes()
	cfg.log = os.Stdout
	if flag.NArg() > 0 || seconds < 1 || repeat < 1 || repeat > 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark [-workload name] [-seed n] [-seconds n] [-trace 0|1] [-repeat 1|2] [-out dir]")
		os.Exit(2)
	}
	var ws []*workload
	for i := range workloads {
		if name == "" || workloads[i].name == name {
			ws = append(ws, &workloads[i])
		}
	}
	if len(ws) == 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", name)
		os.Exit(2)
	}
	printEnv(os.Stdout, cfg)

	failed := false
	var runs []map[string]*result
	var last *result
	for range repeat {
		got := map[string]*result{}
		for _, w := range ws {
			res, err := runWorkload(w, cfg)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
				os.Exit(1)
			}
			got[w.name], last = res, res
			failed = failed || !res.Correct
		}
		runs = append(runs, got)
	}
	if repeat == 2 && !cfg.trace {
		names := make([]string, 0, len(ws))
		for _, w := range ws {
			names = append(names, w.name)
		}
		sort.Strings(names)
		if !compare(os.Stdout, names, runs[0], runs[1]) {
			fmt.Println("some pairs differ by more than the bound: the box is noisier than the bound, or the run too short")
		}
	}
	if len(ws) == 1 && repeat == 1 {
		line, err := json.Marshal(last)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		fmt.Println(string(line))
	}
	if failed {
		os.Exit(1)
	}
}
