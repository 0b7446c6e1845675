// Command tipbench regenerates the experiment tables of DESIGN.md and
// EXPERIMENTS.md: the element-algebra scaling series (E1), the
// blade-vs-stratum comparisons (E2, E3), the NOW-semantics sweep (E4),
// the generated-SQL complexity table (E5), the period-index selection
// ablation (E6), the WAL durability ablation (E7) and the temporal-join
// algorithm comparison (E8).
//
// Usage:
//
//	tipbench              # every experiment, quick sizes
//	tipbench -exp E2      # one experiment
//	tipbench -full        # paper-scale sizes (several minutes)
//	tipbench -json .      # write machine-readable BENCH_<name>.json files
//
// -json runs the throughput scenarios with statement tracing forced on
// every statement, so the reported p50/p99 come from the engine's own
// latency histograms (internal/obs), not wall-clock division.
package main

import (
	"flag"
	"fmt"
	"os"

	"tip/internal/bench"
)

func main() {
	exp := flag.String("exp", "", "run a single experiment (E1..E8)")
	full := flag.Bool("full", false, "run the full-scale sweeps")
	jsonDir := flag.String("json", "", "write machine-readable BENCH_<name>.json files to this directory")
	flag.Parse()

	switch {
	case *jsonDir != "":
		paths, err := bench.WriteJSON(*jsonDir, bench.JSONResults(2000))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		for _, p := range paths {
			fmt.Println(p)
		}
	case *exp != "":
		tab, err := bench.ByID(*exp)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		tab.Fprint(os.Stdout)
	case *full:
		for _, tab := range bench.Full() {
			tab.Fprint(os.Stdout)
		}
	default:
		for _, tab := range bench.Quick() {
			tab.Fprint(os.Stdout)
		}
	}
}
