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
//
// Machine-readable performance numbers come from the benchmark/ module
// (see BENCHMARK.json), not from this command.
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
	flag.Parse()

	switch {
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
