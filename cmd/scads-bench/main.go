// Command scads-bench regenerates every figure and table of the SCADS
// paper (see cmd/scads-bench/README.md for the experiment index and
// ARCHITECTURE.md for the system inventory). Each experiment prints
// the series or table the paper reports, produced by the real system
// components, and returns typed metrics that the committed baselines
// gate.
//
// Usage:
//
//	scads-bench -grid experiments.json -out bench-out   # the full grid, with repeats
//	scads-bench -grid experiments.json -grid-row e1     # Figure 1: Animoto scale-up
//	scads-bench -grid experiments.json -grid-row e4b    # Figure 4 row 2: write consistency
//	scads-bench -compare bench-out                      # regression gate
//	scads-bench -list                                   # catalogue + grid-overridable parameters
//
// -grid runs the committed experiment grid: every row of
// experiments.json executes its experiment with that row's parameter
// overrides, repeat count and seed policy, and the output directory
// receives schema-validated runs.csv / summary_grouped.csv, one
// grouped BENCH_<row>.json per row, and report.md (grouped mean±std
// diffed against the committed baselines). CI's bench-gate is
// `-grid` followed by `-compare`.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
)

func main() {
	compare := flag.String("compare", "", "compare BENCH_*.json summaries in this directory against committed baselines and exit non-zero on regression")
	baselines := flag.String("baselines", "cmd/scads-bench/baselines", "baseline directory for -compare and the -grid report")
	grid := flag.String("grid", "", "experiments.json grid: run every row with repeats, emit validated CSVs + grouped summaries + report")
	gridRow := flag.String("grid-row", "", "with -grid: run only the row with this id")
	gridRepeats := flag.Int("grid-repeats", 0, "with -grid: raise every row's repeat count to at least this (nightly statistical power)")
	outDir := flag.String("out", "bench-out", "output directory for -grid artifacts")
	list := flag.Bool("list", false, "print every experiment and its grid-overridable parameters")
	flag.Parse()

	switch {
	case *list:
		listExperiments()
	case *compare != "":
		if n := compareBenchmarks(*compare, *baselines); n > 0 {
			log.Fatalf("scads-bench: %d metric(s) regressed against committed baselines", n)
		}
		fmt.Println("all benchmark metrics within tolerance of committed baselines")
	case *grid != "":
		runGridCmd(*grid, *gridRow, *outDir, *gridRepeats, *baselines)
	default:
		flag.Usage()
		os.Exit(2)
	}
}
