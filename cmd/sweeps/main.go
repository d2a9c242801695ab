// Command sweeps regenerates the paper's §5.6 sensitivity studies: the
// sense-interval length sweep (ED varies by <1% for all but go at paper
// scale) and the divisibility comparison (4 and 8 are too coarse), plus
// two ablations of the controller's design choices: throttle on/off and
// resizing-tags vs flush-on-resize.
package main

import (
	"flag"
	"fmt"

	"dricache/internal/exp"
	"dricache/internal/trace"
)

func main() {
	var (
		instrs      = flag.Uint64("n", 4_000_000, "instructions per run")
		interval    = flag.Uint64("interval", 100_000, "sense-interval in instructions")
		quick       = flag.Bool("quick", false, "use the reduced search grid for the base picks")
		doInterval  = flag.Bool("interval-sweep", true, "run the sense-interval sweep")
		doDiv       = flag.Bool("divisibility", true, "run the divisibility sweep")
		doAblations = flag.Bool("ablations", true, "run the throttle and flush ablations")
		doDCache    = flag.Bool("dcache", true, "run the DRI d-cache extension study")
	)
	flag.Parse()

	scale := exp.Scale{Instructions: *instrs, SenseInterval: *interval}
	runner := exp.NewRunner(scale)
	space := exp.DefaultSpace(scale)
	if *quick {
		space = exp.QuickSpace(scale)
	}
	base := runner.Figure3(space, trace.Benchmarks())

	if *doInterval {
		fmt.Println("§5.6 sense-interval sweep (relative ED at 0.25x..4x the base interval):")
		fmt.Print(exp.FormatSweep(runner.IntervalSweep(base)))
		fmt.Println()
	}
	if *doDiv {
		fmt.Println("§5.6 divisibility sweep (relative ED at divisibility 2/4/8):")
		fmt.Print(exp.FormatSweep(runner.DivisibilitySweep(base)))
		fmt.Println()
	}
	if *doAblations {
		fmt.Println("ablation: resize throttle on/off:")
		fmt.Print(exp.FormatVariations(runner.AblationThrottle(base)))
		fmt.Println()
		fmt.Println("ablation: resizing tag bits vs flush-on-resize (§2.2):")
		fmt.Print(exp.FormatVariations(runner.FlushAblation(base)))
		fmt.Println()
		fmt.Println("ablation: set-count resizing vs way resizing on 64K 4-way (§2):")
		fmt.Print(exp.FormatVariations(runner.WaysAblation(base)))
	}
	if *doAblations {
		fmt.Println()
		fmt.Println("extension: dynamic miss-bound (factor 30) vs per-benchmark oracle (§2.1 future work):")
		fmt.Print(exp.FormatVariations(runner.AutoBoundStudy(base, 30)))
	}
	if *doDCache {
		fmt.Println()
		fmt.Println("extension: DRI d-cache (the paper's deferred future work; trace-driven):")
		fmt.Print(exp.FormatDCache(runner.DCacheStudy(trace.Benchmarks(), *interval/20, 8<<10)))
	}
}
