// Command experiments runs the complete evaluation — Table 2, Figures 3–6,
// the §5.6 sweeps, the §5.2.1 energy ratios, and the ablations (throttling
// off, flush-on-resize, way resizing) — and writes a markdown report that
// sets each measured figure beside the paper's value.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"dricache/internal/circuit"
	"dricache/internal/exp"
	"dricache/internal/stats"
	"dricache/internal/trace"
)

func main() {
	var (
		instrs   = flag.Uint64("n", 4_000_000, "instructions per run")
		interval = flag.Uint64("interval", 100_000, "sense-interval in instructions")
		quick    = flag.Bool("quick", false, "use the reduced search grid")
		out      = flag.String("o", "", "write the report to this file (default stdout)")
	)
	flag.Parse()

	w := io.Writer(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}

	start := time.Now()
	scale := exp.Scale{Instructions: *instrs, SenseInterval: *interval}
	runner := exp.NewRunner(scale)
	space := exp.DefaultSpace(scale)
	if *quick {
		space = exp.QuickSpace(scale)
	}

	fmt.Fprintf(w, "# Experiment report\n\n")
	fmt.Fprintf(w, "Scale: %d instructions/run, sense-interval %d instructions, search %v × %v.\n\n",
		*instrs, *interval, space.MissBounds, space.SizeBounds)

	// --- Table 2 ---
	fmt.Fprintf(w, "## E1 — Table 2 (circuit results)\n\n```\n%s```\n\n",
		circuit.FormatTable2(circuit.Table2Extended(circuit.Default018())))

	// --- Figure 3 ---
	base := runner.Figure3(space, trace.Benchmarks())
	fmt.Fprintf(w, "## E2/E3 — Figure 3 (best-case energy-delay and average size)\n\n```\n%s```\n\n",
		exp.FormatFig3(base))

	// Paper-vs-measured table.
	t := stats.NewTable("bench", "ED(C) paper", "ED(C) here", "size(C) paper", "size(C) here")
	var sumED, sumSize float64
	for _, r := range base {
		p := exp.PaperFig3[r.Bench]
		t.AddRow(r.Bench,
			fmt.Sprintf("%.2f", p.ED), fmt.Sprintf("%.2f", r.Constrained.Cmp.RelativeED),
			fmt.Sprintf("%.2f", p.AvgSize), fmt.Sprintf("%.2f", r.Constrained.Cmp.DRI.AvgActiveFraction))
		sumED += r.Constrained.Cmp.RelativeED
		sumSize += r.Constrained.Cmp.DRI.AvgActiveFraction
	}
	n := float64(len(base))
	fmt.Fprintf(w, "Paper vs measured (constrained):\n\n%s\n", t.Markdown())
	fmt.Fprintf(w, "Headline: mean ED reduction %.0f%% (paper %.0f%%), mean size reduction %.0f%% (paper %.0f%%).\n\n",
		100*(1-sumED/n), exp.PaperHeadline.EDReductionConstrainedPct,
		100*(1-sumSize/n), exp.PaperHeadline.AvgSizeReductionPct)

	// --- Figures 4–6 ---
	fmt.Fprintf(w, "## E4 — Figure 4 (miss-bound 0.5x/1x/2x)\n\n```\n%s```\n\n",
		exp.FormatVariations(runner.Figure4(base)))
	fmt.Fprintf(w, "## E5 — Figure 5 (size-bound 2x/1x/0.5x)\n\n```\n%s```\n\n",
		exp.FormatVariations(runner.Figure5(base)))
	fmt.Fprintf(w, "## E6 — Figure 6 (64K 4-way / 64K DM / 128K DM)\n\n```\n%s```\n\n",
		exp.FormatVariations(runner.Figure6(base)))

	// --- Sweeps ---
	fmt.Fprintf(w, "## E7 — §5.6 sense-interval sweep\n\n```\n%s```\n\n",
		exp.FormatSweep(runner.IntervalSweep(base)))
	fmt.Fprintf(w, "## E8 — §5.6 divisibility sweep\n\n```\n%s```\n\n",
		exp.FormatSweep(runner.DivisibilitySweep(base)))

	// --- Energy ratios ---
	fmt.Fprintf(w, "## E9 — §5.2.1 energy ratios\n\n```\n%s```\n\n", exp.EnergyRatioReport())

	// --- Ablations ---
	fmt.Fprintf(w, "## Ablation — throttle on/off\n\n```\n%s```\n\n",
		exp.FormatVariations(runner.AblationThrottle(base)))
	fmt.Fprintf(w, "## Ablation — resizing tags vs flush-on-resize\n\n```\n%s```\n\n",
		exp.FormatVariations(runner.FlushAblation(base)))
	fmt.Fprintf(w, "## Ablation — set-count resizing vs way resizing (64K 4-way)\n\n```\n%s```\n\n",
		exp.FormatVariations(runner.WaysAblation(base)))
	fmt.Fprintf(w, "## Extension — dynamic miss-bound vs oracle static (§2.1 future work)\n\n```\n%s```\n\n",
		exp.FormatVariations(runner.AutoBoundStudy(base, 30)))
	fmt.Fprintf(w, "## Extension — DRI d-cache (trace-driven)\n\n```\n%s```\n\n",
		exp.FormatDCache(runner.DCacheStudy(trace.Benchmarks(), *interval/20, 8<<10)))

	fmt.Fprintf(w, "Generated in %s.\n", time.Since(start).Round(time.Second))
}
