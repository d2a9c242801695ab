package exp

import (
	"fmt"

	"dricache/internal/energy"
	"dricache/internal/stats"
)

// SweepRow is one benchmark's outcome across a swept parameter.
type SweepRow struct {
	Bench  string
	Values []float64 // relative ED per sweep point
	Labels []string
	// MaxVariationPct is the spread of ED across the sweep relative to the
	// base point — the quantity §5.6 reports ("the energy-delay product
	// varies by less than 1% in all but one benchmark").
	MaxVariationPct float64
}

// IntervalSweep varies the sense-interval length across a multiplier range
// (the paper's 250K–4M around a 1M base, scaled to the runner's interval)
// with the base constrained parameters. Miss-bounds are per-interval counts,
// so they scale proportionally, keeping the target miss *rate* fixed. The
// run length scales with the interval so every point sees the same number
// of sense intervals — otherwise the fixed-length downsizing descent
// (negligible at the paper's full scale) would dominate the comparison.
func (r *Runner) IntervalSweep(base []Fig3Row) []SweepRow {
	multipliers := []float64{0.25, 0.5, 1, 2, 4}
	labels := make([]string, len(multipliers))
	for i, m := range multipliers {
		labels[i] = fmt.Sprintf("%gx", m)
	}
	intervals := r.Scale.Instructions / r.Scale.SenseInterval
	var tasks []Task
	for _, row := range base {
		prog := mustProg(row.Bench)
		for _, m := range multipliers {
			p := r.Params(row.Constrained.MissBound, row.Constrained.SizeBound)
			p.SenseInterval = uint64(float64(r.Scale.SenseInterval) * m)
			p.MissBound = uint64(float64(row.Constrained.MissBound) * m)
			if p.MissBound == 0 {
				p.MissBound = 1
			}
			tasks = append(tasks, Task{
				Prog:         prog,
				Config:       driConfig(64<<10, 1, p),
				Instructions: intervals * p.SenseInterval,
			})
		}
	}
	return r.collectSweep(base, tasks, labels, 2) // index of the 1x point
}

// DivisibilitySweep compares divisibility 2, 4, and 8 with the base
// constrained parameters (§5.6: "a divisibility of four or eight ...
// prohibitively increases the resizing granularity").
func (r *Runner) DivisibilitySweep(base []Fig3Row) []SweepRow {
	divs := []int{2, 4, 8}
	labels := []string{"div2", "div4", "div8"}
	var tasks []Task
	for _, row := range base {
		prog := mustProg(row.Bench)
		for _, d := range divs {
			p := r.Params(row.Constrained.MissBound, row.Constrained.SizeBound)
			p.Divisibility = d
			tasks = append(tasks, Task{Prog: prog, Config: driConfig(64<<10, 1, p)})
		}
	}
	return r.collectSweep(base, tasks, labels, 0)
}

func (r *Runner) collectSweep(base []Fig3Row, tasks []Task, labels []string, baseIdx int) []SweepRow {
	results := r.RunAll(tasks)
	rows := make([]SweepRow, 0, len(base))
	i := 0
	for _, b := range base {
		row := SweepRow{Bench: b.Bench, Labels: labels}
		for range labels {
			row.Values = append(row.Values, results[i].Cmp.RelativeED)
			i++
		}
		ref := row.Values[baseIdx]
		for _, v := range row.Values {
			if ref > 0 {
				if d := 100 * abs(v-ref) / ref; d > row.MaxVariationPct {
					row.MaxVariationPct = d
				}
			}
		}
		rows = append(rows, row)
	}
	return rows
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// FormatSweep renders a sweep table.
func FormatSweep(rows []SweepRow) string {
	if len(rows) == 0 {
		return ""
	}
	header := []string{"bench"}
	header = append(header, rows[0].Labels...)
	header = append(header, "maxvar%")
	t := stats.NewTable(header...)
	for _, r := range rows {
		cells := []string{r.Bench}
		for _, v := range r.Values {
			cells = append(cells, fmt.Sprintf("%.3f", v))
		}
		cells = append(cells, fmt.Sprintf("%.1f", r.MaxVariationPct))
		t.AddRow(cells...)
	}
	return t.String()
}

// AblationThrottle compares the base constrained configuration with
// throttling disabled, an ablation of the controller's oscillation damper
// (without it, a working set near a size boundary can flip the cache
// between two adjacent sizes every interval).
func (r *Runner) AblationThrottle(base []Fig3Row) []VariationRow {
	labels := []string{"throttle", "no-throttle"}
	var tasks []Task
	for _, row := range base {
		prog := mustProg(row.Bench)
		on := r.Params(row.Constrained.MissBound, row.Constrained.SizeBound)
		off := on
		off.ThrottleIntervals = 0
		tasks = append(tasks,
			Task{Prog: prog, Config: driConfig(64<<10, 1, on)},
			Task{Prog: prog, Config: driConfig(64<<10, 1, off)},
		)
	}
	return r.collectVariants(base, tasks, labels)
}

// FlushAblation measures the paper's §2.2 claim that flushing on resize is
// unnecessary given resizing tag bits: it compares the standard DRI cache
// against one that invalidates its entire contents at every resize.
func (r *Runner) FlushAblation(base []Fig3Row) []VariationRow {
	labels := []string{"resizing-tags", "flush-on-resize"}
	var tasks []Task
	for _, row := range base {
		prog := mustProg(row.Bench)
		p := r.Params(row.Constrained.MissBound, row.Constrained.SizeBound)
		pf := p
		pf.FlushOnResize = true
		tasks = append(tasks,
			Task{Prog: prog, Config: driConfig(64<<10, 1, p)},
			Task{Prog: prog, Config: driConfig(64<<10, 1, pf)},
		)
	}
	return r.collectVariants(base, tasks, labels)
}

// WaysAblation compares the paper's set-count resizing against the §2
// alternative it rejects — resizing by disabling ways (selective ways) —
// on a 64K 4-way cache with the base constrained miss-bounds. Way-resizing
// keeps its one advantage (no resizing tag bits, so no extra L1 dynamic
// energy) but its floor is one way (16K here) and each step converts
// conflict pressure into misses.
func (r *Runner) WaysAblation(base []Fig3Row) []VariationRow {
	labels := []string{"resize-sets", "resize-ways"}
	var tasks []Task
	for _, row := range base {
		prog := mustProg(row.Bench)
		mb := row.Constrained.MissBound
		pSets := r.Params(mb, row.Constrained.SizeBound)
		pWays := r.Params(mb, 16<<10) // one way of a 64K 4-way cache
		pWays.ResizeWays = true
		tasks = append(tasks,
			Task{Prog: prog, Config: driConfig(64<<10, 4, pSets)},
			Task{Prog: prog, Config: driConfig(64<<10, 4, pWays)},
		)
	}
	return r.collectVariants(base, tasks, labels)
}

// AutoBoundStudy compares the §2.1 future-work dynamic controller — a
// single global AutoMissBoundFactor that derives each benchmark's
// miss-bound from its observed full-size miss rate — against the
// per-benchmark oracle picks of the Figure 3 constrained search. A dynamic
// scheme that lands near the oracle with one global knob removes the
// per-application tuning burden the paper's static design carries.
func (r *Runner) AutoBoundStudy(base []Fig3Row, factor float64) []VariationRow {
	labels := []string{"oracle-static", "auto-bound"}
	var tasks []Task
	for _, row := range base {
		prog := mustProg(row.Bench)
		static := r.Params(row.Constrained.MissBound, row.Constrained.SizeBound)
		auto := r.Params(0, row.Constrained.SizeBound)
		auto.AutoMissBoundFactor = factor
		tasks = append(tasks,
			Task{Prog: prog, Config: driConfig(64<<10, 1, static)},
			Task{Prog: prog, Config: driConfig(64<<10, 1, auto)},
		)
	}
	return r.collectVariants(base, tasks, labels)
}

// EnergyRatioReport reproduces the §5.2.1 worked ratios.
func EnergyRatioReport() string {
	m := energy.Default64K()
	t := stats.NewTable("ratio", "assumptions", "value", "paper")
	t.AddRow("extra-L1-dynamic / L1 leakage", "bits=5, fraction=0.5",
		fmt.Sprintf("%.3f", m.ExtraL1OverLeakageRatio(5, 0.5)), "0.024")
	t.AddRow("extra-L2-dynamic / L1 leakage", "fraction=0.5, extra miss rate=1%",
		fmt.Sprintf("%.3f", m.ExtraL2OverLeakageRatio(0.5, 0.01)), "0.08")
	return t.String()
}
