// Benchmark harness: one testing.B target per table and figure of the
// paper's evaluation, plus the ablations (throttling off, flush-on-resize,
// way resizing; see internal/exp/sweeps.go) and microbenchmarks of the
// simulation substrates.
//
// The figure benchmarks run the real experiment pipeline at the reduced
// QuickScale (1M instructions, 50K-instruction sense intervals) over a
// three-benchmark core set (one per class: applu, fpppp, gcc) so that
// `go test -bench=. -benchmem` finishes in minutes; the cmd/ tools run the
// same experiments at full scale over all fifteen benchmarks. Each target
// reports the figure's headline quantity as a custom metric.
package dricache

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"dricache/internal/circuit"
	"dricache/internal/cpu"
	"dricache/internal/exp"
	"dricache/internal/isa"
	"dricache/internal/sim"
	"dricache/internal/timeline"
	"dricache/internal/trace"
)

// coreSet returns one representative benchmark per class.
func coreSet(b *testing.B) []trace.Program {
	b.Helper()
	var out []trace.Program
	for _, name := range []string{"applu", "fpppp", "gcc"} {
		p, err := trace.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		out = append(out, p)
	}
	return out
}

// sharedBase caches the QuickScale Figure 3 search that Figures 4–6 and
// the sweeps perturb.
var (
	baseOnce sync.Once
	baseRows []exp.Fig3Row
)

func sharedBase(b *testing.B) ([]exp.Fig3Row, *exp.Runner) {
	b.Helper()
	r := exp.NewRunner(exp.QuickScale())
	baseOnce.Do(func() {
		var progs []trace.Program
		for _, name := range []string{"applu", "fpppp", "gcc"} {
			p, err := trace.ByName(name)
			if err != nil {
				b.Fatal(err)
			}
			progs = append(progs, p)
		}
		baseRows = r.Figure3(exp.QuickSpace(r.Scale), progs)
	})
	return baseRows, r
}

// BenchmarkTable2 regenerates the paper's Table 2 from the circuit model.
func BenchmarkTable2(b *testing.B) {
	tech := circuit.Default018()
	var standby float64
	for i := 0; i < b.N; i++ {
		rows := circuit.Table2(tech)
		standby = rows[2].StandbyLeakE9NJ
	}
	b.ReportMetric(standby, "standby-e9nJ")
}

// fig3Once runs the quick Figure 3 search on a fresh engine and returns
// the mean constrained relative ED.
func fig3Once(progs []trace.Program) float64 {
	r := exp.NewRunner(exp.QuickScale())
	rows := r.Figure3(exp.QuickSpace(r.Scale), progs)
	sum := 0.0
	for _, row := range rows {
		sum += row.Constrained.Cmp.RelativeED
	}
	return sum / float64(len(rows))
}

// BenchmarkFig3 runs the best-case energy-delay search over the
// core set and reports the mean constrained relative ED. The trace replay
// store is primed first, so this measures the warm-store sweep path every
// production sweep after the first takes; BenchmarkFig3Bypass is the
// store-bypass counterpart.
func BenchmarkFig3(b *testing.B) {
	progs := coreSet(b)
	fig3Once(progs) // prime the replay store (and pin the expected result)
	var mean float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mean = fig3Once(progs)
	}
	b.ReportMetric(mean, "mean-ED(C)")
}

// fig3TimelineOnce is fig3Once with the interval flight recorder attached
// to every simulation in the sweep.
func fig3TimelineOnce(progs []trace.Program) float64 {
	scale := exp.QuickScale()
	scale.Timeline = TimelineConfig{Enabled: true}
	r := exp.NewRunner(scale)
	rows := r.Figure3(exp.QuickSpace(r.Scale), progs)
	sum := 0.0
	for _, row := range rows {
		sum += row.Constrained.Cmp.RelativeED
	}
	return sum / float64(len(rows))
}

// BenchmarkFig3Timeline is BenchmarkFig3 with per-interval recording on for
// every lane; its delta over BenchmarkFig3 is the flight recorder's whole
// overhead (budgeted at <= 5%).
func BenchmarkFig3Timeline(b *testing.B) {
	progs := coreSet(b)
	fig3TimelineOnce(progs) // prime the replay store
	var mean float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mean = fig3TimelineOnce(progs)
	}
	b.ReportMetric(mean, "mean-ED(C)")
}

// BenchmarkFig3Bypass is BenchmarkFig3 with the replay store's budget at 0
// (driserve -tracebudget 0), restored afterwards: the store bypasses every
// stream, so each lane batch runs over one pass of the trace generator
// instead of one replay decode. Its ratio to BenchmarkFig3 is the replay
// store's remaining sweep-level payoff.
func BenchmarkFig3Bypass(b *testing.B) {
	st := trace.SharedStore()
	st.SetBudget(0)
	defer st.SetBudget(trace.DefaultStoreBudget)
	progs := coreSet(b)
	var mean float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mean = fig3Once(progs)
	}
	b.ReportMetric(mean, "mean-ED(C)")
}

// policySweepOnce runs the five-policy shoot-out over progs on a fresh
// engine and returns the grid's mean relative ED.
func policySweepOnce(progs []trace.Program) float64 {
	r := exp.NewRunner(exp.QuickScale())
	points := r.PolicySweep(progs, r.StandardPolicyChoices())
	sum := 0.0
	for _, p := range points {
		sum += p.Cmp.RelativeED
	}
	return sum / float64(len(points))
}

// BenchmarkPolicySweep measures the warm-store policy shoot-out (every
// benchmark under conventional, DRI, decay, drowsy, and way-gating) over
// the core set at quick scale.
func BenchmarkPolicySweep(b *testing.B) {
	progs := coreSet(b)
	policySweepOnce(progs) // prime the replay store
	var mean float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mean = policySweepOnce(progs)
	}
	b.ReportMetric(mean, "mean-ED")
}

// BenchmarkPolicySweepColdStore is BenchmarkPolicySweep on the generator
// path (replay store disabled).
func BenchmarkPolicySweepColdStore(b *testing.B) {
	st := trace.SharedStore()
	st.SetBudget(0)
	defer st.SetBudget(trace.DefaultStoreBudget)
	progs := coreSet(b)
	var mean float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mean = policySweepOnce(progs)
	}
	b.ReportMetric(mean, "mean-ED")
}

// laneSweepConfigs builds n distinct DRI configurations — a miss-bound
// ladder on the 64K direct-mapped geometry — sharing one instruction
// budget, the shape of one sweep benchmark's worth of lane work.
func laneSweepConfigs(n int, instrs uint64) []SimConfig {
	cfgs := make([]SimConfig, n)
	for i := range cfgs {
		p := DefaultParams(50_000)
		p.MissBound = uint64(50 * (i + 1))
		cfgs[i] = NewSimConfig(NewDRI(64<<10, 1, p), instrs)
	}
	return cfgs
}

// BenchmarkLaneSweep measures the lane executor on a warm store: N
// configurations of one benchmark advanced lock-step over a single decode
// of its recorded stream — the inner loop of every sweep once the engine
// cache and trace store are primed. Aggregate lane-instrs/s against
// BenchmarkFullSystemSimulation's solo instrs/s is the per-lane saving
// from sharing the decode and the branch-predictor walk.
func BenchmarkLaneSweep(b *testing.B) {
	prog, err := BenchmarkByName("gcc")
	if err != nil {
		b.Fatal(err)
	}
	const instrs = 1_000_000
	for _, lanes := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("%dlanes", lanes), func(b *testing.B) {
			cfgs := laneSweepConfigs(lanes, instrs)
			RunLanes(cfgs, prog) // prime the replay store
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				RunLanes(cfgs, prog)
			}
			b.ReportMetric(
				float64(instrs)*float64(lanes)*float64(b.N)/b.Elapsed().Seconds(),
				"lane-instrs/s")
		})
	}
}

// BenchmarkLaneCancel measures mid-run cancellation on the lane executor:
// each iteration starts the 8-lane sweep of BenchmarkLaneSweep with the
// flight recorder attached, cancels at the first 50K-instruction interval
// point, and runs to the abort. ns/op is the whole cancelled run (simulate
// to the interval, then unwind); the settle-ns metric isolates the window
// from cancel to RunLanesCtx returning — the chunk-boundary promptness
// that bounds how long DELETE /v1/jobs/{id} leaves lanes running.
func BenchmarkLaneCancel(b *testing.B) {
	prog, err := BenchmarkByName("gcc")
	if err != nil {
		b.Fatal(err)
	}
	const instrs = 1_000_000
	cfgs := laneSweepConfigs(8, instrs)
	for i := range cfgs {
		cfgs[i].Timeline = TimelineConfig{Enabled: true, IntervalInstructions: 50_000}
	}
	RunLanes(laneSweepConfigs(8, instrs), prog) // prime the replay store
	var settle time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx, cancel := context.WithCancelCause(context.Background())
		var at time.Time
		ctx = timeline.WithSink(ctx, func(timeline.Point) {
			if at.IsZero() {
				at = time.Now()
				cancel(errors.New("bench: first interval"))
			}
		})
		if _, err := sim.RunLanesCtx(ctx, cfgs, prog); !errors.Is(err, cpu.ErrAborted) {
			b.Fatalf("RunLanesCtx err = %v, want cpu.ErrAborted", err)
		}
		settle += time.Since(at)
	}
	b.ReportMetric(float64(settle.Nanoseconds())/float64(b.N), "settle-ns")
}

// BenchmarkFig4 measures the miss-bound sensitivity study (E4).
func BenchmarkFig4(b *testing.B) {
	base, r := sharedBase(b)
	var spread float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := r.Figure4(base)
		lo, hi := rows[0].Variants[0].Cmp.RelativeED, rows[0].Variants[0].Cmp.RelativeED
		for _, v := range rows[0].Variants {
			if v.Cmp.RelativeED < lo {
				lo = v.Cmp.RelativeED
			}
			if v.Cmp.RelativeED > hi {
				hi = v.Cmp.RelativeED
			}
		}
		spread = hi - lo
	}
	b.ReportMetric(spread, "applu-ED-spread")
}

// BenchmarkFig5 measures the size-bound sensitivity study (E5).
func BenchmarkFig5(b *testing.B) {
	base, r := sharedBase(b)
	var ed float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := r.Figure5(base)
		ed = rows[0].Variants[0].Cmp.RelativeED // applu at 2x size-bound
	}
	b.ReportMetric(ed, "applu-ED-2xSB")
}

// BenchmarkFig6 measures the conventional-cache-parameter study (E6).
func BenchmarkFig6(b *testing.B) {
	base, r := sharedBase(b)
	var ed128 float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := r.Figure6(base)
		ed128 = rows[0].Variants[2].Cmp.RelativeED // applu on 128K DM
	}
	b.ReportMetric(ed128, "applu-ED-128K")
}

// BenchmarkIntervalSweep runs the §5.6 sense-interval study (E7).
func BenchmarkIntervalSweep(b *testing.B) {
	base, r := sharedBase(b)
	var maxVar float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := r.IntervalSweep(base)
		maxVar = rows[0].MaxVariationPct
	}
	b.ReportMetric(maxVar, "applu-maxvar%")
}

// BenchmarkDivisibilitySweep runs the §5.6 divisibility study (E8).
func BenchmarkDivisibilitySweep(b *testing.B) {
	base, r := sharedBase(b)
	var ed4 float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := r.DivisibilitySweep(base)
		ed4 = rows[0].Values[1] // applu at divisibility 4
	}
	b.ReportMetric(ed4, "applu-ED-div4")
}

// BenchmarkEnergyRatios evaluates the §5.2.1 worked ratios (E9).
func BenchmarkEnergyRatios(b *testing.B) {
	var r1, r2 float64
	for i := 0; i < b.N; i++ {
		m := Default64KEnergyModel()
		r1 = m.ExtraL1OverLeakageRatio(5, 0.5)
		r2 = m.ExtraL2OverLeakageRatio(0.5, 0.01)
	}
	b.ReportMetric(r1, "extraL1-ratio")
	b.ReportMetric(r2, "extraL2-ratio")
}

// BenchmarkAblationThrottle measures the oscillation-damper ablation.
func BenchmarkAblationThrottle(b *testing.B) {
	base, r := sharedBase(b)
	var dED float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := r.AblationThrottle(base)
		dED = rows[2].Variants[1].Cmp.RelativeED - rows[2].Variants[0].Cmp.RelativeED // gcc
	}
	b.ReportMetric(dED, "gcc-noThrottle-dED")
}

// BenchmarkAblationFlush measures the resizing-tags vs flush-on-resize
// ablation (the paper's §2.2 argument).
func BenchmarkAblationFlush(b *testing.B) {
	base, r := sharedBase(b)
	var dSlow float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := r.FlushAblation(base)
		dSlow = rows[2].Variants[1].Cmp.SlowdownPct - rows[2].Variants[0].Cmp.SlowdownPct // gcc
	}
	b.ReportMetric(dSlow, "gcc-flush-dSlow%")
}

// BenchmarkAblationWays measures the §2 set-vs-way resizing ablation on a
// 64K 4-way cache.
func BenchmarkAblationWays(b *testing.B) {
	base, r := sharedBase(b)
	var dED float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := r.WaysAblation(base)
		dED = rows[0].Variants[1].Cmp.RelativeED - rows[0].Variants[0].Cmp.RelativeED // applu
	}
	b.ReportMetric(dED, "applu-ways-dED")
}

// --- Microbenchmarks of the substrates ---

// BenchmarkFullSystemSimulation measures whole-stack simulation speed
// (instructions per second drives every experiment's wall time). The
// instrs/s headline is recomputed from the metrics registry's
// sim_instructions_total counter as registry-instrs/s — the same series
// behind driserve's sim_instructions_per_second gauge — so the bench
// artifact also checks that the instrumentation accounts every instruction.
func BenchmarkFullSystemSimulation(b *testing.B) {
	bench, err := BenchmarkByName("applu")
	if err != nil {
		b.Fatal(err)
	}
	params := DefaultParams(50_000)
	cfg := NewDRI(64<<10, 1, params)
	const instrs = 200_000
	reg := NewMetricsRegistry()
	before := reg.Snapshot().Value("sim_instructions_total")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Run(cfg, bench, instrs)
	}
	elapsed := b.Elapsed().Seconds()
	after := reg.Snapshot().Value("sim_instructions_total")
	b.ReportMetric(float64(instrs)*float64(b.N)/elapsed, "instrs/s")
	b.ReportMetric((after-before)/elapsed, "registry-instrs/s")
}

// BenchmarkWayMemo measures the memoized sweep path: a memo-table-size
// ladder of way-memoization configurations on the 64K 4-way L1, advanced
// lock-step over one decode of applu — the shape an engine.RunManyCtx policy
// sweep executes. Per-set link registers let every lane skip the memory
// hierarchy entirely on a memoized fetch (the sequential-PC shortcut skips
// even the block compare inside straight-line runs), so the aggregate
// lane-instrs/s headline against BenchmarkLaneSweep's DRI lanes is the
// memoized tag path's sweep-level speedup. The solo-instrs/s metric is the
// single-configuration lane under the same policy, against
// BenchmarkFullSystemSimulation; memo-hit-share is the fraction of L1I
// accesses the per-set link table served without a tag probe.
func BenchmarkWayMemo(b *testing.B) {
	bench, err := BenchmarkByName("applu")
	if err != nil {
		b.Fatal(err)
	}
	const (
		instrs = 1_000_000
		lanes  = 8
	)
	cfgs := make([]SimConfig, lanes)
	for i := range cfgs {
		pol := NewWayMemo(50_000)
		if i > 0 {
			pol.MemoTableEntries = 32 << i // 64, 128, … 4096-entry tables
		}
		cfgs[i] = NewSimConfig(NewConventional(64<<10, 4), instrs).WithL1IPolicy(pol)
	}
	rs := RunLanes(cfgs, bench) // prime the replay store
	solo := cfgs[:1]
	b.Run("sweep", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			RunLanes(cfgs, bench)
		}
		b.ReportMetric(float64(instrs)*lanes*float64(b.N)/b.Elapsed().Seconds(), "lane-instrs/s")
		b.ReportMetric(float64(rs[0].Mem.L1ITagProbesSkipped)/float64(rs[0].ICache.Accesses), "memo-hit-share")
	})
	b.Run("solo", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			RunLanes(solo, bench)
		}
		b.ReportMetric(float64(instrs)*float64(b.N)/b.Elapsed().Seconds(), "instrs/s")
	})
}

// BenchmarkTraceGeneration measures the synthetic workload generator alone.
func BenchmarkTraceGeneration(b *testing.B) {
	prog, err := trace.ByName("gcc")
	if err != nil {
		b.Fatal(err)
	}
	var ins isa.Instr
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := prog.Stream(100_000)
		for s.Next(&ins) {
		}
	}
	b.ReportMetric(100_000*float64(b.N)/b.Elapsed().Seconds(), "instrs/s")
}

// BenchmarkTraceReplay measures the replay-store cursor over the same
// stream BenchmarkTraceGeneration generates; with -benchmem it
// demonstrates the zero-allocations-per-instruction property of the hot
// path (the only allocation is the one cursor per replayed run).
func BenchmarkTraceReplay(b *testing.B) {
	prog, err := trace.ByName("gcc")
	if err != nil {
		b.Fatal(err)
	}
	store := trace.NewStore(trace.DefaultStoreBudget)
	store.Replay(prog, 100_000) // record once
	var ins isa.Instr
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := store.Stream(prog, 100_000)
		for s.Next(&ins) {
		}
	}
	b.ReportMetric(100_000*float64(b.N)/b.Elapsed().Seconds(), "instrs/s")
}

// BenchmarkTraceRecord measures the record path (generate + encode): the
// one-time cost a cold store pays before every later run replays.
func BenchmarkTraceRecord(b *testing.B) {
	prog, err := trace.ByName("gcc")
	if err != nil {
		b.Fatal(err)
	}
	var bytes int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		store := trace.NewStore(trace.DefaultStoreBudget)
		bytes = store.Replay(prog, 100_000).Bytes()
	}
	b.ReportMetric(float64(bytes)/100_000, "bytes/instr")
	b.ReportMetric(100_000*float64(b.N)/b.Elapsed().Seconds(), "instrs/s")
}

// BenchmarkStackSolver measures the gated-Vdd stacking-effect fixed-point
// solver.
func BenchmarkStackSolver(b *testing.B) {
	tech := circuit.Default018()
	cell := circuit.Transistor{Vt: 0.2, Width: 1}
	gate := circuit.Transistor{Vt: 0.4, Width: 2.25}
	var v float64
	for i := 0; i < b.N; i++ {
		v = tech.StackedLeakage(cell, gate).NodeV
	}
	b.ReportMetric(v, "virtualGnd-V")
}
