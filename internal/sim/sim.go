// Package sim wires the substrates into a whole-system simulation: a
// synthetic benchmark program (internal/trace) runs through the out-of-order
// core (internal/cpu) against the memory hierarchy (internal/mem) whose L1
// i-cache is either conventional or a DRI i-cache (internal/dri), and the
// observables feed the §5.2 energy model (internal/energy).
package sim

import (
	"context"
	"fmt"
	"runtime/pprof"

	"dricache/internal/bpred"
	"dricache/internal/cpu"
	"dricache/internal/dri"
	"dricache/internal/energy"
	"dricache/internal/mem"
	"dricache/internal/policy"
	"dricache/internal/timeline"
	"dricache/internal/trace"
)

// Config describes one simulation.
type Config struct {
	CPU   cpu.Config
	Mem   mem.Config
	Bpred bpred.Config
	// Instructions is the dynamic instruction budget.
	Instructions uint64
	// Timeline enables the per-interval flight recorder; the zero value
	// records nothing and costs nothing. It participates in the engine
	// cache key (a timeline-enabled run is a distinct result) and stays
	// comparable like the rest of Config.
	Timeline timeline.Config
}

// WithTimeline returns cfg with interval recording configured.
func (c Config) WithTimeline(t timeline.Config) Config {
	c.Timeline = t
	return c
}

// Default returns the paper's Table 1 system around the given L1 i-cache,
// with the given instruction budget.
func Default(l1i dri.Config, instructions uint64) Config {
	return Config{
		CPU:          cpu.DefaultConfig(),
		Mem:          mem.DefaultConfig(l1i),
		Bpred:        bpred.DefaultConfig(),
		Instructions: instructions,
	}
}

// Conventional64K returns the baseline L1 i-cache configuration: 64K
// direct-mapped, 32-byte blocks, no resizing.
func Conventional64K() dri.Config {
	return dri.Config{SizeBytes: 64 << 10, BlockBytes: 32, Assoc: 1, AddrBits: 32}
}

// DRI64K returns the paper's base DRI configuration with the given
// adaptive parameters.
func DRI64K(p dri.Params) dri.Config {
	cfg := Conventional64K()
	cfg.Params = p
	return cfg
}

// WithL2 returns cfg with the unified L2 replaced — the entry point for
// multi-level DRI studies (set l2.Params.Enabled for a resizable L2).
func (c Config) WithL2(l2 dri.Config) Config {
	c.Mem.L2 = l2
	return c
}

// WithL1IPolicy returns cfg with the L1 i-cache leakage-control policy
// selected — the entry point for the decay/drowsy/waygate studies.
func (c Config) WithL1IPolicy(p policy.Config) Config {
	c.Mem.L1IPolicy = p
	return c
}

// WithL2Policy returns cfg with the unified L2's leakage-control policy
// selected.
func (c Config) WithL2Policy(p policy.Config) Config {
	c.Mem.L2Policy = p
	return c
}

// DRIL2 returns the paper's Table 1 L2 geometry (1M 4-way, 64-byte blocks)
// with the given adaptive parameters.
func DRIL2(p dri.Params) dri.Config {
	cfg := mem.DefaultL2()
	cfg.Params = p
	return cfg
}

// Result bundles every observable of one run.
type Result struct {
	Benchmark string
	CPU       cpu.Result
	ICache    dri.Stats
	Mem       mem.Stats
	// AvgActiveFraction is the cycle-weighted mean active fraction of the
	// i-cache (1.0 for a conventional cache).
	AvgActiveFraction float64
	// ResizingTagBits of the configuration.
	ResizingTagBits int
	// Events is the resize log.
	Events []dri.ResizeEvent
	// SizeResidency maps active size in bytes to cycles spent there.
	SizeResidency map[int]uint64

	// L2 observables (multi-level DRI; for a conventional L2 the stats are
	// plain traffic counters, the fraction is 1, and the rest are zero).
	L2 dri.DataStats
	// L2AvgActiveFraction is the cycle-weighted mean active fraction of the
	// unified L2.
	L2AvgActiveFraction float64
	// L2ResizingTagBits of the L2 configuration.
	L2ResizingTagBits int
	// L2Events is the L2 resize log.
	L2Events []dri.ResizeEvent
	// L2SizeResidency maps L2 active size in bytes to cycles spent there.
	L2SizeResidency map[int]uint64

	// L1IPolicyStats and L2PolicyStats count per-line leakage-policy
	// activity (decay gatings, drowsy wakeups); zero unless the level runs
	// a per-line policy. For such levels AvgActiveFraction (and its L2
	// counterpart) carry the policy's effective leakage fraction — drowsy
	// lines leak at the low-Vdd fraction instead of zero.
	L1IPolicyStats policy.Stats
	L2PolicyStats  policy.Stats

	// Timeline is the per-interval flight-recorder series; nil unless
	// Config.Timeline.Enabled. Every run records it, whether its stream was
	// replayed from the trace store or generated because the store
	// bypassed it.
	Timeline *timeline.Series
}

// MissRate is the i-cache miss rate per access.
func (r Result) MissRate() float64 { return r.ICache.MissRate() }

// Run executes the benchmark under the configuration.
//
// The instruction stream comes from the shared trace replay store: the
// first run of a (benchmark, budget) pair records the generator stream
// into a compact replay encoding, and every later run — any configuration,
// any caller — replays it through a zero-allocation cursor instead of
// paying per-instruction generation again. A stream the store bypasses is
// read straight from the generator. Replay is bit-identical to generation
// (guarded by the trace property suite), so results do not depend on store
// state.
func Run(cfg Config, prog trace.Program) Result {
	return RunCtx(context.Background(), cfg, prog)
}

// RunCtx is Run under a context: when the context carries an obs trace the
// run's stages (stream decode, pipeline, assemble) are recorded as child
// spans, and the worker goroutine is labeled (runtime/pprof) with the
// benchmark and policy so CPU profiles attribute samples per workload.
// Results are identical to Run. Cancellation aborts mid-run; RunCtx
// swallows the abort error (the Result is then partial) — callers that
// must distinguish use RunCtxE.
func RunCtx(ctx context.Context, cfg Config, prog trace.Program) Result {
	res, _ := RunCtxE(ctx, cfg, prog)
	return res
}

// RunCtxE is RunCtx with the abort surfaced: when ctx cancels (or its
// deadline expires) mid-run, the pipeline stops at the next 256-instruction
// chunk boundary (a stream recording, every few thousand instructions) and
// RunCtxE returns a zero Result plus an error wrapping
// cpu.ErrAborted and the cancellation cause. Aborted runs are never
// assembled or counted in the process-wide simulation telemetry.
func RunCtxE(ctx context.Context, cfg Config, prog trace.Program) (Result, error) {
	// Check before any stream recording or hierarchy setup: a run queued
	// behind a cancelled batch must abort in microseconds, not after paying
	// for a decode pass it is about to throw away.
	if cerr := ctx.Err(); cerr != nil {
		return Result{}, abortedBeforeStart(ctx)
	}
	out, _, err := runPass(ctx, []Config{cfg}, prog,
		pprof.Labels("benchmark", prog.Name, "policy", policyLabel(cfg)))
	return out[0], err
}

// abortedBeforeStart is the abort error for work whose context was already
// cancelled before its simulation started (zero instructions run). It wraps
// cpu.ErrAborted so callers classify it like a mid-run abort.
func abortedBeforeStart(ctx context.Context) error {
	return fmt.Errorf("%w before start: %w", cpu.ErrAborted, context.Cause(ctx))
}

// policyLabel names the effective L1 i-cache leakage scheme of cfg for
// profile attribution.
func policyLabel(cfg Config) string {
	if k := cfg.Mem.L1IPolicy.Kind; k != policy.Default {
		return string(k)
	}
	if cfg.Mem.L1I.Params.Enabled {
		return string(policy.DRI)
	}
	return string(policy.Conventional)
}

// newRecorder builds the interval flight recorder for one run, or nil when
// recording is off. The sampling interval defaults to the configuration's
// own adaptation cadence — the DRI sense interval, else a per-line
// policy's tick interval — so points align with the decisions they
// observe; energy rates come from the same CACTI-lite model the end-of-run
// accounting uses. A live point sink carried by ctx (timeline.WithSink)
// becomes the recorder's OnPoint hook.
func newRecorder(ctx context.Context, cfg Config) *timeline.Recorder {
	if !cfg.Timeline.Enabled {
		return nil
	}
	l1i := cfg.Mem.L1I
	var fallback uint64
	if l1i.Params.Enabled {
		fallback = l1i.Params.SenseInterval
	} else if cfg.Mem.L1IPolicy.PerLine() {
		fallback = cfg.Mem.L1IPolicy.IntervalInstructions
	}
	em := energy.ForL1(l1i.SizeBytes, l1i.BlockBytes, l1i.Assoc)
	rec := timeline.NewRecorder(cfg.Timeline, fallback, timeline.EnergyRates{
		L1ILeakPerCycleNJ: em.ConvLeakPerCycleNJ,
		BitlineNJ:         em.BitlineNJ,
		L2AccessNJ:        em.L2AccessNJ,
		MemoSavedNJ:       em.MemoSavedNJ,
		ResizingTagBits:   l1i.ResizingTagBits(),
	})
	if sink := timeline.SinkFrom(ctx); sink != nil {
		rec.OnPoint = sink
	}
	return rec
}

// assemble collects every observable of a finished run into a Result. The
// snapshots it takes (stats copies, the residency map copy, the event log's
// final backing array) do not alias hierarchy state that a later Reset
// mutates, so the hierarchy may be returned to the pool immediately after.
func assemble(cfg Config, prog trace.Program, cpuRes cpu.Result, h *mem.Hierarchy, rec *timeline.Recorder) Result {
	ic := h.ICache()
	l2 := h.L2()
	res := Result{
		Benchmark:           prog.Name,
		CPU:                 cpuRes,
		ICache:              ic.Stats(),
		Mem:                 h.Stats(),
		AvgActiveFraction:   h.L1ILeakFraction(),
		ResizingTagBits:     cfg.Mem.L1I.ResizingTagBits(),
		Events:              ic.Events(),
		SizeResidency:       ic.SizeResidency(),
		L2:                  l2.DataStats(),
		L2AvgActiveFraction: h.L2LeakFraction(),
		L2ResizingTagBits:   cfg.Mem.L2.ResizingTagBits(),
		L2Events:            l2.Events(),
		L2SizeResidency:     l2.SizeResidency(),
		L1IPolicyStats:      h.L1IPolicyStats(),
		L2PolicyStats:       h.L2PolicyStats(),
		Timeline:            rec.Series(),
	}
	noteRun(&res)
	return res
}

// Comparison pairs a DRI run with its conventional baseline and the energy
// accounting between them: the paper's L1-only §5.2 breakdown (embedded)
// plus the whole-hierarchy total-leakage account with its per-level
// (L1I/L1D/L2) split.
type Comparison struct {
	Conv Result
	DRI  Result
	energy.Breakdown
	Total energy.TotalBreakdown
}

// BaselineConfig strips the adaptive parameters from a DRI configuration,
// yielding the conventional cache of the same geometry.
func BaselineConfig(driCfg dri.Config) dri.Config {
	driCfg.Params = dri.Params{}
	return driCfg
}

// BaselineSimConfig strips the adaptive parameters and leakage policies at
// every level, yielding the all-conventional system of the same geometry —
// the baseline of a multi-level DRI or policy comparison.
func BaselineSimConfig(cfg Config) Config {
	cfg.Mem.L1I.Params = dri.Params{}
	cfg.Mem.L2.Params = dri.Params{}
	cfg.Mem.L1IPolicy = policy.Config{}
	cfg.Mem.L2Policy = policy.Config{}
	return cfg
}

// Compare runs prog under both the baseline and the DRI configuration and
// evaluates the energy model. The baseline may be supplied (pre-computed)
// via base; pass nil to run it here.
func Compare(driCfg dri.Config, prog trace.Program, instructions uint64, base *Result) Comparison {
	var conv Result
	if base != nil {
		conv = *base
	} else {
		conv = Run(Default(BaselineConfig(driCfg), instructions), prog)
	}
	driRes := Run(Default(driCfg, instructions), prog)
	return CompareResults(driCfg, conv, driRes)
}

// CompareSim runs prog under the full system configuration cfg (which may
// resize the L1 i-cache, the L2, or both) and its all-conventional
// baseline, and evaluates both energy models. The baseline may be supplied
// (pre-computed) via base; pass nil to run it here — the pair then executes
// as two lanes over a single decode of the replay stream (RunLanes), which
// is bit-identical to two sequential runs.
func CompareSim(cfg Config, prog trace.Program, base *Result) Comparison {
	if base == nil {
		rs := RunLanes([]Config{BaselineSimConfig(cfg), cfg}, prog)
		return CompareSimResults(cfg, rs[0], rs[1])
	}
	driRes := Run(cfg, prog)
	return CompareSimResults(cfg, *base, driRes)
}

// CompareResults evaluates the energy models over a pre-computed
// conventional/DRI result pair for the given L1 DRI configuration (with the
// default conventional L2). It is the accounting half of Compare, split out
// so callers that obtain the two runs elsewhere (e.g. a memoizing engine)
// can share simulations.
func CompareResults(driCfg dri.Config, conv, driRes Result) Comparison {
	return CompareSimResults(Default(driCfg, conv.CPU.Instructions), conv, driRes)
}

// CompareSimResults is CompareResults generalized to a full system
// configuration, so the L2 geometry and adaptive parameters flow into the
// total-leakage account. The embedded Breakdown stays the paper's L1-only
// §5.2 model; Total adds the per-level L1I/L1D/L2 split.
func CompareSimResults(cfg Config, conv, driRes Result) Comparison {
	l1i := cfg.Mem.L1I
	em := energy.ForL1(l1i.SizeBytes, l1i.BlockBytes, l1i.Assoc)
	extraL2 := int64(driRes.Mem.L2AccessesFromI) - int64(conv.Mem.L2AccessesFromI)
	l1iOrg := energy.CacheOrg{SizeBytes: l1i.SizeBytes, BlockBytes: l1i.BlockBytes, Assoc: l1i.Assoc}
	l2Org := energy.CacheOrg{SizeBytes: cfg.Mem.L2.SizeBytes, BlockBytes: cfg.Mem.L2.BlockBytes, Assoc: cfg.Mem.L2.Assoc}
	l1iPolNJ := energy.PolicyFor(l1iOrg).
		CostNJ(driRes.L1IPolicyStats.Wakeups, driRes.L1IPolicyStats.Transitions())
	l2PolNJ := energy.PolicyFor(l2Org).
		CostNJ(driRes.L2PolicyStats.Wakeups, driRes.L2PolicyStats.Transitions())
	bd := em.Evaluate(energy.Inputs{
		Cycles:            driRes.CPU.Cycles,
		ConvCycles:        conv.CPU.Cycles,
		L1Accesses:        driRes.ICache.Accesses,
		ResizingTagBits:   driRes.ResizingTagBits,
		AvgActiveFraction: driRes.AvgActiveFraction,
		ExtraL2Accesses:   extraL2,
		ExtraPolicyNJ:     l1iPolNJ,
		TagProbesSkipped:  driRes.Mem.L1ITagProbesSkipped,
	})
	tm := energy.TotalFor(
		l1iOrg,
		energy.CacheOrg{SizeBytes: cfg.Mem.L1D.SizeBytes, BlockBytes: cfg.Mem.L1D.BlockBytes, Assoc: cfg.Mem.L1D.Assoc},
		l2Org)
	total := tm.Evaluate(energy.TotalInputs{
		Cycles:               driRes.CPU.Cycles,
		ConvCycles:           conv.CPU.Cycles,
		L1IAccesses:          driRes.ICache.Accesses,
		L1IResizingTagBits:   driRes.ResizingTagBits,
		L1IAvgActiveFraction: driRes.AvgActiveFraction,
		ExtraL2Accesses:      extraL2,
		L2Accesses:           driRes.Mem.L2Accesses(),
		L2ResizingTagBits:    driRes.L2ResizingTagBits,
		L2AvgActiveFraction:  driRes.L2AvgActiveFraction,
		ExtraMemAccesses:     int64(driRes.Mem.MemAccesses) - int64(conv.Mem.MemAccesses),
		L1IExtraPolicyNJ:     l1iPolNJ,
		L2ExtraPolicyNJ:      l2PolNJ,
		L1ITagProbesSkipped:  driRes.Mem.L1ITagProbesSkipped,
		L2TagProbesSkipped:   driRes.Mem.L2TagProbesSkipped,
	})
	return Comparison{Conv: conv, DRI: driRes, Breakdown: bd, Total: total}
}
