// Package dricache is a library reproduction of the HPCA 2001 paper
// "An Integrated Circuit/Architecture Approach to Reducing Leakage in
// Deep-Submicron High-Performance I-Caches" (Yang, Powell, Falsafi, Roy,
// Vijaykumar): the Dynamically ResIzable instruction cache (DRI i-cache)
// with gated-Vdd supply gating.
//
// The package is a facade over the simulation stack:
//
//   - a transistor-level model of subthreshold leakage, the stacking
//     effect, and gated-Vdd SRAM cells (Table 2 of the paper),
//   - a CACTI-style cache energy/area model,
//   - the DRI i-cache controller (sense intervals, miss-bound, size-bound,
//     divisibility, throttling, resizing tag bits),
//   - an out-of-order core timing model with the paper's Table 1 system,
//   - synthetic SPEC95 stand-in workloads, and
//   - the §5.2 energy accounting and §5 experiment harness.
//
// Quick start:
//
//	bench, _ := dricache.BenchmarkByName("applu")
//	cfg := dricache.NewDRI(64<<10, 1, dricache.DefaultParams(100_000))
//	cmp := dricache.Compare(cfg, bench, 4_000_000)
//	fmt.Printf("relative energy-delay %.2f at %.1f%% slowdown\n",
//		cmp.RelativeED, cmp.SlowdownPct)
//
// The cmd/ directory holds regenerators for every table and figure in the
// paper's evaluation; cmd/experiments writes them all into one report
// beside the paper's values.
package dricache

import (
	"io"

	"dricache/internal/circuit"
	"dricache/internal/dri"
	"dricache/internal/energy"
	"dricache/internal/engine"
	"dricache/internal/exp"
	"dricache/internal/mem"
	"dricache/internal/obs"
	"dricache/internal/policy"
	"dricache/internal/render"
	"dricache/internal/sim"
	"dricache/internal/timeline"
	"dricache/internal/trace"
)

// Core configuration types (see the internal packages for full docs).
type (
	// CacheParams are the DRI adaptive parameters: miss-bound, size-bound,
	// sense-interval, divisibility, and throttle settings.
	CacheParams = dri.Params
	// CacheConfig is an L1 i-cache configuration (geometry plus params).
	CacheConfig = dri.Config
	// ResizeEvent records one resize for timelines.
	ResizeEvent = dri.ResizeEvent
	// Benchmark is a synthetic SPEC95 stand-in program.
	Benchmark = trace.Program
	// BenchmarkPhase is one phase of a Benchmark.
	BenchmarkPhase = trace.Phase
	// Result carries all observables of a single simulation.
	Result = sim.Result
	// Comparison pairs a DRI run with its conventional baseline and the
	// §5.2 energy breakdown.
	Comparison = sim.Comparison
	// CellConfig is an SRAM cell implementation point (gated-Vdd design
	// space).
	CellConfig = circuit.CellConfig
	// CellMetrics is the circuit-level evaluation of a CellConfig.
	CellMetrics = circuit.CellMetrics
	// Tech is a fabrication technology operating point.
	Tech = circuit.Tech
	// Experiments runs the paper's evaluation studies at a given scale.
	Experiments = exp.Runner
	// Scale fixes instruction budget and sense-interval for experiments.
	Scale = exp.Scale
	// EnergyModel holds the §5.2 technology constants and equations.
	EnergyModel = energy.Model
	// Engine is the concurrent batch simulation engine: a bounded worker
	// pool with a memoizing result cache and single-flight deduplication,
	// so N concurrent identical requests cost one simulation.
	Engine = engine.Engine
	// EngineStats is a snapshot of an Engine's cache and pool counters.
	EngineStats = engine.Stats
	// SimConfig describes one full-system simulation (core, hierarchy,
	// predictor, instruction budget) — the unit of work an Engine caches.
	// Its WithL2 method swaps in a (possibly resizable) unified L2.
	SimConfig = sim.Config
	// TotalBreakdown is the whole-hierarchy total-leakage account of a
	// comparison: L1I + L1D + L2 leakage (each scaled by its level's active
	// fraction) plus the extra dynamic energy resizing induces downstream.
	TotalBreakdown = energy.TotalBreakdown
	// LevelBreakdown is one cache level's share of a TotalBreakdown.
	LevelBreakdown = energy.LevelBreakdown
	// PolicyConfig selects and parameterizes a leakage-control policy for
	// one cache level: conventional, dri, decay, drowsy, waygate, or
	// waymemo.
	PolicyConfig = policy.Config
	// PolicyStats counts per-line policy activity (decay gatings, drowsy
	// wakeups and sleep transitions).
	PolicyStats = policy.Stats
	// PolicyChoice names one contender in a policy shoot-out sweep.
	PolicyChoice = exp.PolicyChoice
	// PolicyPoint is one (benchmark, policy) cell of a shoot-out grid.
	PolicyPoint = exp.PolicyPoint
	// TraceStore is the record-once/replay-many instruction stream cache:
	// each (benchmark, budget) stream is generated and encoded exactly
	// once, and every simulation replays it through a zero-allocation
	// cursor. Concurrency-safe, single-flight, byte-budgeted (LRU).
	TraceStore = trace.Store
	// TraceStoreStats is a snapshot of a TraceStore's counters (entries,
	// bytes, hits, misses, evictions, bypasses); also embedded in
	// EngineStats as Trace.
	TraceStoreStats = trace.StoreStats
	// LaneStats is a snapshot of the lane executor's process-wide counters:
	// lock-step multi-lane passes run, the simulations they carried, the
	// stream passes that saved, and store-bypass fallbacks (simulations
	// whose lanes shared a generator pass instead of a replay decode).
	LaneStats = sim.LaneStats
	// EngineLaneStats counts an Engine's batch scheduler activity (lane
	// groups formed, batches executed, decode passes saved); embedded in
	// EngineStats as Lanes.
	EngineLaneStats = engine.LaneStats
	// MetricsRegistry is a typed metrics registry (counters, gauges,
	// histograms; atomic hot path) with Prometheus text exposition via its
	// snapshots. Build one with NewMetricsRegistry, add an Engine with its
	// RegisterMetrics method, and serve or print Snapshot().
	MetricsRegistry = obs.Registry
	// MetricsSnapshot is a point-in-time view of a MetricsRegistry. Its
	// WritePrometheus method emits text exposition format 0.0.4; Format
	// renders an aligned human-readable summary for CLI footers.
	MetricsSnapshot = obs.Snapshot
	// MetricsFamily is one named metric family within a MetricsSnapshot.
	MetricsFamily = obs.Family
	// SpanTree is the JSON form of a request's span tree, as returned by
	// driserve's ?trace=1 responses.
	SpanTree = obs.SpanTree
	// TimelineConfig enables and bounds the interval flight recorder on a
	// SimConfig (via its WithTimeline method): per-interval telemetry is
	// sampled at sense-interval boundaries into a bounded point buffer that
	// pair-merges adjacent intervals when full, so memory stays O(MaxPoints)
	// regardless of run length.
	TimelineConfig = timeline.Config
	// TimelineSeries is the recorded per-interval series of one run,
	// attached to Result.Timeline when recording was enabled.
	TimelineSeries = timeline.Series
	// TimelinePoint is one interval (or merged interval range) of a
	// TimelineSeries: per-level miss counts, active fraction, policy state,
	// IPC, and the interval's incremental energy.
	TimelinePoint = timeline.Point
)

// SharedTraceStore returns the process-wide trace replay store every
// simulation draws its instruction stream from. Use SetBudget to bound (or
// with <= 0, disable) stream recording.
func SharedTraceStore() *TraceStore { return trace.SharedStore() }

// RunLanes simulates bench under every configuration in one pass over its
// instruction stream: the stream is decoded once and the configurations
// advance as lock-step lanes, each returning a Result bit-identical to
// Run of that configuration alone. All configurations must share one
// instruction budget. For cached, deduplicated sweeps prefer submitting
// through an Engine (its RunMany batches this way automatically).
func RunLanes(cfgs []SimConfig, bench Benchmark) []Result { return sim.RunLanes(cfgs, bench) }

// ReadLaneStats returns the process-wide lane executor counters.
func ReadLaneStats() LaneStats { return sim.ReadLaneStats() }

// NewMetricsRegistry returns a metrics registry pre-wired with the
// process-wide collectors: the shared trace replay store, the lane executor
// and simulation counters, and the Go runtime. Register an Engine's cache
// and pool metrics into it with the Engine's RegisterMetrics method. Print
// Snapshot().Format() for a CLI summary, or serve Snapshot's WritePrometheus
// for scraping (driserve does both).
func NewMetricsRegistry() *MetricsRegistry {
	r := obs.NewRegistry()
	sim.RegisterMetrics(r)
	trace.SharedStore().RegisterMetrics(r)
	obs.RegisterRuntimeMetrics(r)
	return r
}

// Default64KEnergyModel returns the §5.2 constants for the paper's base
// system (0.91 nJ/cycle leakage, 0.0022 nJ per resizing bitline, 3.6 nJ
// per L2 access), derived from the CACTI-lite model.
func Default64KEnergyModel() EnergyModel { return energy.Default64K() }

// Benchmarks returns the fifteen SPEC95 stand-ins in the paper's class
// order.
func Benchmarks() []Benchmark { return trace.Benchmarks() }

// BenchmarkByName looks a benchmark up by its SPEC95 name.
func BenchmarkByName(name string) (Benchmark, error) { return trace.ByName(name) }

// BenchmarkNames lists the benchmark names in class order.
func BenchmarkNames() []string { return trace.Names() }

// DefaultParams returns the paper's base adaptive parameters scaled to the
// given sense-interval length (in dynamic instructions): divisibility 2,
// 1K size-bound, 3-bit throttle counter with a 10-interval block, and a
// miss-bound of 1% of the interval.
func DefaultParams(senseInterval uint64) CacheParams {
	return dri.DefaultParams(senseInterval)
}

// NewConventional returns a conventional (non-resizing) i-cache
// configuration with 32-byte blocks.
func NewConventional(sizeBytes, assoc int) CacheConfig {
	return CacheConfig{SizeBytes: sizeBytes, BlockBytes: 32, Assoc: assoc, AddrBits: 32}
}

// NewDRI returns a DRI i-cache configuration with 32-byte blocks and the
// given adaptive parameters.
func NewDRI(sizeBytes, assoc int, params CacheParams) CacheConfig {
	cfg := NewConventional(sizeBytes, assoc)
	cfg.Params = params
	return cfg
}

// Run simulates one benchmark on the paper's Table 1 system with the given
// L1 i-cache for the given number of dynamic instructions.
func Run(cfg CacheConfig, bench Benchmark, instructions uint64) Result {
	return sim.Run(sim.Default(cfg, instructions), bench)
}

// RunTimeline is Run with the interval flight recorder enabled: the
// returned Result carries a Timeline series sampled at the cache's
// sense-interval boundaries. Pass a zero TimelineConfig (beyond Enabled,
// set by this function) via NewSimConfig + SimConfig.WithTimeline for
// custom intervals or point caps.
func RunTimeline(cfg CacheConfig, bench Benchmark, instructions uint64) Result {
	simCfg := sim.Default(cfg, instructions).WithTimeline(timeline.Config{Enabled: true})
	return sim.Run(simCfg, bench)
}

// RenderTimeline draws a recorded series as ASCII sparkline adaptation
// traces (active fraction, per-interval misses, IPC, and any policy
// activity) — the same renderer drisim -timeline uses.
func RenderTimeline(w io.Writer, label string, s *TimelineSeries) {
	render.Timeline(w, label, s)
}

// Compare runs bench under both cfg and a conventional cache of the same
// geometry and returns the paired results with the §5.2 energy breakdown
// (relative energy-delay, leakage/dynamic split, slowdown).
func Compare(cfg CacheConfig, bench Benchmark, instructions uint64) Comparison {
	return sim.Compare(cfg, bench, instructions, nil)
}

// NewConventionalL2 returns the paper's Table 1 unified L2: 1M 4-way with
// 64-byte blocks, non-resizing.
func NewConventionalL2() CacheConfig { return mem.DefaultL2() }

// NewDRIL2 returns a resizable unified L2 of the paper's geometry with the
// given adaptive parameters — the multi-level DRI extension. The L2
// dominates total leakage at nanometer nodes, so resizing it attacks the
// largest share of the budget; its dirty blocks are written back to memory
// when their sets are gated off, and that traffic is charged by the
// total-leakage model.
func NewDRIL2(params CacheParams) CacheConfig { return sim.DRIL2(params) }

// CompareJoint runs bench under a system that resizes the L1 i-cache, the
// unified L2, or both, against the all-conventional baseline of the same
// geometry, and returns the paired results with both energy accounts (the
// L1-only §5.2 breakdown and the per-level total-leakage breakdown in
// Total).
func CompareJoint(l1i, l2 CacheConfig, bench Benchmark, instructions uint64) Comparison {
	return sim.CompareSim(sim.Default(l1i, instructions).WithL2(l2), bench, nil)
}

// NewDecay returns the standard cache-decay policy at the given sense
// interval: per-line gated-Vdd after an idle-interval countdown — contents
// lost, zero leakage while off, extra misses on re-reference (the
// state-destroying regime of Bai et al.'s trade-off analysis).
func NewDecay(senseInterval uint64) PolicyConfig { return policy.DefaultDecay(senseInterval) }

// NewDrowsy returns the standard drowsy policy at the given sense interval:
// per-line state-preserving low-Vdd — no extra misses, a wakeup-cycle
// penalty on the next hit, and leakage reduced to a low-Vdd fraction
// instead of zero (the state-preserving regime of Bai et al.).
func NewDrowsy(senseInterval uint64) PolicyConfig { return policy.DefaultDrowsy(senseInterval) }

// NewWayGate returns the standard way-gating policy at the given sense
// interval: whole ways powered off under the same miss-bound feedback loop
// as DRI. It requires a set-associative cache.
func NewWayGate(senseInterval uint64) PolicyConfig { return policy.DefaultWayGate(senseInterval) }

// NewWayMemo returns the way-memoization policy (after Ishihara & Fallah):
// per-set MRU link registers remember the way that served the last access,
// and a memoized fetch skips the tag array and every non-selected data way.
// Unlike the leakage policies it attacks dynamic energy — the cache stays
// full-size and always on, results are cycle-identical to the conventional
// baseline, and the §5.2 accounting credits the skipped tag probes. Set
// MemoTableEntries on the returned config to model a smaller (aliasing)
// link table.
func NewWayMemo(senseInterval uint64) PolicyConfig { return policy.DefaultWayMemo(senseInterval) }

// ComparePolicy runs bench under the given L1 i-cache and leakage-control
// policy against the conventional baseline of the same geometry, returning
// the paired results with both energy accounts. For decay/drowsy levels the
// reported active fraction is the policy's effective leakage fraction
// (drowsy lines leak at the low-Vdd fraction instead of zero), and policy
// transitions are priced into the dynamic overhead.
func ComparePolicy(l1i CacheConfig, pol PolicyConfig, bench Benchmark, instructions uint64) Comparison {
	return sim.CompareSim(sim.Default(l1i, instructions).WithL1IPolicy(pol), bench, nil)
}

// NewEngine returns a simulation engine whose worker pool is bounded at
// workers concurrent simulations (0 means GOMAXPROCS). All submissions —
// Run, Compare, experiment sweeps via NewExperimentsOn — share its result
// cache, so repeated and concurrent identical work is simulated once.
func NewEngine(workers int) *Engine { return engine.New(workers) }

// NewSimConfig returns the paper's Table 1 system around the given L1
// i-cache with the given instruction budget, for submission to an Engine.
func NewSimConfig(cfg CacheConfig, instructions uint64) SimConfig {
	return sim.Default(cfg, instructions)
}

// NewExperiments returns the experiment harness at the given scale; use it
// for the Figure 3 search and the Figure 4–6 and §5.6 studies.
func NewExperiments(scale Scale) *Experiments { return exp.NewRunner(scale) }

// NewExperimentsOn returns the experiment harness submitting to an existing
// engine, sharing its result cache and concurrency budget.
func NewExperimentsOn(eng *Engine, scale Scale) *Experiments {
	return exp.NewRunnerOn(eng, scale)
}

// DefaultScale is the cmd-tool experiment scale: 4M instructions with
// 100K-instruction sense intervals.
func DefaultScale() Scale { return exp.DefaultScale() }

// QuickScale is the test scale: 1M instructions with 50K-instruction sense
// intervals.
func QuickScale() Scale { return exp.QuickScale() }

// BestPolicy picks, per benchmark, the shoot-out policy with the lowest
// relative energy-delay subject to the slowdown constraint.
func BestPolicy(points []PolicyPoint, maxSlowdownPct float64) map[string]PolicyPoint {
	return exp.BestPolicy(points, maxSlowdownPct)
}

// FormatPolicies renders a policy shoot-out as a benchmark × policy grid of
// relative energy-delay cells (the paper's Table 2 style).
func FormatPolicies(points []PolicyPoint) string { return exp.FormatPolicies(points) }

// FormatBestPolicies renders BestPolicy's winners as a table.
func FormatBestPolicies(best map[string]PolicyPoint) string { return exp.FormatBestPolicies(best) }

// Table2 evaluates the paper's three cell configurations (base high-Vt,
// base low-Vt, NMOS gated-Vdd) at the default 0.18µ/110°C operating point.
func Table2() []circuit.Table2Row { return circuit.Table2(circuit.Default018()) }

// EvaluateCell evaluates one SRAM cell configuration at the default
// operating point.
func EvaluateCell(c CellConfig) CellMetrics {
	return circuit.Evaluate(circuit.Default018(), c)
}

// EvaluateCellAt evaluates one SRAM cell configuration at an arbitrary
// operating point (temperature, supply, thresholds).
func EvaluateCellAt(t Tech, c CellConfig) CellMetrics {
	return circuit.Evaluate(t, c)
}

// DefaultTech returns the calibrated 0.18µ, 1.0V, 110°C operating point.
func DefaultTech() Tech { return circuit.Default018() }

// Standard cell configurations.
var (
	// CellBaseHighVt is the conservative-threshold conventional cell.
	CellBaseHighVt = circuit.BaseHighVt
	// CellBaseLowVt is the aggressively-scaled conventional cell.
	CellBaseLowVt = circuit.BaseLowVt
	// CellNMOSGatedVdd is the paper's preferred gated design.
	CellNMOSGatedVdd = circuit.NMOSGatedVdd
	// CellPMOSGatedVdd gates the supply side instead.
	CellPMOSGatedVdd = circuit.PMOSGatedVdd
)
