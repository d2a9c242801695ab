// Package exp implements the paper's evaluation (§5): the best-case
// energy-delay searches of Figure 3, the parameter sensitivity studies of
// Figures 4 and 5, the conventional-cache-parameter study of Figure 6, and
// the §5.6 sense-interval and divisibility sweeps.
//
// Simulations are embarrassingly parallel and highly redundant, so the
// Runner submits every job through the shared internal/engine simulation
// engine: a bounded worker pool with a memoizing result cache and
// single-flight deduplication. Conventional baselines are therefore
// computed once per (benchmark, organization, budget) and shared across
// every figure and sweep — and with any other Runner or caller attached to
// the same engine.
//
// Scale: the paper simulates full SPEC95 runs with one-million-instruction
// sense-intervals; this harness defaults to 4M-instruction runs with
// 100K-instruction intervals. Miss-bounds are per-interval counts, so the
// search grids scale them with the interval (multiples of 0.1% of its
// instructions, see DefaultSpace) to keep the same miss-rate setpoints.
package exp

import (
	"context"
	"fmt"

	"dricache/internal/dri"
	"dricache/internal/engine"
	"dricache/internal/obs"
	"dricache/internal/policy"
	"dricache/internal/sim"
	"dricache/internal/timeline"
	"dricache/internal/trace"
)

// Scale fixes the simulation cost of every experiment.
type Scale struct {
	// Instructions per run.
	Instructions uint64
	// SenseInterval in dynamic instructions.
	SenseInterval uint64
	// Timeline, when Enabled, attaches the interval flight recorder to
	// every simulation the runner submits (variants and baselines alike),
	// so each Result carries a per-interval Timeline series.
	Timeline timeline.Config
}

// DefaultScale is used by the cmd tools: long enough for ~40 sense
// intervals and full phase structure.
func DefaultScale() Scale {
	return Scale{Instructions: 4_000_000, SenseInterval: 100_000}
}

// QuickScale is used by tests and testing.B benchmarks.
func QuickScale() Scale {
	return Scale{Instructions: 1_000_000, SenseInterval: 50_000}
}

// SearchSpace is the empirical parameter grid of the Figure 3 best-case
// search ("we determine the best case via simulation by empirically
// searching the combination space").
type SearchSpace struct {
	// MissBounds are per-interval miss counts.
	MissBounds []uint64
	// SizeBounds are minimum sizes in bytes.
	SizeBounds []int
}

// DefaultSpace spans miss-bounds one-to-two orders of magnitude above the
// conventional miss rates (as the paper reports tolerable) and size-bounds
// from 1K to the full 64K.
func DefaultSpace(scale Scale) SearchSpace {
	base := scale.SenseInterval / 1000 // 0.1% of interval instructions
	return SearchSpace{
		MissBounds: []uint64{base, 2 * base, 4 * base, 8 * base, 16 * base, 32 * base},
		SizeBounds: []int{1 << 10, 2 << 10, 4 << 10, 8 << 10, 16 << 10, 32 << 10, 64 << 10},
	}
}

// QuickSpace is a reduced grid for tests and benchmarks.
func QuickSpace(scale Scale) SearchSpace {
	base := scale.SenseInterval / 1000
	return SearchSpace{
		MissBounds: []uint64{2 * base, 8 * base, 32 * base},
		SizeBounds: []int{1 << 10, 4 << 10, 16 << 10, 64 << 10},
	}
}

// Runner executes experiments at one scale through a shared simulation
// engine.
type Runner struct {
	Scale Scale
	// Workers bounds parallel simulations for a runner created with
	// NewRunner; 0 means GOMAXPROCS. It is ignored by runners attached to
	// a shared engine via NewRunnerOn — tune that engine's parallelism
	// directly rather than letting one client retune it for all.
	Workers int

	eng   *engine.Engine
	owned bool
}

// NewRunner returns a runner at the given scale with its own engine.
func NewRunner(scale Scale) *Runner {
	return &Runner{Scale: scale, eng: engine.New(0), owned: true}
}

// NewRunnerOn returns a runner submitting to an existing engine, sharing
// its result cache and concurrency budget with every other client.
func NewRunnerOn(eng *engine.Engine, scale Scale) *Runner {
	return &Runner{Scale: scale, eng: eng}
}

// Engine returns the runner's engine. For a runner that owns its engine,
// the Workers setting (including 0 = GOMAXPROCS) is applied first.
func (r *Runner) Engine() *engine.Engine {
	if r.owned {
		r.eng.SetParallelism(r.Workers)
	}
	return r.eng
}

// Params builds the paper's standard adaptive parameters at the runner's
// scale: 3-bit throttle counter, 10-interval throttle, divisibility 2.
func (r *Runner) Params(missBound uint64, sizeBound int) dri.Params {
	return dri.Params{
		Enabled:            true,
		MissBound:          missBound,
		SizeBoundBytes:     sizeBound,
		SenseInterval:      r.Scale.SenseInterval,
		Divisibility:       2,
		ThrottleSaturation: 7,
		ThrottleIntervals:  10,
	}
}

// Baseline returns the shared conventional run of prog on a cache of the
// given geometry at the runner's default instruction budget.
func (r *Runner) Baseline(prog trace.Program, sizeBytes, assoc int) *sim.Result {
	return r.BaselineN(prog, sizeBytes, assoc, r.Scale.Instructions)
}

// BaselineN is Baseline with an explicit instruction budget (used by
// sweeps that scale the run length). Repeated calls return the engine's
// shared pointer.
func (r *Runner) BaselineN(prog trace.Program, sizeBytes, assoc int, instrs uint64) *sim.Result {
	cfg := dri.Config{SizeBytes: sizeBytes, BlockBytes: 32, Assoc: assoc, AddrBits: 32}
	return r.Engine().Baseline(cfg, prog, instrs)
}

// Task is one DRI simulation against its baseline.
type Task struct {
	Prog   trace.Program
	Config dri.Config
	// L2, when non-nil, replaces the default conventional L2 — set its
	// Params.Enabled for a multi-level (L1×L2) DRI run. The baseline is
	// always the all-conventional system of the same geometry.
	L2 *dri.Config
	// Policy, when non-nil, selects the L1 i-cache leakage-control policy
	// (decay, drowsy, waygate, …); L2Policy likewise for the unified L2.
	// The baseline is always the policy-free conventional system.
	Policy   *policy.Config
	L2Policy *policy.Config
	// Label distinguishes task variants in results.
	Label string
	// Instructions overrides the runner's default budget when nonzero.
	Instructions uint64
}

// SimConfig expands the task into a full system configuration at the given
// default instruction budget.
func (t Task) SimConfig(defaultInstrs uint64) sim.Config {
	n := t.Instructions
	if n == 0 {
		n = defaultInstrs
	}
	cfg := sim.Default(t.Config, n)
	if t.L2 != nil {
		cfg = cfg.WithL2(*t.L2)
	}
	if t.Policy != nil {
		cfg = cfg.WithL1IPolicy(*t.Policy)
	}
	if t.L2Policy != nil {
		cfg = cfg.WithL2Policy(*t.L2Policy)
	}
	return cfg
}

// TaskResult pairs a task with its comparison outcome.
type TaskResult struct {
	Task
	Cmp sim.Comparison
}

// RunAll executes tasks through the engine, preserving input order. The
// engine bounds concurrency and deduplicates: identical tasks — and all
// shared conventional baselines — are simulated once. The whole list is
// submitted as one RunMany batch, so every task's variant and baseline that
// survive the result cache execute as lanes over a single decode of their
// benchmark's instruction stream instead of one replay pass per point.
func (r *Runner) RunAll(tasks []Task) []TaskResult {
	// Background context: an abort error is impossible.
	out, _ := r.RunAllCtx(context.Background(), tasks)
	return out
}

// RunAllCtx is RunAll under a context: the engine's batch stages and the
// final energy-model accounting record spans when the context carries an
// obs trace. Cancelling ctx aborts the in-flight batches at their next
// chunk boundary; the error wraps cpu.ErrAborted, no partial comparisons
// are assembled, and nothing aborted was cached.
func (r *Runner) RunAllCtx(ctx context.Context, tasks []Task) ([]TaskResult, error) {
	eng := r.Engine()
	cfgs := make([]sim.Config, len(tasks))
	reqs := make([]engine.Request, 0, 2*len(tasks))
	for i, t := range tasks {
		cfg := t.SimConfig(r.Scale.Instructions)
		if r.Scale.Timeline.Enabled {
			cfg = cfg.WithTimeline(r.Scale.Timeline)
		}
		cfgs[i] = cfg
		reqs = append(reqs,
			engine.Request{Config: sim.BaselineSimConfig(cfg), Prog: t.Prog},
			engine.Request{Config: cfg, Prog: t.Prog})
	}
	results, err := eng.RunManyCtx(ctx, reqs)
	if err != nil {
		return nil, err
	}
	_, sp := obs.StartSpan(ctx, "compare_assemble")
	out := make([]TaskResult, len(tasks))
	for i, t := range tasks {
		out[i] = TaskResult{Task: t, Cmp: sim.CompareSimResults(cfgs[i], results[2*i], results[2*i+1])}
	}
	sp.End()
	return out, nil
}

// driConfig builds a DRI cache config of the given geometry and parameters.
func driConfig(sizeBytes, assoc int, p dri.Params) dri.Config {
	return dri.Config{SizeBytes: sizeBytes, BlockBytes: 32, Assoc: assoc, AddrBits: 32, Params: p}
}

func kb(bytes int) string { return fmt.Sprintf("%dK", bytes>>10) }
