package sim

// The multi-lane sweep path: one benchmark simulated under N configurations
// in a single pass over its instruction stream. Every sweep in the
// evaluation — the Figure 3 grid search, the policy shoot-out, the joint
// L1×L2 study — replays the same stream once per configuration; RunLanes
// decodes it once and advances all N lanes lock-step instead (the
// record-once/replay-many principle of the trace store, pushed one level
// further: decode-once/simulate-many). A stream the store bypasses is
// generated once and shared the same way. Each lane owns its hierarchy,
// pipeline state, and statistics, so the results are bit-identical to
// sequential runs. Run is the one-lane case of the same pass.

import (
	"context"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"

	"dricache/internal/bpred"
	"dricache/internal/cpu"
	"dricache/internal/isa"
	"dricache/internal/mem"
	"dricache/internal/obs"
	"dricache/internal/timeline"
	"dricache/internal/trace"
)

// LaneStats is a process-wide snapshot of lane-executor activity: how many
// multi-lane passes ran, how many simulations they carried, and how many
// stream passes that saved versus sequential execution.
type LaneStats struct {
	// Batches counts multi-lane executions (one shared stream pass each).
	Batches uint64
	// Lanes counts the simulations carried by those executions.
	Lanes uint64
	// DecodeSaved counts stream passes avoided: Lanes − Batches. A pass is
	// a replay decode, or a generator pass for a stream the trace store
	// bypassed.
	DecodeSaved uint64
	// Fallbacks counts the simulations of multi-lane executions whose
	// stream the trace store did not hold; their lanes share one generator
	// pass instead of one replay decode.
	Fallbacks uint64
}

var (
	laneBatches   atomic.Uint64
	laneLanes     atomic.Uint64
	laneFallbacks atomic.Uint64
)

// ReadLaneStats returns the process-wide lane-executor counters. Batches
// are loaded before lanes while RunLanes increments lanes before batches,
// so a concurrent snapshot always observes Lanes >= Batches and
// DecodeSaved cannot underflow.
func ReadLaneStats() LaneStats {
	b := laneBatches.Load()
	l := laneLanes.Load()
	return LaneStats{
		Batches:     b,
		Lanes:       l,
		DecodeSaved: l - b,
		Fallbacks:   laneFallbacks.Load(),
	}
}

// hierPools caches constructed hierarchies per exact mem.Config. A Table 1
// hierarchy carries ~0.6 MB of frame state; sweeps build one per
// (configuration, benchmark) point, and benchmarks re-run the same points
// across iterations, so reuse through mem.Hierarchy.Reset removes the
// dominant per-lane setup garbage. The pooled hierarchies themselves are
// GC-reclaimable (sync.Pool), but the map entries are not — configurations
// are client-controlled in a serving process, so the config set is bounded
// by maxHierPools and dropped wholesale when exceeded (the pools are pure
// caches; the next acquire simply constructs fresh).
const maxHierPools = 256

var (
	hierMu    sync.Mutex
	hierPools = make(map[mem.Config]*sync.Pool)
)

func acquireHierarchy(cfg mem.Config) *mem.Hierarchy {
	hierMu.Lock()
	pool := hierPools[cfg]
	if pool == nil {
		if len(hierPools) >= maxHierPools {
			clear(hierPools)
		}
		pool = &sync.Pool{}
		hierPools[cfg] = pool
	}
	hierMu.Unlock()
	if h, _ := pool.Get().(*mem.Hierarchy); h != nil {
		h.Reset()
		return h
	}
	return mem.New(cfg)
}

func releaseHierarchy(cfg mem.Config, h *mem.Hierarchy) {
	hierMu.Lock()
	pool := hierPools[cfg]
	hierMu.Unlock()
	if pool != nil {
		pool.Put(h)
	}
}

// RunLanes executes prog under every configuration in cfgs — which must
// share one instruction budget — and returns the per-configuration results
// in input order, each bit-identical to Run(cfgs[i], prog).
//
// All lanes advance lock-step over a single pass of the stream: one decode
// of the shared trace store's recording when the store holds (or can hold)
// it, else one pass of the generator itself. Lanes with equal
// branch-predictor configurations further share one predictor walk
// (prediction is stream-driven, so outcomes and statistics are exactly
// those of a solo run).
func RunLanes(cfgs []Config, prog trace.Program) []Result {
	out, _, _ := RunLanesNotedCtx(context.Background(), cfgs, prog)
	return out
}

// RunLanesCtx is RunLanes under a context: with an obs trace attached the
// stream record/fetch, lock-step pipeline pass, and result assembly are
// recorded as child spans, and the lane goroutine is labeled
// (runtime/pprof) with the benchmark and lane count. Results are identical
// to RunLanes. Cancellation stops every lane at the same chunk boundary;
// the error then wraps cpu.ErrAborted and no results are assembled.
func RunLanesCtx(ctx context.Context, cfgs []Config, prog trace.Program) ([]Result, error) {
	out, _, err := RunLanesNotedCtx(ctx, cfgs, prog)
	return out, err
}

// RunLanesNotedCtx is RunLanesCtx that additionally reports whether the
// configurations actually shared one stream pass. It returns false only
// when there was nothing to share (zero or one configuration) — callers
// accounting decode passes saved (the engine's batch scheduler) must not
// credit those executions. A stream the trace store bypasses is still
// shared: its lanes run over one generator pass (counted in
// LaneStats.Fallbacks). A non-nil error means the context was cancelled
// mid-run: the results are zero values, nothing was counted in simulation
// telemetry, and the error wraps cpu.ErrAborted plus the cause.
func RunLanesNotedCtx(ctx context.Context, cfgs []Config, prog trace.Program) ([]Result, bool, error) {
	if len(cfgs) == 0 {
		return []Result{}, false, nil
	}
	// Check before touching the trace store: Replay records the stream on a
	// miss (a full generate-and-encode pass), and a batch queued behind a
	// cancelled sweep must not pay that just to abort at its first chunk.
	if err := ctx.Err(); err != nil {
		return make([]Result, len(cfgs)), false, abortedBeforeStart(ctx)
	}
	budget := cfgs[0].Instructions
	for _, c := range cfgs[1:] {
		if c.Instructions != budget {
			panic("sim: RunLanes requires one common instruction budget across lanes")
		}
	}
	if len(cfgs) == 1 {
		res, err := RunCtxE(ctx, cfgs[0], prog)
		return []Result{res}, false, err
	}
	out, generated, err := runPass(ctx, cfgs, prog,
		pprof.Labels("benchmark", prog.Name, "lanes", strconv.Itoa(len(cfgs))))
	if err != nil {
		return out, false, err
	}
	if generated {
		laneFallbacks.Add(uint64(len(cfgs)))
	}
	laneLanes.Add(uint64(len(cfgs)))
	laneBatches.Add(1)
	return out, true, nil
}

// runPass simulates prog under every configuration in cfgs (one common
// instruction budget) in a single lock-step pass over its stream, with the
// goroutine labeled by labels for CPU profiles. The stream is a replay of
// the shared trace store's recording, or — generated reports this — the
// generator itself when the store bypasses it. On cancellation the results
// are zero values and the error wraps cpu.ErrAborted.
func runPass(ctx context.Context, cfgs []Config, prog trace.Program, labels pprof.LabelSet) (out []Result, generated bool, err error) {
	out = make([]Result, len(cfgs))
	budget := cfgs[0].Instructions
	pprof.Do(ctx, labels, func(ctx context.Context) {
		_, sp := obs.StartSpan(ctx, "stream_decode")
		sp.SetAttr("benchmark", prog.Name)
		rep, rerr := trace.SharedStore().ReplayCtx(ctx, prog, budget)
		sp.End()
		if rerr != nil {
			// Cancelled while recording the stream (or waiting on another
			// request's recording): nothing was simulated.
			err = abortedBeforeStart(ctx)
			return
		}
		var src isa.ChunkSource
		if rep != nil {
			cur := rep.Cursor()
			src = &cur
		} else {
			generated = true
			src = isa.Chunked(prog.Stream(budget))
		}

		hs := make([]*mem.Hierarchy, len(cfgs))
		pipes := make([]*cpu.Pipeline, len(cfgs))
		recs := make([]*timeline.Recorder, len(cfgs))
		// One predictor per distinct predictor configuration: cpu.RunLanes
		// walks only the leader of each config group anyway, so per-lane
		// predictors would be constructed and never stepped.
		preds := make(map[bpred.Config]*bpred.Predictor, 1)
		for i, c := range cfgs {
			h := acquireHierarchy(c.Mem)
			hs[i] = h
			bp := preds[c.Bpred]
			if bp == nil {
				bp = bpred.New(c.Bpred)
				preds[c.Bpred] = bp
			}
			pipes[i] = cpu.New(c.CPU, h, h, bp, h)
			recs[i] = newRecorder(ctx, c)
			pipes[i].SetTimeline(recs[i])
		}
		_, sp = obs.StartSpan(ctx, "pipeline")
		if len(cfgs) > 1 {
			sp.SetAttr("lanes", strconv.Itoa(len(cfgs)))
		}
		var cpuRes []cpu.Result
		cpuRes, err = cpu.RunLanesCtx(ctx, src, pipes)
		sp.End()
		if err != nil {
			// Aborted mid-pass: the hierarchies hold partial state, but
			// Reset on the next acquire makes them safe to pool anyway.
			for i, c := range cfgs {
				releaseHierarchy(c.Mem, hs[i])
			}
			return
		}
		_, sp = obs.StartSpan(ctx, "assemble")
		for i, c := range cfgs {
			hs[i].Finish(cpuRes[i].Cycles)
			out[i] = assemble(c, prog, cpuRes[i], hs[i], recs[i])
			releaseHierarchy(c.Mem, hs[i])
		}
		sp.End()
	})
	return out, generated, err
}
