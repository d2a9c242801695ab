package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"strings"
	"time"

	"dricache/internal/dri"
	"dricache/internal/engine"
	"dricache/internal/exp"
	"dricache/internal/obs"
	"dricache/internal/sim"
	"dricache/internal/trace"
)

// Pinned digests of every simulated result of one quick Figure 3 search:
// the per-benchmark picks plus the counters of every sim.Result. They do
// not depend on the seed, which only rotates the benchmark order. Only a
// change to the modelled design may move them.
const (
	fig3WarmDigest   = "b072b866c9154f4344de14f121a830c5"
	fig3BypassDigest = "98bc76806aeefdabc99f29d4468ce5c7"
)

// fig3BypassMeanED is the core-set mean constrained relative energy-delay
// of the quick search, the value the repository's earlier benchmark
// records (BENCH_5 to BENCH_9) pin, rounded to four decimals.
const fig3BypassMeanED = 0.6424

// coreSet is one representative benchmark per SPEC class.
var coreSet = []string{"applu", "fpppp", "gcc"}

// fig3Work is the quick Figure 3 search: QuickScale (1M instructions, 50K
// sense interval), the 3x4 QuickSpace grid, on a fresh exp.Runner per op so
// that every op misses the engine cache. With bypass set it runs the core
// set with the trace replay store's budget at 0, so every simulation
// regenerates its stream and runs solo through the generic loop. The bypass
// run is single-core: one engine worker, because three unequal benchmark
// groups on two workers finish in a time set by which group happens to
// start last (a fifth apart from process to process), and GOMAXPROCS 1,
// because with two Ps the hierarchy pools' per-P caches fill at random and
// its peak RSS jumped between 15 and 23 MB from run to run.
type fig3Work struct {
	bypass     bool
	wantDigest string
	scale      exp.Scale
	space      exp.SearchSpace
	progs      []trace.Program // in the seed's rotation order
	tasks      []exp.Task
	// lanes is the number of simulations one search runs: every grid point
	// plus one shared baseline per benchmark.
	lanes uint64
	// procs is the GOMAXPROCS setting to restore on close (bypass only).
	procs int

	acc fig3Counters
}

// fig3Counters accumulates per-op facts for the traced run.
type fig3Counters struct {
	ops                            int
	instrs, resizes                uint64
	hits, requests                 uint64
	batches, laneRuns, decodeSaved uint64
	batchNS                        int64
}

func newFig3(o options, bypass bool) (*fig3Work, error) {
	names := trace.SortedNames()
	want := fig3WarmDigest
	if bypass {
		names = coreSet
		want = fig3BypassDigest
	}
	if o.expectDigest != "" {
		want = o.expectDigest
	}

	var progs []trace.Program
	for _, n := range rotate(names, o.seed) {
		p, err := trace.ByName(n)
		if err != nil {
			return nil, err
		}
		progs = append(progs, p)
	}
	scale := exp.QuickScale()
	w := &fig3Work{
		bypass:     bypass,
		wantDigest: want,
		scale:      scale,
		space:      exp.QuickSpace(scale),
		progs:      progs,
	}
	if bypass {
		w.procs = runtime.GOMAXPROCS(1)
	}
	w.tasks = fig3Tasks(scale, w.space, progs)
	w.lanes = uint64(len(progs) * (len(w.space.MissBounds)*len(w.space.SizeBounds) + 1))
	return w, nil
}

// fig3Tasks is the task list exp.Runner.Figure3 submits for the grid, in
// the same order, so that the Figure3 call after RunAllCtx in an op is
// served entirely from the engine cache.
func fig3Tasks(scale exp.Scale, space exp.SearchSpace, progs []trace.Program) []exp.Task {
	r := exp.NewRunner(scale)
	var tasks []exp.Task
	for _, p := range progs {
		for _, mb := range space.MissBounds {
			for _, sb := range space.SizeBounds {
				tasks = append(tasks, exp.Task{
					Prog:   p,
					Config: dri.Config{SizeBytes: 64 << 10, BlockBytes: 32, Assoc: 1, AddrBits: 32, Params: r.Params(mb, sb)},
				})
			}
		}
	}
	return tasks
}

func (w *fig3Work) warmups() int { return 1 }

// setup starts from a cold replay store: fig3-warm records every stream,
// fig3-bypass sets the store's budget to 0. The runner then adds one
// warm-up op.
func (w *fig3Work) setup(ctx context.Context) error {
	st := trace.SharedStore()
	st.Reset()
	if w.bypass {
		st.SetBudget(0)
		return nil
	}
	st.SetBudget(trace.DefaultStoreBudget)
	for _, p := range w.progs {
		if err := ctx.Err(); err != nil {
			return err
		}
		if st.Replay(p, w.scale.Instructions) == nil {
			return fmt.Errorf("recording %s bypassed the replay store", p.Name)
		}
	}
	return nil
}

// op regenerates Figure 3 on a fresh runner: RunAllCtx over the grid (the
// context-taking entry point Figure3 itself uses, so a traced op can carry
// an obs trace), then Figure3 for the picks, served from the runner's
// engine cache.
func (w *fig3Work) op(ctx context.Context, i int, tr *tracer) error {
	r := exp.NewRunner(w.scale)
	if w.bypass {
		r.Workers = 1
	}
	lanesBefore := sim.ReadLaneStats()
	storeBefore := trace.SharedStore().Stats()
	octx, root := ctx, (*obs.Span)(nil)
	if tr != nil {
		octx, root = obs.NewTrace(ctx, "fig3")
	}
	start := time.Now()
	trs, err := r.RunAllCtx(octx, w.tasks)
	batch := time.Since(start)
	if root != nil {
		root.End()
		tr.add(root.Tree(), -1)
	}
	if err != nil {
		return fmt.Errorf("fig3 op %d: %w", i, err)
	}
	st := r.Engine().Stats()
	rows := r.Figure3(w.space, w.progs)
	after := r.Engine().Stats()
	lanesAfter := sim.ReadLaneStats()
	storeAfter := trace.SharedStore().Stats()
	w.note(trs, st, batch)

	var errs []string
	if st.Misses != w.lanes {
		errs = append(errs, fmt.Sprintf("engine misses %d, want %d (runner not fresh?)", st.Misses, w.lanes))
	}
	if after.Misses != st.Misses {
		errs = append(errs, fmt.Sprintf("Figure3 after RunAllCtx simulated %d more points", after.Misses-st.Misses))
	}
	fallbacks := lanesAfter.Fallbacks - lanesBefore.Fallbacks
	bypasses := storeAfter.Bypasses - storeBefore.Bypasses
	if w.bypass {
		if fallbacks != w.lanes || bypasses == 0 {
			errs = append(errs, fmt.Sprintf("bypass op ran %d lane fallbacks and %d store bypasses, want %d and > 0", fallbacks, bypasses, w.lanes))
		}
		if ed := meanConstrainedED(rows); math.Round(ed*1e4)/1e4 != fig3BypassMeanED {
			errs = append(errs, fmt.Sprintf("core-set mean constrained ED %.6f, want %.4f", ed, fig3BypassMeanED))
		}
	} else if fallbacks != 0 || storeAfter.Misses != storeBefore.Misses {
		errs = append(errs, fmt.Sprintf("warm op fell back %d times and recorded %d streams", fallbacks, storeAfter.Misses-storeBefore.Misses))
	}
	if d := fig3Digest(rows, trs); d != w.wantDigest {
		errs = append(errs, fmt.Sprintf("result digest %s, want %s", d, w.wantDigest))
	}
	if len(errs) > 0 {
		return fmt.Errorf("fig3 op %d: %s", i, strings.Join(errs, "; "))
	}
	return nil
}

// note accumulates the op's counters for the traced run.
func (w *fig3Work) note(trs []exp.TaskResult, st engine.Stats, batch time.Duration) {
	a := &w.acc
	a.ops++
	a.batchNS += batch.Nanoseconds()
	a.hits += st.Hits
	a.requests += st.Requests()
	a.batches += st.Lanes.Batches
	a.laneRuns += st.Lanes.Lanes
	a.decodeSaved += st.Lanes.DecodeSaved
	for _, res := range uniqueResults(trs) {
		a.instrs += res.CPU.Instructions
		a.resizes += res.ICache.Upsizes + res.ICache.Downsizes
	}
}

// uniqueResults lists every simulation of a search once: each variant and
// one baseline per benchmark.
func uniqueResults(trs []exp.TaskResult) []*sim.Result {
	var out []*sim.Result
	seen := make(map[string]bool)
	for i := range trs {
		if b := trs[i].Prog.Name; !seen[b] {
			seen[b] = true
			out = append(out, &trs[i].Cmp.Conv)
		}
		out = append(out, &trs[i].Cmp.DRI)
	}
	return out
}

func meanConstrainedED(rows []exp.Fig3Row) float64 {
	sum := 0.0
	for _, r := range rows {
		sum += r.Constrained.Cmp.RelativeED
	}
	return sum / float64(len(rows))
}

// fig3Digest hashes a search's outcome in a canonical order (benchmarks by
// name, grid points by bounds), so that it does not depend on the rotation.
func fig3Digest(rows []exp.Fig3Row, trs []exp.TaskResult) string {
	h := sha256.New()
	rows = slices.Clone(rows)
	slices.SortFunc(rows, func(a, b exp.Fig3Row) int { return strings.Compare(a.Bench, b.Bench) })
	for _, r := range rows {
		fmt.Fprintf(h, "%s C %d %d %x U %d %d %x\n", r.Bench,
			r.Constrained.MissBound, r.Constrained.SizeBound, r.Constrained.Cmp.RelativeED,
			r.Unconstrained.MissBound, r.Unconstrained.SizeBound, r.Unconstrained.Cmp.RelativeED)
	}
	trs = slices.Clone(trs)
	slices.SortFunc(trs, func(a, b exp.TaskResult) int {
		if c := strings.Compare(a.Prog.Name, b.Prog.Name); c != 0 {
			return c
		}
		pa, pb := a.Config.Params, b.Config.Params
		if pa.MissBound != pb.MissBound {
			return int(pa.MissBound) - int(pb.MissBound)
		}
		return pa.SizeBoundBytes - pb.SizeBoundBytes
	})
	for _, tr := range trs {
		writeCounters(h, &tr.Cmp.Conv)
		writeCounters(h, &tr.Cmp.DRI)
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// writeCounters writes a result's counters in a fixed textual form.
func writeCounters(w io.Writer, r *sim.Result) {
	fmt.Fprintf(w, "%s %+v %+v %+v %+v %x %x\n", r.Benchmark, r.CPU, r.ICache, r.Mem, r.L2,
		r.AvgActiveFraction, r.L2AvgActiveFraction)
}

func (w *fig3Work) verify(ctx context.Context, t *tally) error { return nil }

func (w *fig3Work) peakRSSMB() float64 { return vmHWM("self") }

func (w *fig3Work) rssOps() int { return 3 }

func (w *fig3Work) close() {
	trace.SharedStore().SetBudget(trace.DefaultStoreBudget)
	if w.procs > 0 {
		runtime.GOMAXPROCS(w.procs)
	}
}

// counters snapshots the cumulative counters the traced run differences.
func (w *fig3Work) counters(ctx context.Context) (map[string]float64, error) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	ls := sim.ReadLaneStats()
	ts := trace.SharedStore().Stats()
	a := w.acc
	return map[string]float64{
		"ops":                float64(a.ops),
		"sim.instrs":         float64(a.instrs),
		"dri.resizes":        float64(a.resizes),
		"engine.hits":        float64(a.hits),
		"engine.requests":    float64(a.requests),
		"engine.batches":     float64(a.batches),
		"engine.lanes":       float64(a.laneRuns),
		"engine.decodeSaved": float64(a.decodeSaved),
		"engine.batch_ns":    float64(a.batchNS),
		"sim.fallbacks":      float64(ls.Fallbacks),
		"trace.bypasses":     float64(ts.Bypasses),
		"trace.bytes":        float64(ts.Bytes),
		"runtime.alloc":      float64(ms.TotalAlloc),
		"runtime.gc":         float64(ms.NumGC),
	}, nil
}
