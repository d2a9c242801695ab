// Package engine is the shared concurrent simulation engine: a bounded
// worker pool with a memoizing result cache and single-flight deduplication.
//
// The paper's evaluation (§5) is embarrassingly parallel — hundreds of
// (benchmark, configuration) simulations — and highly redundant: every
// Compare needs the conventional baseline of its geometry, and parameter
// sweeps revisit the same points. The engine makes all of that structural:
//
//   - every simulation is keyed by a canonical hash of its full
//     (sim.Config, benchmark) pair, so identical requests — from any
//     caller, in any order — cost one simulation;
//   - N concurrent identical submissions coalesce in flight
//     (single-flight): one goroutine simulates, the rest block on its
//     completion;
//   - actual simulation work is bounded by a resizable worker limit, so an
//     arbitrary number of outstanding requests never oversubscribes the
//     machine.
//
// Every simulation entry point is a call of one batch scheduler
// (RunManyCtx, see batch.go), the only code that claims a cache entry and
// settles it. Because Compare routes both of its runs through the same
// cache, the conventional baseline of a geometry is automatically shared
// across every Compare and sweep that touches it — the generalization of
// the private baseline map internal/exp used to keep.
//
// Results handed out by the engine are shared: callers must treat them
// (including the Events slice and SizeResidency map) as read-only.
package engine

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"

	"dricache/internal/dri"
	"dricache/internal/obs"
	"dricache/internal/persist"
	"dricache/internal/sim"
	"dricache/internal/trace"
)

// Key canonically identifies one simulation in the result cache.
type Key string

// KeyFor returns the cache key of (cfg, prog). Both are plain data (no
// maps, pointers, or function values), so their deterministic JSON encoding
// hashed with SHA-256 is a canonical identity: two requests collide exactly
// when every configuration field, the instruction budget, and the full
// benchmark definition (name, seed, phases) agree.
func KeyFor(cfg sim.Config, prog trace.Program) Key {
	h := sha256.New()
	enc := json.NewEncoder(h)
	if err := enc.Encode(cfg); err != nil {
		panic(fmt.Sprintf("engine: encoding sim.Config: %v", err))
	}
	if err := enc.Encode(prog); err != nil {
		panic(fmt.Sprintf("engine: encoding trace.Program: %v", err))
	}
	return Key(hex.EncodeToString(h.Sum(nil)))
}

// LaneStats counts the engine's batch scheduler activity: RunManyCtx groups
// pending simulations by (benchmark, budget), partitions each group into
// lane batches, and executes every batch as a single pass over the stream.
type LaneStats struct {
	// Groups counts lane groups formed (distinct (benchmark, budget)
	// streams among simulations that actually had to run).
	Groups uint64
	// Batches counts lane batches executed (one stream pass each).
	Batches uint64
	// Lanes counts the simulations those batches carried.
	Lanes uint64
	// DecodeSaved counts stream passes avoided versus sequential
	// execution: Lanes − Batches. A pass is a replay decode, or a
	// generator pass for a stream the trace store bypasses.
	DecodeSaved uint64
	// LanesPerBatch is the current lane-partition limit (0 = automatic).
	LanesPerBatch int
}

// Stats is a snapshot of the engine's cache and pool counters.
type Stats struct {
	// Hits counts requests served from a completed cache entry.
	Hits uint64
	// Misses counts requests that executed a simulation (equal to the
	// number of simulations ever run).
	Misses uint64
	// Deduped counts requests that joined an identical simulation already
	// in flight (single-flight coalescing).
	Deduped uint64
	// PersistHits counts hits served by loading a persisted result instead
	// of simulating (a subset of Hits).
	PersistHits uint64
	// Entries is the number of completed results held in the cache.
	Entries int
	// InFlight is the number of simulations currently executing or queued.
	InFlight int
	// Running is the number of simulations currently holding a worker slot.
	Running int
	// Waiting is the number of simulations queued for a worker slot.
	Waiting int
	// Parallelism is the current worker limit.
	Parallelism int
	// Lanes snapshots the batch scheduler counters.
	Lanes LaneStats
	// Trace snapshots the shared trace replay store feeding every engine's
	// simulations (a process-wide cache one level below the result cache:
	// a result-cache miss still replays its instruction stream rather than
	// regenerating it).
	Trace trace.StoreStats
}

// Requests counts all requests seen.
func (s Stats) Requests() uint64 { return s.Hits + s.Misses + s.Deduped }

// HitRate is the fraction of requests that did not execute a simulation
// (cache hits plus in-flight joins); 0 when no requests have been seen.
func (s Stats) HitRate() float64 {
	if n := s.Requests(); n > 0 {
		return float64(s.Hits+s.Deduped) / float64(n)
	}
	return 0
}

// entry is one cache slot. done is closed once res (or panicVal/err) is
// populated; waiters block on it without holding the engine lock.
type entry struct {
	done chan struct{}
	res  *sim.Result
	// panicVal carries a simulation panic to every coalesced waiter; the
	// entry itself is removed from the cache so later requests retry.
	panicVal any
	// err marks an aborted simulation (claimer's context cancelled mid-run).
	// Like a panic, the entry is uncached before done closes, so aborted
	// work never poisons the cache — waiters whose own context is still
	// live simply retry under a fresh claim.
	err error
}

// Engine is a concurrency-safe batch simulation engine. The zero value is
// not usable; construct with New. All methods are safe for concurrent use.
type Engine struct {
	mu      sync.Mutex
	slot    *sync.Cond // signaled when a worker slot frees or the limit grows
	limit   int        // worker limit; <=0 means runtime.GOMAXPROCS(0)
	running int        // simulations currently holding a slot
	waiting int        // simulations queued for a slot

	entries map[Key]*entry
	// order tracks completed entries in completion order for FIFO
	// eviction when maxEntries is set.
	order      []Key
	maxEntries int // 0 means unbounded
	completed  int
	hits       uint64
	misses     uint64
	deduped    uint64
	inFlight   int

	// persist, when non-nil, is the crash-safe disk layer under the result
	// cache (see persist.go): claims consult it before simulating and
	// completed results are written back through it.
	persist     *persist.Store
	persistHits uint64

	// lanes is the lane-partition limit for lane batches; <= 0 selects
	// the GOMAXPROCS-aware automatic policy (see planBatches).
	lanes       uint64
	laneGroups  uint64
	laneBatches uint64
	laneRuns    uint64
	decodeSaved uint64

	// runLanesFn executes one lane batch; tests swap it (setRunFn) to
	// count and stall executions. It defaults to sim.RunLanesNotedCtx. Its
	// bool result reports whether the batch actually shared one stream
	// pass (a replay decode, or a generator pass when the trace store
	// bypasses the stream) — false for a one-lane batch, where no saving
	// may be credited. A non-nil error means the run aborted on context
	// cancellation and nothing may be cached or counted.
	runLanesFn func(context.Context, []sim.Config, trace.Program) ([]sim.Result, bool, error)
}

// New returns an engine whose worker pool is bounded at workers concurrent
// simulations; workers <= 0 means runtime.GOMAXPROCS(0).
func New(workers int) *Engine {
	e := &Engine{
		limit:      workers,
		entries:    make(map[Key]*entry),
		runLanesFn: sim.RunLanesNotedCtx,
	}
	e.slot = sync.NewCond(&e.mu)
	return e
}

// setRunFn swaps the simulation executor (a test seam): lane batches loop
// f, so counting/stalling stubs observe every simulation regardless of how
// the scheduler partitions work.
func (e *Engine) setRunFn(f func(sim.Config, trace.Program) sim.Result) {
	e.runLanesFn = func(_ context.Context, cfgs []sim.Config, p trace.Program) ([]sim.Result, bool, error) {
		out := make([]sim.Result, len(cfgs))
		for i, c := range cfgs {
			out[i] = f(c, p)
		}
		// The stub stands in for the lock-step executor, so a multi-lane
		// batch counts as a shared decode pass.
		return out, len(cfgs) > 1, nil
	}
}

// SetLanes bounds how many simulations of one (benchmark, budget) group a
// single lane batch may carry; n <= 0 restores the automatic GOMAXPROCS-
// aware policy (as many lanes per batch as keeps every worker busy).
func (e *Engine) SetLanes(n int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if n < 0 {
		n = 0
	}
	e.lanes = uint64(n)
}

// Lanes returns the configured lane-partition limit (0 = automatic).
func (e *Engine) Lanes() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return int(e.lanes)
}

// Parallelism returns the effective worker limit.
func (e *Engine) Parallelism() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.effectiveLimit()
}

// SetParallelism changes the worker limit; n <= 0 means GOMAXPROCS. Raising
// the limit releases queued work immediately; lowering it lets running
// simulations finish and throttles new ones.
func (e *Engine) SetParallelism(n int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.limit = n
	e.slot.Broadcast()
}

func (e *Engine) effectiveLimit() int {
	if e.limit > 0 {
		return e.limit
	}
	return runtime.GOMAXPROCS(0)
}

// SetCacheLimit bounds the number of completed results retained; when the
// limit is exceeded the oldest completed entries are evicted (in-flight
// work is never evicted). n <= 0 means unbounded (the default).
func (e *Engine) SetCacheLimit(n int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.maxEntries = n
	e.evictLocked()
}

// evictLocked drops oldest completed entries down to the limit.
func (e *Engine) evictLocked() {
	if e.maxEntries <= 0 {
		return
	}
	for e.completed > e.maxEntries && len(e.order) > 0 {
		key := e.order[0]
		e.order = e.order[1:]
		if _, ok := e.entries[key]; ok {
			delete(e.entries, key)
			e.completed--
		}
	}
}

// Stats returns a snapshot of the engine counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return Stats{
		Hits:        e.hits,
		Misses:      e.misses,
		Deduped:     e.deduped,
		PersistHits: e.persistHits,
		Entries:     e.completed,
		InFlight:    e.inFlight,
		Running:     e.running,
		Waiting:     e.waiting,
		Parallelism: e.effectiveLimit(),
		Lanes: LaneStats{
			Groups:        e.laneGroups,
			Batches:       e.laneBatches,
			Lanes:         e.laneRuns,
			DecodeSaved:   e.decodeSaved,
			LanesPerBatch: int(e.lanes),
		},
		Trace: trace.SharedStore().Stats(),
	}
}

// Run executes (or recalls) the simulation of prog under cfg. The returned
// value shares internal slices/maps with the cache; treat it as read-only.
func (e *Engine) Run(cfg sim.Config, prog trace.Program) sim.Result {
	// A Background context cannot cancel, so an abort error is impossible.
	res, _, _ := e.RunCachedCtx(context.Background(), cfg, prog)
	return *res
}

// RunCachedCtx executes (or recalls) one simulation under ctx, returning the
// cache's shared result and whether it was served without executing a new
// simulation (a completed cache hit, an in-flight join, or a persisted
// result). It is a one-request RunManyCtx: with an obs trace attached the
// cache lookup, batch grouping and lane run are recorded as child spans.
//
// Cancelling ctx aborts an owned simulation at the next chunk boundary; the
// aborted entry is uncached (never served to anyone) and the error — which
// wraps cpu.ErrAborted and the cancellation cause — is returned. Joining an
// in-flight twin that aborts does not fail this request: if its own context
// is still live it retries under a fresh claim.
func (e *Engine) RunCachedCtx(ctx context.Context, cfg sim.Config, prog trace.Program) (*sim.Result, bool, error) {
	out, cached, err := e.runMany(ctx, []Request{{Config: cfg, Prog: prog}})
	if err != nil {
		return nil, false, err
	}
	return out[0], cached[0], nil
}

// acquireSlot blocks until a worker slot is free and claims it.
func (e *Engine) acquireSlot() {
	e.mu.Lock()
	e.waiting++
	for e.running >= e.effectiveLimit() {
		e.slot.Wait()
	}
	e.waiting--
	e.running++
	e.mu.Unlock()
}

func (e *Engine) releaseSlot() {
	e.mu.Lock()
	e.running--
	e.mu.Unlock()
	e.slot.Signal()
}

// Do runs f under the engine's worker limit without touching the result
// cache — for non-memoizable work (e.g. trace-driven studies) that should
// share the engine's concurrency budget.
func (e *Engine) Do(f func()) {
	e.acquireSlot()
	defer e.releaseSlot()
	f()
}

// Baseline returns the shared conventional run of prog on the geometry of
// driCfg (adaptive parameters stripped) at the given budget: repeated calls
// return the identical *sim.Result.
func (e *Engine) Baseline(driCfg dri.Config, prog trace.Program, instructions uint64) *sim.Result {
	res, _, _ := e.RunCachedCtx(context.Background(), sim.Default(sim.BaselineConfig(driCfg), instructions), prog)
	return res
}

// Compare runs prog under both driCfg and the conventional cache of the
// same geometry, sharing both runs through the cache, and evaluates the
// §5.2 energy model. Identical Compare calls anywhere in the process cost
// at most two simulations total, and the baseline is shared with every
// other Compare of the same geometry.
func (e *Engine) Compare(driCfg dri.Config, prog trace.Program, instructions uint64) sim.Comparison {
	cmp, _, _ := e.CompareSimCachedCtx(context.Background(), sim.Default(driCfg, instructions), prog)
	return cmp
}

// CompareSimCachedCtx is Compare generalized to a full system
// configuration: cfg may resize the L1 i-cache, the unified L2, or both,
// and the baseline is the all-conventional system of the same geometry.
// Because the cache key covers the whole sim.Config — including the L2
// configuration — joint L1×L2 sweeps share their baseline and every
// repeated point, while runs that differ only in L2 parameters are
// (correctly) distinct entries. It reports whether each run was served
// from the cache.
//
// The baseline and DRI runs are one RunManyCtx call: when both are cold
// and the pool has more than one worker, they run as two parallel one-lane
// batches. The energy accounting is recorded as a compare_assemble span.
// Cancellation aborts both runs; the error wraps cpu.ErrAborted and
// neither run is cached.
func (e *Engine) CompareSimCachedCtx(ctx context.Context, cfg sim.Config, prog trace.Program) (sim.Comparison, CompareOutcome, error) {
	out, cached, err := e.runMany(ctx, []Request{
		{Config: sim.BaselineSimConfig(cfg), Prog: prog},
		{Config: cfg, Prog: prog},
	})
	if err != nil {
		return sim.Comparison{}, CompareOutcome{}, err
	}
	_, sp := obs.StartSpan(ctx, "compare_assemble")
	cmp := sim.CompareSimResults(cfg, *out[0], *out[1])
	sp.End()
	return cmp, CompareOutcome{BaselineCached: cached[0], DRICached: cached[1]}, nil
}

// CompareOutcome reports the cache outcome of one Compare.
type CompareOutcome struct {
	// BaselineCached is true when the conventional run was served from the
	// cache (or joined in flight).
	BaselineCached bool
	// DRICached likewise for the DRI run.
	DRICached bool
}

// Request is one simulation for RunManyCtx.
type Request struct {
	Config sim.Config
	Prog   trace.Program
}
