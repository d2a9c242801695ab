// The engine's batch scheduler: RunManyCtx takes an arbitrary list of
// simulation requests — a whole sweep's worth — and executes them as lane
// batches instead of independent runs. Requests that memoize away (cache
// hits and in-flight joins) are skipped first; the remainder are grouped by
// the instruction stream they consume (benchmark identity × instruction
// budget), each group is partitioned into batches sized by the lane knob
// (GOMAXPROCS-aware by default), and every batch executes as one lock-step
// pass over a single decode of the stream (sim.RunLanes). A 15-benchmark ×
// 12-configuration sweep thus performs 15 stream decodes instead of 180,
// while each result stays bit-identical to running its configuration alone.
package engine

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"
	"sync"

	"dricache/internal/obs"
	"dricache/internal/sim"
	"dricache/internal/trace"
)

// groupKey identifies the instruction stream a simulation consumes. Lane
// batches may only combine simulations that replay the same stream, i.e.
// the same benchmark definition at the same instruction budget.
type groupKey struct {
	// prog is the canonical hash of the benchmark definition (same JSON
	// identity KeyFor uses, without the configuration).
	prog   string
	budget uint64
}

func groupKeyFor(prog trace.Program, budget uint64) groupKey {
	h := sha256.New()
	if err := json.NewEncoder(h).Encode(prog); err != nil {
		panic(fmt.Sprintf("engine: encoding trace.Program: %v", err))
	}
	return groupKey{prog: hex.EncodeToString(h.Sum(nil)), budget: budget}
}

// lanesFor sizes the batches of one lane group. More lanes per batch share
// one decode across more simulations; more batches keep more workers busy.
// The automatic policy resolves the tension in favor of utilization: with
// at least as many groups as workers every group runs whole (maximum
// sharing), otherwise each group splits into about workers/groups batches
// so the pool stays saturated. A positive limit (SetLanes) caps the batch
// size either way.
func lanesFor(groupSize, numGroups, workers, limit int) int {
	lanes := groupSize
	if numGroups < workers {
		targetBatches := (workers + numGroups - 1) / numGroups
		lanes = (groupSize + targetBatches - 1) / targetBatches
	}
	if limit > 0 && lanes > limit {
		lanes = limit
	}
	if lanes < 1 {
		lanes = 1
	}
	return lanes
}

// laneClaim is one simulation runMany must actually execute: the first
// request for a key that was neither cached nor in flight. The claim owns
// the key's cache entry until its batch completes (or panics).
type laneClaim struct {
	idx  int // first request index under this key, for result placement
	key  Key
	cfg  sim.Config
	prog trace.Program
	ent  *entry
}

// laneGroup is the claims of one call that consume one instruction stream.
type laneGroup struct {
	prog   trace.Program
	claims []*laneClaim
}

// RunManyCtx executes the requests and returns results in input order —
// each bit-identical to Run of the same request. It is the sweep entry
// point: every request is first resolved against the result cache
// (completed hits and in-flight joins never reach a batch, and duplicate
// requests within the call coalesce), and the remainder execute as lane
// batches under the worker limit — grouped by (benchmark, budget), each
// batch one lock-step pass over a single decode of its stream. With an obs
// trace attached, the cache-resolution pass, the batch-forming step, and
// every lane batch (annotated with its benchmark and lane count) are
// recorded as child spans.
//
// A simulation panic poisons its whole batch: every claim in the batch is
// uncached (so later requests retry) and the panic propagates to the
// caller and to every coalesced waiter.
//
// Cancelling ctx aborts every batch this call claimed at its next chunk
// boundary. Aborted claims are uncached exactly like panicked ones — the
// cache never holds a partial result — and RunManyCtx returns the first
// abort error (wrapping cpu.ErrAborted). Entries this call merely joined
// that abort under their owner's cancellation are retried here as long as
// this call's own context is live.
func (e *Engine) RunManyCtx(ctx context.Context, reqs []Request) ([]sim.Result, error) {
	res, _, err := e.runMany(ctx, reqs)
	out := make([]sim.Result, len(reqs))
	for i, r := range res {
		if r != nil {
			out[i] = *r
		}
	}
	return out, err
}

// runMany is RunManyCtx returning the cache's shared results, and for each
// request whether it was served without executing a new simulation: a
// completed hit, a join of an in-flight twin (or of a duplicate earlier in
// the call), or a claim settled from the persistence layer. It is the
// engine's only code that claims a cache entry and settles it — on
// success, abort and panic. On an abort error the results of the requests
// that completed are filled in and the rest are nil.
func (e *Engine) runMany(ctx context.Context, reqs []Request) ([]*sim.Result, []bool, error) {
	out := make([]*sim.Result, len(reqs))
	cached := make([]bool, len(reqs))
	if len(reqs) == 0 {
		return out, cached, nil
	}

	type wait struct {
		idx int
		ent *entry
	}
	var (
		waits   []wait
		claims  []*laneClaim
		claimed map[Key]*laneClaim
	)

	_, lookup := obs.StartSpan(ctx, "cache_lookup")
	keys := make([]Key, len(reqs))
	for i := range reqs {
		keys[i] = KeyFor(reqs[i].Config, reqs[i].Prog)
	}
	e.mu.Lock()
	for i, key := range keys {
		if ent, ok := e.entries[key]; ok {
			select {
			case <-ent.done:
				e.hits++
			default:
				e.deduped++
			}
			waits = append(waits, wait{i, ent})
			continue
		}
		if c, ok := claimed[key]; ok {
			// Duplicate within this call: join the claim like an
			// in-flight request.
			e.deduped++
			waits = append(waits, wait{i, c.ent})
			continue
		}
		c := &laneClaim{idx: i, key: key, cfg: reqs[i].Config, prog: reqs[i].Prog, ent: &entry{done: make(chan struct{})}}
		e.entries[key] = c.ent
		e.misses++
		e.inFlight++
		if claimed == nil {
			claimed = make(map[Key]*laneClaim)
		}
		claimed[key] = c
		claims = append(claims, c)
	}
	e.mu.Unlock()
	lookup.SetAttr("requests", strconv.Itoa(len(reqs)))
	lookup.SetAttr("claimed", strconv.Itoa(len(claims)))
	lookup.End()

	if len(claims) > 0 {
		if err := e.runClaims(ctx, claims, out, cached); err != nil {
			return out, cached, err
		}
	}

	var retry []wait
	for _, w := range waits {
		<-w.ent.done
		if w.ent.panicVal != nil {
			panic(w.ent.panicVal)
		}
		if w.ent.err != nil {
			// Joined someone else's claim and that owner aborted: retry
			// under a fresh claim unless this call's own context is dead.
			if ctx.Err() != nil {
				return out, cached, w.ent.err
			}
			retry = append(retry, w)
			continue
		}
		out[w.idx] = w.ent.res
		cached[w.idx] = true
	}
	if len(retry) > 0 {
		again := make([]Request, len(retry))
		for j, w := range retry {
			again[j] = reqs[w.idx]
		}
		res, hit, err := e.runMany(ctx, again)
		for j, w := range retry {
			out[w.idx], cached[w.idx] = res[j], hit[j]
		}
		if err != nil {
			return out, cached, err
		}
	}
	return out, cached, nil
}

// runClaims settles the claims of one runMany call, placing each result in
// out (cached for a claim answered by the persistence layer). Claims whose
// result survives on disk settle first; the rest are grouped by the
// instruction stream they consume and execute as lane batches sized by
// lanesFor, each on its own goroutine under a worker slot. It returns the
// first abort error and re-raises the first lane panic after every batch
// has settled its claims.
func (e *Engine) runClaims(ctx context.Context, claims []*laneClaim, out []*sim.Result, cached []bool) error {
	nClaims := len(claims)
	// Resolve claims against the persistence layer before forming batches:
	// a claim whose result survives on disk settles immediately (its miss
	// reclassified as a persist hit) and never occupies a lane.
	persistSettled := 0
	if e.persistStore() != nil {
		kept := claims[:0]
		for _, c := range claims {
			if res, ok := e.loadPersisted(c.key); ok {
				e.settlePersisted(c.key, c.ent, res)
				out[c.idx], cached[c.idx] = res, true
				persistSettled++
				continue
			}
			kept = append(kept, c)
		}
		claims = kept
	}

	_, grouping := obs.StartSpan(ctx, "batch_grouping")
	groups := make(map[groupKey]*laneGroup)
	var order []*laneGroup // batch-forming order follows first appearance
	for _, c := range claims {
		gk := groupKeyFor(c.prog, c.cfg.Instructions)
		g := groups[gk]
		if g == nil {
			g = &laneGroup{prog: c.prog}
			groups[gk] = g
			order = append(order, g)
		}
		g.claims = append(g.claims, c)
	}
	type batch struct {
		prog   trace.Program
		claims []*laneClaim
	}
	var batches []batch
	e.mu.Lock()
	limit, workers, runLanes := int(e.lanes), e.effectiveLimit(), e.runLanesFn
	// Groups are a batch-forming fact and counted here (only groups that
	// still have work after cache and persistence resolution); batch and
	// lane execution (and the decode passes they save) are counted when
	// each batch completes, because only the executor knows whether a batch
	// really shared one stream pass.
	e.laneGroups += uint64(len(order))
	e.mu.Unlock()
	for _, g := range order {
		lanes := lanesFor(len(g.claims), len(order), workers, limit)
		for start := 0; start < len(g.claims); start += lanes {
			end := min(start+lanes, len(g.claims))
			batches = append(batches, batch{prog: g.prog, claims: g.claims[start:end]})
		}
	}
	grouping.SetAttr("groups", strconv.Itoa(len(order)))
	grouping.SetAttr("batches", strconv.Itoa(len(batches)))
	grouping.End()

	var (
		wg       sync.WaitGroup
		panicMu  sync.Mutex
		panicVal any
		abortErr error

		// Sweep progress: report completed claims over total claims to a
		// context-carried observer after each batch. Claims settled from
		// the persistence layer are already done.
		progress = progressFrom(ctx)
		progMu   sync.Mutex
		progDone = persistSettled
	)
	if progress != nil && persistSettled > 0 {
		progress(persistSettled, nClaims, "")
	}
	// settleFailed uncaches every claim of a batch that panicked or
	// aborted, so later requests retry (the cache never holds a partial
	// result), and wakes its waiters with the panic value or abort error.
	settleFailed := func(claims []*laneClaim, pv any, err error) {
		e.mu.Lock()
		for _, c := range claims {
			c.ent.panicVal, c.ent.err = pv, err
			delete(e.entries, c.key)
			e.inFlight--
		}
		e.mu.Unlock()
		for _, c := range claims {
			close(c.ent.done)
		}
	}
	for _, b := range batches {
		wg.Add(1)
		go func(b batch) {
			defer wg.Done()
			bctx, sp := obs.StartSpan(ctx, "lane_run")
			sp.SetAttr("benchmark", b.prog.Name)
			sp.SetAttr("lanes", strconv.Itoa(len(b.claims)))
			defer sp.End()
			_, qs := obs.StartSpan(bctx, "queue_wait")
			e.acquireSlot()
			qs.End()
			defer e.releaseSlot()
			// A lane panic poisons the whole batch and surfaces on the
			// caller once every batch has settled.
			defer func() {
				if pv := recover(); pv != nil {
					settleFailed(b.claims, pv, nil)
					panicMu.Lock()
					if panicVal == nil {
						panicVal = pv
					}
					panicMu.Unlock()
				}
			}()
			cfgs := make([]sim.Config, len(b.claims))
			for j, c := range b.claims {
				cfgs[j] = c.cfg
			}
			rs, shared, err := runLanes(bctx, cfgs, b.prog)
			if err != nil {
				sp.SetAttr("outcome", "aborted")
				settleFailed(b.claims, nil, err)
				panicMu.Lock()
				if abortErr == nil {
					abortErr = err
				}
				panicMu.Unlock()
				return
			}
			e.mu.Lock()
			e.laneBatches++
			e.laneRuns += uint64(len(b.claims))
			if shared {
				e.decodeSaved += uint64(len(b.claims) - 1)
			}
			for j, c := range b.claims {
				c.ent.res = &rs[j]
				e.inFlight--
				e.completed++
				e.order = append(e.order, c.key)
				out[c.idx] = c.ent.res
			}
			e.evictLocked()
			e.mu.Unlock()
			for _, c := range b.claims {
				close(c.ent.done)
			}
			for _, c := range b.claims {
				e.storePersisted(c.key, c.ent.res)
			}
			if progress != nil {
				progMu.Lock()
				progDone += len(b.claims)
				done := progDone
				progMu.Unlock()
				progress(done, nClaims, b.prog.Name)
			}
		}(b)
	}
	wg.Wait()
	if panicVal != nil {
		panic(panicVal)
	}
	return abortErr
}
