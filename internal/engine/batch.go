// The engine's batch scheduler: RunMany takes an arbitrary list of
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

// laneClaim is one simulation RunMany must actually execute: the first
// request for a key that was neither cached nor in flight. The claim owns
// the key's cache entry until its batch completes (or panics).
type laneClaim struct {
	idx int // first request index under this key, for result placement
	key Key
	cfg sim.Config
	ent *entry
}

// RunMany executes the requests and returns results in input order —
// each bit-identical to Run of the same request. It is the sweep
// entry point: every request is first resolved against the result cache
// (completed hits and in-flight joins never reach a batch, and duplicate
// requests within the call coalesce), and the remainder execute as lane
// batches under the worker limit — grouped by (benchmark, budget), each
// batch one lock-step pass over a single decode of its stream.
//
// A simulation panic poisons its whole batch: every claim in the batch is
// uncached (so later requests retry) and the panic propagates to the
// caller and to every coalesced waiter, matching Run's contract.
func (e *Engine) RunMany(reqs []Request) []sim.Result {
	// Background context: an abort error is impossible.
	out, _ := e.RunManyCtx(context.Background(), reqs)
	return out
}

// RunManyCtx is RunMany under a context: with an obs trace attached, the
// cache-resolution pass, the batch-forming step, and every lane batch
// (annotated with its benchmark and lane count) are recorded as child
// spans. Results are identical to RunMany.
//
// Cancelling ctx aborts every batch this call claimed at its next chunk
// boundary. Aborted claims are uncached exactly like panicked ones — the
// cache never holds a partial result — and RunManyCtx returns the first
// abort error (wrapping cpu.ErrAborted). Entries this call merely joined
// that abort under their owner's cancellation are retried here as long as
// this call's own context is live.
func (e *Engine) RunManyCtx(ctx context.Context, reqs []Request) ([]sim.Result, error) {
	out := make([]sim.Result, len(reqs))
	if len(reqs) == 0 {
		return out, nil
	}

	type wait struct {
		idx int
		ent *entry
	}
	type laneGroup struct {
		prog   trace.Program
		claims []*laneClaim
	}
	var (
		waits   []wait
		groups  = make(map[groupKey]*laneGroup)
		order   []groupKey // batch-forming order follows first appearance
		claimed = make(map[Key]*laneClaim)
	)

	_, lookup := obs.StartSpan(ctx, "cache_lookup")
	e.mu.Lock()
	for i := range reqs {
		key := KeyFor(reqs[i].Config, reqs[i].Prog)
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
		c := &laneClaim{idx: i, key: key, cfg: reqs[i].Config, ent: &entry{done: make(chan struct{})}}
		e.entries[key] = c.ent
		e.misses++
		e.inFlight++
		claimed[key] = c
		gk := groupKeyFor(reqs[i].Prog, reqs[i].Config.Instructions)
		g := groups[gk]
		if g == nil {
			g = &laneGroup{prog: reqs[i].Prog}
			groups[gk] = g
			order = append(order, gk)
		}
		g.claims = append(g.claims, c)
	}
	limit := int(e.lanes)
	workers := e.effectiveLimit()
	runLanes := e.runLanesFn
	e.mu.Unlock()
	lookup.SetAttr("requests", strconv.Itoa(len(reqs)))
	lookup.SetAttr("claimed", strconv.Itoa(len(claimed)))
	lookup.End()

	// Resolve claims against the persistence layer before forming batches:
	// a claim whose result survives on disk settles immediately (its miss
	// reclassified as a persist hit) and never occupies a lane.
	persistSettled := 0
	if e.persistStore() != nil {
		for _, gk := range order {
			g := groups[gk]
			kept := g.claims[:0]
			for _, c := range g.claims {
				if res, ok := e.loadPersisted(c.key); ok {
					e.settlePersisted(c.key, c.ent, res)
					out[c.idx] = *res
					persistSettled++
					continue
				}
				kept = append(kept, c)
			}
			g.claims = kept
		}
	}

	_, grouping := obs.StartSpan(ctx, "batch_grouping")
	type batch struct {
		prog   trace.Program
		claims []*laneClaim
	}
	var batches []batch
	nonEmpty := 0
	for _, gk := range order {
		if len(groups[gk].claims) > 0 {
			nonEmpty++
		}
	}
	for _, gk := range order {
		g := groups[gk]
		if len(g.claims) == 0 {
			continue // fully resolved from the persistence layer
		}
		lanes := lanesFor(len(g.claims), nonEmpty, workers, limit)
		for start := 0; start < len(g.claims); start += lanes {
			end := min(start+lanes, len(g.claims))
			batches = append(batches, batch{prog: g.prog, claims: g.claims[start:end]})
		}
	}
	// Groups are a batch-forming fact and counted here (only groups that
	// still have work after cache and persistence resolution); batch and
	// lane execution (and the decode passes they save) are counted when
	// each batch completes, because only the executor knows whether a batch
	// really shared one stream pass.
	if len(batches) > 0 {
		e.mu.Lock()
		e.laneGroups += uint64(nonEmpty)
		e.mu.Unlock()
	}
	grouping.SetAttr("groups", strconv.Itoa(nonEmpty))
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
		progress  = progressFrom(ctx)
		progMu    sync.Mutex
		progDone  = persistSettled
		progTotal = len(claimed)
	)
	if progress != nil && persistSettled > 0 {
		progress(persistSettled, progTotal, "")
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
			// A lane panic poisons the whole batch: uncache every claim so
			// later requests retry, wake the waiters with the panic value,
			// and surface it on the RunMany caller.
			defer func() {
				if pv := recover(); pv != nil {
					e.mu.Lock()
					for _, c := range b.claims {
						c.ent.panicVal = pv
						delete(e.entries, c.key)
						e.inFlight--
					}
					e.mu.Unlock()
					for _, c := range b.claims {
						close(c.ent.done)
					}
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
				// Aborted mid-batch: uncache every claim (same treatment as
				// a panic — the cache must never hold a partial result) and
				// hand the abort error to the coalesced waiters.
				sp.SetAttr("outcome", "aborted")
				e.mu.Lock()
				for _, c := range b.claims {
					c.ent.err = err
					delete(e.entries, c.key)
					e.inFlight--
				}
				e.mu.Unlock()
				for _, c := range b.claims {
					close(c.ent.done)
				}
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
				res := rs[j]
				c.ent.res = &res
				e.inFlight--
				e.completed++
				e.order = append(e.order, c.key)
				out[c.idx] = res
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
				progress(done, progTotal, b.prog.Name)
			}
		}(b)
	}
	wg.Wait()
	if panicVal != nil {
		panic(panicVal)
	}
	if abortErr != nil {
		return out, abortErr
	}
	for _, w := range waits {
		<-w.ent.done
		if w.ent.panicVal != nil {
			panic(w.ent.panicVal)
		}
		if w.ent.err != nil {
			// Joined someone else's claim and that owner aborted. This
			// call's context is (so far) live, so retry under a fresh claim.
			res, _, err := e.RunCachedCtx(ctx, reqs[w.idx].Config, reqs[w.idx].Prog)
			if err != nil {
				return out, err
			}
			out[w.idx] = *res
			continue
		}
		out[w.idx] = *w.ent.res
	}
	return out, nil
}
