package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"dricache/internal/dri"
	"dricache/internal/mem"
	"dricache/internal/obs"
	"dricache/internal/sim"
	"dricache/internal/trace"
)

const (
	serveInstrs   = 1_000_000
	serveInterval = 50_000
	// verifySamples is how many executed requests per run are re-simulated
	// in-process after the measured window.
	verifySamples = 3
)

// serveKey is one request: a /v1/run or /v1/compare of a DRI configuration.
type serveKey struct {
	bench   string
	compare bool
	mb      uint64
	sb      int
}

func (k serveKey) path() string {
	if k.compare {
		return "/v1/compare"
	}
	return "/v1/run"
}

func (k serveKey) body() []byte {
	return fmt.Appendf(nil,
		`{"benchmark":%q,"instructions":%d,"cache":{"dri":{"missBound":%d,"sizeBoundBytes":%d,"senseInterval":%d}}}`,
		k.bench, serveInstrs, k.mb, k.sb, serveInterval)
}

// simConfig is the configuration driserve builds for the request: the
// paper's 64K direct-mapped DRI i-cache with its default adaptive
// parameters at the given bounds, Table 1 L2.
func (k serveKey) simConfig() sim.Config {
	p := dri.DefaultParams(serveInterval)
	p.MissBound = k.mb
	p.SizeBoundBytes = k.sb
	l1i := dri.Config{SizeBytes: 64 << 10, BlockBytes: 32, Assoc: 1, AddrBits: 32, Params: p}
	return sim.Default(l1i, serveInstrs).WithL2(mem.DefaultL2())
}

// serveResp is the part of a run/compare response the benchmark checks.
type serveResp struct {
	Result *struct {
		Benchmark         string  `json:"benchmark"`
		Instructions      uint64  `json:"instructions"`
		Cycles            uint64  `json:"cycles"`
		ICacheAccesses    uint64  `json:"icacheAccesses"`
		ICacheMissRate    float64 `json:"icacheMissRate"`
		AvgActiveFraction float64 `json:"avgActiveFraction"`
		Upsizes           uint64  `json:"upsizes"`
		Downsizes         uint64  `json:"downsizes"`
		MemAccesses       uint64  `json:"memAccesses"`
	} `json:"result"`
	Comparison *struct {
		Benchmark         string  `json:"benchmark"`
		RelativeED        float64 `json:"relativeED"`
		SlowdownPct       float64 `json:"slowdownPct"`
		AvgActiveFraction float64 `json:"avgActiveFraction"`
		ConvCycles        uint64  `json:"convCycles"`
		DRICycles         uint64  `json:"driCycles"`
		SavingsNJ         float64 `json:"savingsNJ"`
	} `json:"comparison"`
	Cached json.RawMessage `json:"cached"`
	Engine struct {
		Hits   uint64 `json:"hits"`
		Misses uint64 `json:"misses"`
	} `json:"engine"`
	Trace *obs.SpanTree `json:"trace"`
}

// serveWork drives driserve over one closed-loop connection. serve-miss
// POSTs /v1/compare requests whose DRI bounds were never seen before, so
// each costs one new solo simulation plus one persist write (baselines are
// primed in set-up). serve-hit replays a primed key set, alternating
// /v1/run and /v1/compare, so every response must come from the cache.
type serveWork struct {
	o     options
	hit   bool
	order []string // benchmarks in the seed's rotation order
	rng   *rand.Rand
	seen  map[serveKey]bool
	keys  []serveKey // serve-hit: the primed key set, in replay order
	srv   *server

	// Engine counters after the previous response: one connection makes
	// the per-request deltas exact.
	hits, misses uint64
	done         []served

	acc serveCounters
}

// served remembers an executed request for the deferred in-process check.
type served struct {
	key  serveKey
	resp serveResp
}

// serveCounters accumulates client-side facts for the traced run.
type serveCounters struct {
	ops, respBytes, hits, requests, sims int
	queueMax                             int
}

// missSizeBounds rotate deterministically across serve-miss requests; only
// the miss-bound is drawn from the seed.
var missSizeBounds = []int{1 << 10, 4 << 10, 16 << 10}

func newServe(o options, hit bool) (*serveWork, error) {
	w := &serveWork{
		o:     o,
		hit:   hit,
		order: rotate(trace.SortedNames(), o.seed),
		rng:   rand.New(rand.NewPCG(uint64(o.seed), 0x5eed)),
		seen:  make(map[serveKey]bool),
	}
	if hit {
		// Per benchmark one /v1/run and one /v1/compare key, so the replay
		// alternates the two endpoints.
		for _, b := range w.order {
			w.keys = append(w.keys,
				serveKey{bench: b, mb: 400, sb: 2 << 10},
				serveKey{bench: b, compare: true, mb: 1600, sb: 8 << 10})
		}
	}
	return w, nil
}

func (w *serveWork) warmups() int { return 0 }

// setup boots a fresh server with a fresh -persistdir, primes it and waits
// for the persist queue to drain. serve-miss primes the 15 conventional
// baselines; serve-hit the whole key set.
func (w *serveWork) setup(ctx context.Context) error {
	dir := filepath.Join(w.o.workdir, fmt.Sprintf("%s-%d", w.o.workload, os.Getpid()))
	srv, err := startServer(ctx, w.o.driserve, dir, w.o.trace)
	if err != nil {
		return err
	}
	w.srv = srv
	var prime []serveKey
	if w.hit {
		prime = w.keys
	} else {
		for _, b := range w.order {
			prime = append(prime, serveKey{bench: b})
		}
	}
	// Two priming connections: set-up work, not the measured loop.
	errc := make(chan error, 2)
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(prime); i += 2 {
				if err := w.prime(ctx, prime[i]); err != nil {
					errc <- err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errc)
	if err := <-errc; err != nil {
		return err
	}
	if err := srv.waitPersisted(ctx); err != nil {
		return err
	}
	st, err := srv.stats(ctx)
	if err != nil {
		return err
	}
	w.hits, w.misses = st.Engine.Hits, st.Engine.Misses
	return nil
}

// prime sends one set-up request; a zero bound means the conventional
// baseline run.
func (w *serveWork) prime(ctx context.Context, k serveKey) error {
	body := k.body()
	if k.mb == 0 {
		body = fmt.Appendf(nil, `{"benchmark":%q,"instructions":%d}`, k.bench, serveInstrs)
	}
	status, b, err := w.srv.post(ctx, k.path(), body)
	if err != nil {
		return fmt.Errorf("priming %s %s: %w", k.path(), k.bench, err)
	}
	if status != http.StatusOK {
		return fmt.Errorf("priming %s %s: status %d: %s", k.path(), k.bench, status, b)
	}
	return nil
}

// next returns the key of op i. serve-miss takes benchmarks round-robin in
// the seed's order, rotates the size-bound, and draws a miss-bound in
// [400, 800) from the seed, redrawing any key already sent.
func (w *serveWork) next(i int) serveKey {
	if w.hit {
		return w.keys[i%len(w.keys)]
	}
	k := serveKey{
		bench:   w.order[i%len(w.order)],
		compare: true,
		sb:      missSizeBounds[(i/len(w.order))%len(missSizeBounds)],
	}
	for {
		k.mb = 400 + w.rng.Uint64N(400)
		if !w.seen[k] {
			w.seen[k] = true
			return k
		}
	}
}

// op sends one request and checks its status, its cached flags and the
// engine's hit and miss counts. With a tracer it asks for the span tree.
func (w *serveWork) op(ctx context.Context, i int, tr *tracer) error {
	k := w.next(i)
	path := k.path()
	if tr != nil {
		path += "?trace=1"
	}
	start := time.Now()
	status, b, err := w.srv.post(ctx, path, k.body())
	rtt := time.Since(start)
	if err != nil {
		return fmt.Errorf("%s %s: %w", k.path(), k.bench, err)
	}
	if status != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %.200s", k.path(), k.bench, status, b)
	}
	var resp serveResp
	if err := json.Unmarshal(b, &resp); err != nil {
		return fmt.Errorf("%s %s: decode: %w", k.path(), k.bench, err)
	}
	if tr != nil {
		if resp.Trace == nil {
			return fmt.Errorf("%s %s: no span tree in a ?trace=1 response", k.path(), k.bench)
		}
		tr.add(*resp.Trace, float64(rtt.Microseconds()))
		if !w.hit && i%8 == 0 {
			// Sample the persist write-behind queue between requests;
			// serve-hit writes nothing, and a 0.2 ms request would carry
			// the sample's cost.
			st, err := w.srv.stats(ctx)
			if err != nil {
				return err
			}
			w.acc.queueMax = max(w.acc.queueMax, st.Persist.QueueDepth)
		}
	}
	dHits, dMisses := resp.Engine.Hits-w.hits, resp.Engine.Misses-w.misses
	w.hits, w.misses = resp.Engine.Hits, resp.Engine.Misses
	w.acc.ops++
	w.acc.respBytes += len(b)
	w.acc.hits += int(dHits)
	w.acc.requests += int(dHits + dMisses)
	w.acc.sims += int(dMisses)
	w.done = append(w.done, served{key: k, resp: resp})
	return checkServed(k, resp, w.hit, dHits, dMisses)
}

// checkServed checks one response's cache outcome. serve-hit requests must
// be served from the cache (one engine hit per run, two per compare);
// serve-miss compares hit the primed baseline and simulate the new point.
func checkServed(k serveKey, resp serveResp, hit bool, dHits, dMisses uint64) error {
	var errs []string
	if k.compare {
		var c struct{ Baseline, DRI bool }
		if err := json.Unmarshal(resp.Cached, &c); err != nil || resp.Comparison == nil {
			return fmt.Errorf("compare %s: malformed response", k.bench)
		}
		if !c.Baseline || c.DRI != hit {
			errs = append(errs, fmt.Sprintf("cached {baseline:%v dri:%v}, want {true %v}", c.Baseline, c.DRI, hit))
		}
		wantHits, wantMisses := uint64(1), uint64(1)
		if hit {
			wantHits, wantMisses = 2, 0
		}
		if dHits != wantHits || dMisses != wantMisses {
			errs = append(errs, fmt.Sprintf("engine +%d hits +%d misses, want +%d +%d", dHits, dMisses, wantHits, wantMisses))
		}
	} else {
		var c bool
		if err := json.Unmarshal(resp.Cached, &c); err != nil || resp.Result == nil {
			return fmt.Errorf("run %s: malformed response", k.bench)
		}
		if c != hit || dHits != 1 || dMisses != 0 {
			errs = append(errs, fmt.Sprintf("cached %v with engine +%d hits +%d misses, want %v +1 +0", c, dHits, dMisses, hit))
		}
	}
	if len(errs) > 0 {
		return fmt.Errorf("%s %s mb=%d sb=%d: %s", k.path(), k.bench, k.mb, k.sb, strings.Join(errs, "; "))
	}
	return nil
}

// verify re-simulates a seeded sample of the executed requests in-process
// and compares the served results with them.
func (w *serveWork) verify(ctx context.Context, t *tally) error {
	if len(w.done) == 0 {
		return errors.New("no requests were served")
	}
	picks := w.rng.Perm(len(w.done))[:min(verifySamples, len(w.done))]
	for _, i := range picks {
		if err := ctx.Err(); err != nil {
			return err
		}
		t.check(checkAgainstSim(w.done[i].key, w.done[i].resp))
	}
	return nil
}

// checkAgainstSim compares a served result with sim.Run of the same
// configuration.
func checkAgainstSim(k serveKey, resp serveResp) error {
	prog, err := trace.ByName(k.bench)
	if err != nil {
		return err
	}
	cfg := k.simConfig()
	dres := sim.Run(cfg, prog)
	if !k.compare {
		r := resp.Result
		if r.Instructions != dres.CPU.Instructions || r.Cycles != dres.CPU.Cycles ||
			r.ICacheAccesses != dres.ICache.Accesses || r.ICacheMissRate != dres.MissRate() ||
			r.AvgActiveFraction != dres.AvgActiveFraction || r.Upsizes != dres.ICache.Upsizes ||
			r.Downsizes != dres.ICache.Downsizes || r.MemAccesses != dres.Mem.MemAccesses {
			return fmt.Errorf("run %s mb=%d sb=%d: served result differs from sim.Run", k.bench, k.mb, k.sb)
		}
		return nil
	}
	cmp := sim.CompareSimResults(cfg, sim.Run(sim.BaselineSimConfig(cfg), prog), dres)
	c := resp.Comparison
	if c.RelativeED != cmp.RelativeED || c.SlowdownPct != cmp.SlowdownPct ||
		c.AvgActiveFraction != cmp.DRI.AvgActiveFraction || c.ConvCycles != cmp.Conv.CPU.Cycles ||
		c.DRICycles != cmp.DRI.CPU.Cycles || c.SavingsNJ != cmp.SavingsNJ {
		return fmt.Errorf("compare %s mb=%d sb=%d: served comparison differs from sim.Run", k.bench, k.mb, k.sb)
	}
	return nil
}

func (w *serveWork) rssOps() int {
	if w.hit {
		return 20000
	}
	return 150
}

func (w *serveWork) peakRSSMB() float64 {
	return vmHWM(fmt.Sprint(w.srv.cmd.Process.Pid))
}

func (w *serveWork) close() { w.srv.stop() }

// counters snapshots the server's cumulative counters and the client's.
func (w *serveWork) counters(ctx context.Context) (map[string]float64, error) {
	st, err := w.srv.stats(ctx)
	if err != nil {
		return nil, err
	}
	jobsWait, err := w.srv.promValue(ctx, "jobs_queue_wait_seconds_sum")
	if err != nil {
		return nil, err
	}
	alloc, gc, err := w.srv.memStats(ctx)
	if err != nil {
		return nil, err
	}
	cpu, err := w.srv.cpuSeconds()
	if err != nil {
		return nil, err
	}
	a := w.acc
	return map[string]float64{
		"ops":                 float64(a.ops),
		"sim.instrs":          float64(a.sims * serveInstrs),
		"engine.hits":         float64(a.hits),
		"engine.requests":     float64(a.requests),
		"engine.batches":      float64(st.Lanes.Batches),
		"engine.lanes":        float64(st.Lanes.Lanes),
		"engine.decodeSaved":  float64(st.Lanes.DecodeSaved),
		"sim.fallbacks":       float64(st.Lanes.Fallbacks),
		"trace.bypasses":      float64(st.Trace.Bypasses),
		"trace.bytes":         float64(st.Trace.Bytes),
		"persist.writes":      float64(st.Persist.Writes),
		"persist.dropped":     float64(st.Persist.DroppedWrites),
		"persist.bytes":       float64(st.Persist.Bytes),
		"persist.queue_max":   float64(max(a.queueMax, st.Persist.QueueDepth)),
		"jobs.queue_wait_s":   jobsWait,
		"runtime.alloc":       alloc,
		"runtime.gc":          gc,
		"driserve.cpu_s":      cpu,
		"driserve.resp_bytes": float64(a.respBytes),
	}, nil
}
