package engine

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dricache/internal/dri"
	"dricache/internal/sim"
	"dricache/internal/trace"
)

func prog(t testing.TB, name string) trace.Program {
	t.Helper()
	p, err := trace.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func quickDRI() dri.Config {
	return dri.Config{
		SizeBytes: 64 << 10, BlockBytes: 32, Assoc: 1, AddrBits: 32,
		Params: dri.Params{
			Enabled:            true,
			MissBound:          100,
			SizeBoundBytes:     1 << 10,
			SenseInterval:      50_000,
			Divisibility:       2,
			ThrottleSaturation: 7,
			ThrottleIntervals:  10,
		},
	}
}

const quickInstrs = 500_000

// mustRunCached is RunCachedCtx under a context that cannot cancel, so an
// abort error is a bug.
func mustRunCached(e *Engine, cfg sim.Config, p trace.Program) (*sim.Result, bool) {
	res, cached, err := e.RunCachedCtx(context.Background(), cfg, p)
	if err != nil {
		panic(err)
	}
	return res, cached
}

// mustRunMany is RunManyCtx under a context that cannot cancel.
func mustRunMany(e *Engine, reqs []Request) []sim.Result {
	out, err := e.RunManyCtx(context.Background(), reqs)
	if err != nil {
		panic(err)
	}
	return out
}

// countingEngine replaces the simulation with a counted stub that stalls
// long enough for concurrent submissions to pile up in flight.
func countingEngine(workers int, delay time.Duration, executions *atomic.Int64) *Engine {
	e := New(workers)
	e.setRunFn(func(cfg sim.Config, p trace.Program) sim.Result {
		executions.Add(1)
		time.Sleep(delay)
		return sim.Result{Benchmark: p.Name}
	})
	return e
}

func TestKeyForCanonical(t *testing.T) {
	applu, li := prog(t, "applu"), prog(t, "li")
	cfgA := sim.Default(quickDRI(), quickInstrs)
	cfgB := sim.Default(quickDRI(), quickInstrs)
	if KeyFor(cfgA, applu) != KeyFor(cfgB, applu) {
		t.Fatal("identical requests must share a key")
	}
	if KeyFor(cfgA, applu) == KeyFor(cfgA, li) {
		t.Fatal("different benchmarks must not share a key")
	}
	cfgC := cfgA
	cfgC.Instructions++
	if KeyFor(cfgA, applu) == KeyFor(cfgC, applu) {
		t.Fatal("different budgets must not share a key")
	}
	cfgD := sim.Default(sim.BaselineConfig(quickDRI()), quickInstrs)
	if KeyFor(cfgA, applu) == KeyFor(cfgD, applu) {
		t.Fatal("DRI and conventional configs must not share a key")
	}
}

// TestKeyForPinned pins one key to its literal value: a change to the JSON
// shape of sim.Config (a renamed, added or retyped field) changes every
// key, and with it silently orphans every persisted result. Such a change
// must fail here first.
func TestKeyForPinned(t *testing.T) {
	cfg := sim.Default(sim.DRI64K(dri.DefaultParams(100_000)), 1_000_000)
	const want = "c341b454e838da3377e4d254e1bd5945726d60f31c818991197bf0510f7a49f6"
	if got := KeyFor(cfg, prog(t, "gcc")); got != want {
		t.Fatalf("KeyFor = %s, want %s", got, want)
	}
}

// refKey is KeyFor without the encoded-program cache.
func refKey(t testing.TB, cfg sim.Config, p trace.Program) Key {
	t.Helper()
	h := sha256.New()
	enc := json.NewEncoder(h)
	if err := enc.Encode(cfg); err != nil {
		t.Fatal(err)
	}
	if err := enc.Encode(p); err != nil {
		t.Fatal(err)
	}
	return Key(hex.EncodeToString(h.Sum(nil)))
}

// TestKeyForTracksPhases: a program that keeps a cached program's name but
// changes one of its phases gets its own key, the cached name's key is
// still right afterwards, and editing a program's phases after its key was
// taken does not leak into the cache.
func TestKeyForTracksPhases(t *testing.T) {
	cfg := sim.Default(sim.DRI64K(dri.DefaultParams(100_000)), 1_000_000)
	p := prog(t, "gcc")
	base := KeyFor(cfg, p)
	if want := refKey(t, cfg, p); base != want {
		t.Fatalf("KeyFor = %s, uncached encoding %s", base, want)
	}
	q := p
	q.Phases = slices.Clone(p.Phases)
	q.Phases[0].LoopBody++
	changed := KeyFor(cfg, q)
	if changed == base {
		t.Fatal("a changed phase kept the program's key")
	}
	if want := refKey(t, cfg, q); changed != want {
		t.Fatalf("changed program's key %s, uncached encoding %s", changed, want)
	}
	if got := KeyFor(cfg, p); got != base {
		t.Fatalf("key after the name's cache entry changed hands: %s, want %s", got, base)
	}
	q.Phases[0].LoopBody++ // the caller's own slice, after its key was taken
	if got, want := KeyFor(cfg, q), refKey(t, cfg, q); got != want {
		t.Fatalf("edited program's key %s, uncached encoding %s", got, want)
	}
	if groupKeyFor(p, 1) == groupKeyFor(q, 1) {
		t.Fatal("a changed phase kept the program's lane group")
	}
}

// TestKeyForConcurrent takes keys of programs that share a name from many
// goroutines at once (run it under -race): every key must equal the
// uncached encoding's.
func TestKeyForConcurrent(t *testing.T) {
	cfg := sim.Default(sim.DRI64K(dri.DefaultParams(100_000)), 1_000_000)
	var progs []trace.Program
	for _, name := range []string{"gcc", "applu", "swim"} {
		p := prog(t, name)
		q := p
		q.Phases = slices.Clone(p.Phases)
		q.Phases[len(q.Phases)-1].DataKB++
		progs = append(progs, p, q)
	}
	want := make([]Key, len(progs))
	for i, p := range progs {
		want[i] = refKey(t, cfg, p)
	}
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 200 {
				k := (g + i) % len(progs)
				if got := KeyFor(cfg, progs[k]); got != want[k] {
					t.Errorf("KeyFor(%s #%d) = %s, want %s", progs[k].Name, k, got, want[k])
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestSingleFlightDedup is the acceptance test: N concurrent identical
// submissions execute the underlying simulation exactly once.
func TestSingleFlightDedup(t *testing.T) {
	var executions atomic.Int64
	e := countingEngine(4, 30*time.Millisecond, &executions)
	cfg := sim.Default(quickDRI(), quickInstrs)
	p := prog(t, "applu")

	const n = 32
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.Run(cfg, p)
		}()
	}
	wg.Wait()

	if got := executions.Load(); got != 1 {
		t.Fatalf("executed %d simulations, want 1", got)
	}
	s := e.Stats()
	if s.Misses != 1 {
		t.Errorf("misses = %d, want 1", s.Misses)
	}
	if s.Hits+s.Deduped != n-1 {
		t.Errorf("hits+deduped = %d, want %d", s.Hits+s.Deduped, n-1)
	}
	if s.Requests() != n {
		t.Errorf("requests = %d, want %d", s.Requests(), n)
	}

	// A later identical request is a plain cache hit, still one execution.
	if _, cached := mustRunCached(e, cfg, p); !cached {
		t.Error("repeat request not served from cache")
	}
	if got := executions.Load(); got != 1 {
		t.Fatalf("repeat request re-executed: %d", got)
	}
}

func TestParallelismBound(t *testing.T) {
	const limit = 3
	var executions atomic.Int64
	var running, peak atomic.Int64
	e := New(limit)
	e.setRunFn(func(cfg sim.Config, p trace.Program) sim.Result {
		executions.Add(1)
		now := running.Add(1)
		for {
			old := peak.Load()
			if now <= old || peak.CompareAndSwap(old, now) {
				break
			}
		}
		time.Sleep(10 * time.Millisecond)
		running.Add(-1)
		return sim.Result{}
	})

	var reqs []Request
	base := quickDRI()
	for i := 0; i < 16; i++ {
		cfg := base
		cfg.Params.MissBound = uint64(i + 1) // 16 distinct keys
		reqs = append(reqs, Request{Config: sim.Default(cfg, quickInstrs), Prog: prog(t, "applu")})
	}
	mustRunMany(e, reqs)

	if got := executions.Load(); got != 16 {
		t.Fatalf("executed %d, want 16", got)
	}
	if p := peak.Load(); p > limit {
		t.Fatalf("peak concurrency %d exceeds limit %d", p, limit)
	}
	if got := e.Parallelism(); got != limit {
		t.Fatalf("Parallelism() = %d, want %d", got, limit)
	}
}

func TestSetParallelismReleasesQueue(t *testing.T) {
	var executions atomic.Int64
	e := countingEngine(1, 5*time.Millisecond, &executions)
	e.SetParallelism(8)
	if got := e.Parallelism(); got != 8 {
		t.Fatalf("Parallelism() = %d after SetParallelism(8)", got)
	}
	base := quickDRI()
	var reqs []Request
	for i := 0; i < 8; i++ {
		cfg := base
		cfg.Params.MissBound = uint64(i + 1)
		reqs = append(reqs, Request{Config: sim.Default(cfg, quickInstrs), Prog: prog(t, "applu")})
	}
	mustRunMany(e, reqs)
	if got := executions.Load(); got != 8 {
		t.Fatalf("executed %d, want 8", got)
	}
}

// TestDeterministicVsDirectRun checks the engine returns byte-identical
// results to calling sim.Run directly.
func TestDeterministicVsDirectRun(t *testing.T) {
	p := prog(t, "applu")
	cfg := sim.Default(quickDRI(), quickInstrs)
	direct := sim.Run(cfg, p)
	viaEngine := New(0).Run(cfg, p)
	if !reflect.DeepEqual(direct, viaEngine) {
		t.Fatal("engine result differs from direct sim.Run")
	}
}

func TestCompareMatchesSimCompare(t *testing.T) {
	p := prog(t, "li")
	cfg := quickDRI()
	direct := sim.Compare(cfg, p, quickInstrs, nil)
	viaEngine := New(0).Compare(cfg, p, quickInstrs)
	if !reflect.DeepEqual(direct, viaEngine) {
		t.Fatal("engine comparison differs from sim.Compare")
	}
}

// TestBaselineSharedAcrossCompares checks the automatic baseline sharing:
// two Compare calls with different DRI parameters but one geometry cost
// three simulations, not four, and the baseline pointer is shared.
func TestBaselineSharedAcrossCompares(t *testing.T) {
	var executions atomic.Int64
	e := countingEngine(4, time.Millisecond, &executions)
	p := prog(t, "applu")

	cfgA := quickDRI()
	cfgB := quickDRI()
	cfgB.Params.MissBound *= 4

	var wg sync.WaitGroup
	for _, cfg := range []dri.Config{cfgA, cfgB} {
		wg.Add(1)
		go func(cfg dri.Config) {
			defer wg.Done()
			e.Compare(cfg, p, quickInstrs)
		}(cfg)
	}
	wg.Wait()

	if got := executions.Load(); got != 3 {
		t.Fatalf("executed %d simulations for two same-geometry compares, want 3", got)
	}
	a := e.Baseline(cfgA, p, quickInstrs)
	b := e.Baseline(cfgB, p, quickInstrs)
	if a != b {
		t.Fatal("baseline not shared (different pointers)")
	}
	if got := executions.Load(); got != 3 {
		t.Fatalf("Baseline() re-executed: %d", got)
	}
}

// TestConcurrencyStress hammers the engine from many goroutines over a
// small key space; run under -race it validates the locking discipline.
func TestConcurrencyStress(t *testing.T) {
	var executions atomic.Int64
	e := countingEngine(4, 100*time.Microsecond, &executions)
	p := prog(t, "applu")

	const (
		goroutines = 32
		iters      = 25
		keys       = 8
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				cfg := quickDRI()
				cfg.Params.MissBound = uint64((g+i)%keys + 1)
				switch i % 3 {
				case 0:
					e.Run(sim.Default(cfg, quickInstrs), p)
				case 1:
					mustRunMany(e, []Request{{Config: sim.Default(cfg, quickInstrs), Prog: p}})
				case 2:
					e.SetParallelism((g+i)%6 + 1)
					e.Stats()
					mustRunCached(e, sim.Default(cfg, quickInstrs), p)
				}
			}
		}(g)
	}
	wg.Wait()

	if got := executions.Load(); got != keys {
		t.Fatalf("executed %d simulations, want %d (one per distinct key)", got, keys)
	}
	s := e.Stats()
	if s.Entries != keys {
		t.Errorf("cache entries = %d, want %d", s.Entries, keys)
	}
	if s.InFlight != 0 {
		t.Errorf("in-flight = %d after quiescence", s.InFlight)
	}
	if s.HitRate() <= 0.5 {
		t.Errorf("hit rate %v implausibly low for %d requests over %d keys",
			s.HitRate(), s.Requests(), keys)
	}
}

// TestRealSimulationsThroughEngine runs a small real batch end-to-end and
// checks order preservation and dedup accounting with the true sim.Run.
func TestRealSimulationsThroughEngine(t *testing.T) {
	e := New(0)
	applu, li := prog(t, "applu"), prog(t, "li")
	cfg := sim.Default(quickDRI(), quickInstrs)
	reqs := []Request{
		{Config: cfg, Prog: applu},
		{Config: cfg, Prog: li},
		{Config: cfg, Prog: applu}, // duplicate of [0]
	}
	out := mustRunMany(e, reqs)
	if len(out) != 3 {
		t.Fatalf("len(out) = %d", len(out))
	}
	if out[0].Benchmark != "applu" || out[1].Benchmark != "li" || out[2].Benchmark != "applu" {
		t.Fatalf("order not preserved: %s %s %s",
			out[0].Benchmark, out[1].Benchmark, out[2].Benchmark)
	}
	if !reflect.DeepEqual(out[0], out[2]) {
		t.Fatal("duplicate requests returned different results")
	}
	if s := e.Stats(); s.Misses != 2 {
		t.Fatalf("misses = %d, want 2 (duplicate deduped)", s.Misses)
	}
}

func TestCacheLimitEvictsOldest(t *testing.T) {
	var executions atomic.Int64
	e := countingEngine(2, 0, &executions)
	e.SetCacheLimit(3)
	p := prog(t, "applu")

	cfgAt := func(i int) sim.Config {
		cfg := quickDRI()
		cfg.Params.MissBound = uint64(i + 1)
		return sim.Default(cfg, quickInstrs)
	}
	for i := 0; i < 5; i++ {
		e.Run(cfgAt(i), p)
	}
	if s := e.Stats(); s.Entries != 3 {
		t.Fatalf("entries = %d, want 3 after eviction", s.Entries)
	}
	// The newest key is still cached; the oldest was evicted and re-runs.
	e.Run(cfgAt(4), p)
	if got := executions.Load(); got != 5 {
		t.Fatalf("newest key re-executed: %d runs, want 5", got)
	}
	e.Run(cfgAt(0), p)
	if got := executions.Load(); got != 6 {
		t.Fatalf("evicted key not re-executed: %d runs, want 6", got)
	}
	// Tightening the limit evicts immediately.
	e.SetCacheLimit(1)
	if s := e.Stats(); s.Entries != 1 {
		t.Fatalf("entries = %d after SetCacheLimit(1)", s.Entries)
	}
}

func TestPanicPropagatesAndUncaches(t *testing.T) {
	var calls atomic.Int64
	e := New(2)
	e.setRunFn(func(cfg sim.Config, p trace.Program) sim.Result {
		if calls.Add(1) == 1 {
			time.Sleep(10 * time.Millisecond)
			panic("boom")
		}
		return sim.Result{Benchmark: p.Name}
	})
	cfg := sim.Default(quickDRI(), quickInstrs)
	p := prog(t, "applu")

	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	// Executor and a coalesced waiter both observe the panic.
	var wg sync.WaitGroup
	wg.Add(2)
	for i := 0; i < 2; i++ {
		go func() {
			defer wg.Done()
			mustPanic("run", func() { e.Run(cfg, p) })
		}()
	}
	wg.Wait()

	// The failed entry was uncached: a retry succeeds.
	if res := e.Run(cfg, p); res.Benchmark != "applu" {
		t.Fatalf("retry after panic returned %+v", res)
	}
	if s := e.Stats(); s.InFlight != 0 || s.Entries != 1 {
		t.Fatalf("stats after retry = %+v", s)
	}

	// A baseline panic inside Compare surfaces on the caller.
	e2 := New(2)
	e2.setRunFn(func(cfg sim.Config, p trace.Program) sim.Result {
		if !cfg.Mem.L1I.Params.Enabled {
			panic("baseline boom")
		}
		return sim.Result{Benchmark: p.Name}
	})
	mustPanic("compare", func() { e2.Compare(quickDRI(), p, quickInstrs) })
}
