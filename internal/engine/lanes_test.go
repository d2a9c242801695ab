package engine

import (
	"context"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"dricache/internal/sim"
	"dricache/internal/trace"
)

// cfgAt returns the i-th of a family of distinct simulation configs on one
// geometry and budget (distinct miss-bounds, so distinct cache keys within
// one lane group).
func cfgAt(i int) sim.Config {
	cfg := quickDRI()
	cfg.Params.MissBound = uint64(i + 1)
	return sim.Default(cfg, quickInstrs)
}

// TestRunManyGroupsAndSkipsCached drives the batch scheduler with a stub
// executor: cached requests and in-call duplicates never reach a batch, the
// remainder group by benchmark, and the lane counters account decode passes
// saved.
func TestRunManyGroupsAndSkipsCached(t *testing.T) {
	var executions atomic.Int64
	e := countingEngine(4, 0, &executions)
	applu, li := prog(t, "applu"), prog(t, "li")

	// Pre-cache one applu point; it must be served as a hit, not batched.
	// The pre-cache run is itself a one-lane batch, so the lane counters
	// below are read as deltas over it.
	e.Run(cfgAt(0), applu)
	before := e.Stats().Lanes

	var reqs []Request
	for i := 0; i < 6; i++ {
		reqs = append(reqs, Request{Config: cfgAt(i), Prog: applu})
	}
	for i := 0; i < 4; i++ {
		reqs = append(reqs, Request{Config: cfgAt(i), Prog: li})
	}
	reqs = append(reqs, Request{Config: cfgAt(1), Prog: applu}) // in-call duplicate
	out := mustRunMany(e, reqs)

	if got := executions.Load(); got != 10 {
		t.Fatalf("executed %d simulations, want 10 (1 pre-cached + 9 batched)", got)
	}
	for i, want := range []string{"applu", "applu", "applu", "applu", "applu", "applu",
		"li", "li", "li", "li", "applu"} {
		if out[i].Benchmark != want {
			t.Fatalf("out[%d].Benchmark = %q, want %q", i, out[i].Benchmark, want)
		}
	}

	s := e.Stats()
	groups := s.Lanes.Groups - before.Groups
	lanes := s.Lanes.Lanes - before.Lanes
	batches := s.Lanes.Batches - before.Batches
	saved := s.Lanes.DecodeSaved - before.DecodeSaved
	if before.Groups != 1 || before.Lanes != 1 || before.Batches != 1 || before.DecodeSaved != 0 {
		t.Errorf("pre-cache run counted %+v, want one group, lane and batch, no decode saved", before)
	}
	if groups != 2 {
		t.Errorf("lane groups = %d, want 2 (applu, li)", groups)
	}
	if lanes != 9 {
		t.Errorf("lanes = %d, want 9 (cached hit and duplicate skipped)", lanes)
	}
	// 4 workers over 2 groups: each group splits into 2 batches.
	if batches != 4 {
		t.Errorf("batches = %d, want 4", batches)
	}
	if saved != lanes-batches {
		t.Errorf("decodeSaved = %d, want lanes-batches = %d", saved, lanes-batches)
	}
	if s.Hits != 1 || s.Deduped != 1 || s.Misses != 10 {
		t.Errorf("hits/deduped/misses = %d/%d/%d, want 1/1/10", s.Hits, s.Deduped, s.Misses)
	}
}

// TestSetLanesCapsBatchSize pins the -lanes knob: a positive limit bounds
// every batch regardless of the automatic policy.
func TestSetLanesCapsBatchSize(t *testing.T) {
	e := New(1) // one worker and one group: automatic policy would run whole
	var (
		mu    sync.Mutex
		sizes []int
	)
	e.runLanesFn = func(_ context.Context, cfgs []sim.Config, p trace.Program) ([]sim.Result, bool, error) {
		mu.Lock()
		sizes = append(sizes, len(cfgs))
		mu.Unlock()
		out := make([]sim.Result, len(cfgs))
		for i := range out {
			out[i] = sim.Result{Benchmark: p.Name}
		}
		return out, len(cfgs) > 1, nil
	}
	e.SetLanes(2)
	if got := e.Lanes(); got != 2 {
		t.Fatalf("Lanes() = %d after SetLanes(2)", got)
	}
	var reqs []Request
	for i := 0; i < 5; i++ {
		reqs = append(reqs, Request{Config: cfgAt(i), Prog: prog(t, "applu")})
	}
	mustRunMany(e, reqs)
	total := 0
	for _, n := range sizes {
		if n > 2 {
			t.Errorf("batch of %d lanes exceeds SetLanes(2)", n)
		}
		total += n
	}
	if total != 5 {
		t.Errorf("batched %d lanes, want 5", total)
	}
	if got := e.Stats().Lanes.LanesPerBatch; got != 2 {
		t.Errorf("stats LanesPerBatch = %d, want 2", got)
	}
	e.SetLanes(-3)
	if got := e.Lanes(); got != 0 {
		t.Errorf("Lanes() = %d after SetLanes(-3), want 0 (automatic)", got)
	}
}

// TestLanesForPolicy pins the automatic partitioning: groups ≥ workers run
// whole (maximum decode sharing); fewer groups split to keep the pool busy.
func TestLanesForPolicy(t *testing.T) {
	cases := []struct {
		groupSize, numGroups, workers, limit, want int
	}{
		{12, 15, 8, 0, 12}, // enough groups to fill the pool: run whole
		{12, 1, 1, 0, 12},  // single worker: run whole
		{13, 3, 8, 0, 5},   // 3 groups on 8 workers: ~3 batches per group
		{16, 1, 3, 0, 6},   // 1 group on 3 workers: 3 batches
		{12, 15, 8, 4, 4},  // explicit cap wins
		{3, 15, 8, 8, 3},   // cap above group size: whole group
		{1, 1, 8, 0, 1},    // never below one lane
	}
	for _, c := range cases {
		if got := lanesFor(c.groupSize, c.numGroups, c.workers, c.limit); got != c.want {
			t.Errorf("lanesFor(%d, %d, %d, %d) = %d, want %d",
				c.groupSize, c.numGroups, c.workers, c.limit, got, c.want)
		}
	}
}

// TestRunManyPanicPoisonsBatch: a lane panic uncaches every claim in its
// batch, propagates to the caller, and leaves the engine consistent for
// retries.
func TestRunManyPanicPoisonsBatch(t *testing.T) {
	var calls atomic.Int64
	e := New(1)
	e.setRunFn(func(cfg sim.Config, p trace.Program) sim.Result {
		calls.Add(1)
		if cfg.Mem.L1I.Params.MissBound == 2 && calls.Load() <= 2 {
			panic("lane boom")
		}
		return sim.Result{Benchmark: p.Name}
	})
	reqs := []Request{
		{Config: cfgAt(0), Prog: prog(t, "applu")},
		{Config: cfgAt(1), Prog: prog(t, "applu")}, // miss-bound 2: panics
		{Config: cfgAt(2), Prog: prog(t, "applu")},
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("RunMany did not propagate the lane panic")
			}
		}()
		mustRunMany(e, reqs)
	}()

	s := e.Stats()
	if s.InFlight != 0 {
		t.Fatalf("inFlight = %d after panic", s.InFlight)
	}
	// The poisoned batch uncached all three claims; a retry re-executes and
	// succeeds (the stub only panics on its first pass).
	out := mustRunMany(e, reqs)
	for i := range out {
		if out[i].Benchmark != "applu" {
			t.Fatalf("retry out[%d] = %+v", i, out[i])
		}
	}
	if s = e.Stats(); s.Entries != 3 {
		t.Fatalf("entries = %d after retry, want 3", s.Entries)
	}
}

// TestRunManyStoreBypassDecodeSaved pins the engine's accounting on the
// trace-store-bypass path: with the store's budget at zero, sim.RunLanes
// runs each batch over one shared generator pass, so the engine credits
// the generator passes saved exactly as it credits replay decodes saved —
// while the batches and lanes it scheduled (and per-request hit/dedup
// accounting, including an in-call duplicate joining mid-batch) stay
// exactly as on the replay path.
func TestRunManyStoreBypassDecodeSaved(t *testing.T) {
	st := trace.SharedStore()
	st.SetBudget(0)
	defer st.SetBudget(trace.DefaultStoreBudget)

	p := prog(t, "applu")
	e := New(2)
	reqs := []Request{
		{Config: cfgAt(0), Prog: p},
		{Config: cfgAt(1), Prog: p},
		{Config: cfgAt(2), Prog: p},
		{Config: cfgAt(1), Prog: p}, // in-call duplicate joins mid-batch
	}
	out := mustRunMany(e, reqs)
	if !reflect.DeepEqual(out[1], out[3]) {
		t.Error("in-call duplicate diverges from its claim's result")
	}
	for i, c := range []sim.Config{cfgAt(0), cfgAt(1), cfgAt(2), cfgAt(1)} {
		if want := sim.Run(c, p); !reflect.DeepEqual(out[i], want) {
			t.Errorf("bypass out[%d] diverges from a solo run", i)
		}
	}

	// Two workers split the three claims into batches of two and one; the
	// two-lane batch shares one generator pass, the solo batch saves none.
	s := e.Stats()
	if s.Lanes.Batches != 2 || s.Lanes.DecodeSaved != 1 {
		t.Errorf("batches/DecodeSaved = %d/%d on the store-bypass path, want 2/1",
			s.Lanes.Batches, s.Lanes.DecodeSaved)
	}
	if s.Lanes.Lanes != 3 {
		t.Errorf("lanes = %d, want 3 (duplicate must not be double-counted)", s.Lanes.Lanes)
	}
	if s.Misses != 3 || s.Deduped != 1 {
		t.Errorf("misses/deduped = %d/%d, want 3/1", s.Misses, s.Deduped)
	}

	// Restore the store and rerun fresh requests on one worker: one batch
	// shares one replay decode, credited the same way.
	st.SetBudget(trace.DefaultStoreBudget)
	e2 := New(1)
	mustRunMany(e2, reqs[:3])
	if s := e2.Stats(); s.Lanes.DecodeSaved != 2 {
		t.Errorf("DecodeSaved = %d on the lane path, want 2", s.Lanes.DecodeSaved)
	}
}

// TestRunManyMatchesRun runs a small real batch and checks bit-identical
// results against the solo engine path.
func TestRunManyMatchesRun(t *testing.T) {
	p := prog(t, "applu")
	cfgs := []sim.Config{cfgAt(0), cfgAt(1), cfgAt(2)}
	reqs := make([]Request, len(cfgs))
	for i, c := range cfgs {
		reqs[i] = Request{Config: c, Prog: p}
	}
	batched := mustRunMany(New(0), reqs)
	for i, c := range cfgs {
		solo := New(0).Run(c, p)
		if !reflect.DeepEqual(batched[i], solo) {
			t.Fatalf("lane %d diverges from solo engine run", i)
		}
	}
}
