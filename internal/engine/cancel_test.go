package engine

// Cancellation-correctness properties. Cancelling mid-run is only safe if
// the result cache stays truthful: an aborted simulation must never leave
// an entry (poisoned or partial), and a retry of the same request must
// produce results bit-identical to a run that was never cancelled. These
// tests pin that for all six leakage-control policies and for the lane
// batch path, using the timeline sink to cancel deterministically at the
// first interval point rather than at an arbitrary wall-clock moment.

import (
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"dricache/internal/cpu"
	"dricache/internal/dri"
	"dricache/internal/policy"
	"dricache/internal/sim"
	"dricache/internal/timeline"
	"dricache/internal/trace"
)

// cancelPolicyConfigs builds one simulation config per leakage-control
// policy, timeline-enabled so the interval sink can trigger cancellation at
// a deterministic instruction count.
func cancelPolicyConfigs(instrs uint64) map[string]sim.Config {
	const iv = 50_000
	geom := func(assoc int) dri.Config {
		return dri.Config{SizeBytes: 64 << 10, BlockBytes: 32, Assoc: assoc, AddrBits: 32}
	}
	cfgs := map[string]sim.Config{
		"conventional": sim.Default(geom(1), instrs),
		"dri":          sim.Default(quickDRI(), instrs),
		"decay":        sim.Default(geom(1), instrs).WithL1IPolicy(policy.DefaultDecay(iv)),
		"drowsy":       sim.Default(geom(1), instrs).WithL1IPolicy(policy.DefaultDrowsy(iv)),
		"waygate":      sim.Default(geom(4), instrs).WithL1IPolicy(policy.DefaultWayGate(iv)),
		"waymemo":      sim.Default(geom(4), instrs).WithL1IPolicy(policy.DefaultWayMemo(iv)),
	}
	for name, c := range cfgs {
		c.Timeline = timeline.Config{Enabled: true, IntervalInstructions: iv}
		cfgs[name] = c
	}
	return cfgs
}

// TestCancelledRunLeavesCleanCacheAllPolicies cancels one run per policy at
// its first interval point and checks the three-part property: the abort
// surfaces as cpu.ErrAborted, the cache retains nothing (no poisoned or
// partial entry, nothing in flight), and an immediate retry simulates
// fresh and matches an uncancelled run bit for bit.
func TestCancelledRunLeavesCleanCacheAllPolicies(t *testing.T) {
	prog, err := trace.ByName("applu")
	if err != nil {
		t.Fatal(err)
	}
	for name, cfg := range cancelPolicyConfigs(2_000_000) {
		t.Run(name, func(t *testing.T) {
			want := sim.Run(cfg, prog)

			e := New(0)
			ctx, cancel := context.WithCancelCause(context.Background())
			ctx = timeline.WithSink(ctx, func(timeline.Point) {
				cancel(errors.New("test: first interval"))
			})
			_, _, err := e.RunCachedCtx(ctx, cfg, prog)
			if !errors.Is(err, cpu.ErrAborted) {
				t.Fatalf("RunCachedCtx err = %v, want cpu.ErrAborted", err)
			}
			st := e.Stats()
			if st.Entries != 0 || st.InFlight != 0 {
				t.Fatalf("after abort: %d entries, %d in flight; want a clean cache", st.Entries, st.InFlight)
			}

			res, cached, err := e.RunCachedCtx(context.Background(), cfg, prog)
			if err != nil {
				t.Fatalf("retry after abort: %v", err)
			}
			if cached {
				t.Fatal("retry served from cache; the aborted run must not have been cached")
			}
			if !reflect.DeepEqual(*res, want) {
				t.Fatalf("retry result diverges from uncancelled run")
			}
		})
	}
}

// TestCancelledBatchRetriesCleanly cancels a lane batch (all six policies
// as lanes over one stream) at its first interval point: RunManyCtx must
// surface the abort with nothing left in flight, and re-running the same
// requests must reproduce a never-cancelled engine's results exactly —
// batches that completed before the cancel may be served from cache, but
// nothing partial may be.
func TestCancelledBatchRetriesCleanly(t *testing.T) {
	prog, err := trace.ByName("compress")
	if err != nil {
		t.Fatal(err)
	}
	var reqs []Request
	for _, cfg := range cancelPolicyConfigs(2_000_000) {
		reqs = append(reqs, Request{Config: cfg, Prog: prog})
	}
	ref := New(0)
	want := mustRunMany(ref, reqs)

	e := New(0)
	ctx, cancel := context.WithCancelCause(context.Background())
	ctx = timeline.WithSink(ctx, func(timeline.Point) {
		cancel(errors.New("test: first interval"))
	})
	if _, err := e.RunManyCtx(ctx, reqs); !errors.Is(err, cpu.ErrAborted) {
		t.Fatalf("RunManyCtx err = %v, want cpu.ErrAborted", err)
	}
	if st := e.Stats(); st.InFlight != 0 {
		t.Fatalf("after abort: %d in flight, want 0", st.InFlight)
	}

	got, err := e.RunManyCtx(context.Background(), reqs)
	if err != nil {
		t.Fatalf("retry after abort: %v", err)
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("retry result %d diverges from uncancelled run", i)
		}
	}
}

// TestCancelSettlesPromptly bounds the wall time from cancellation to
// RunManyCtx returning on a whole-suite sweep: running batches abort at
// the next 256-instruction chunk and queued batches abort before paying
// for a stream decode, so settling is a matter of microseconds, not of
// finishing the sweep.
func TestCancelSettlesPromptly(t *testing.T) {
	// The settle bound is wall time, so it scales with the simulator: under
	// the race detector every chunk step and any stream-record pass already
	// underway when the cancel lands run an order of magnitude slower.
	settleBound, hangBound := 2*time.Second, 10*time.Second
	if raceEnabled {
		settleBound, hangBound = 30*time.Second, 120*time.Second
	}
	e := New(0)
	var reqs []Request
	for _, p := range trace.Benchmarks() {
		reqs = append(reqs, Request{Config: sim.Default(quickDRI(), 4_000_000), Prog: p})
	}
	ctx, cancel := context.WithCancelCause(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := e.RunManyCtx(ctx, reqs)
		done <- err
	}()
	time.Sleep(200 * time.Millisecond)
	start := time.Now()
	cancel(errors.New("test: cancel mid-sweep"))
	select {
	case err := <-done:
		if !errors.Is(err, cpu.ErrAborted) {
			t.Fatalf("RunManyCtx err = %v, want cpu.ErrAborted", err)
		}
		if settled := time.Since(start); settled > settleBound {
			t.Fatalf("cancel took %v to settle, want chunk-boundary promptness", settled)
		}
	case <-time.After(hangBound):
		t.Fatal("RunManyCtx did not settle after cancel")
	}
}

// TestJoinRetriesAfterOwnerAborts: a request that joined an in-flight
// simulation whose owner is then cancelled does not fail with the owner's
// abort; its own context is live, so it claims the key afresh and
// simulates.
func TestJoinRetriesAfterOwnerAborts(t *testing.T) {
	var calls atomic.Int64
	started := make(chan struct{})
	e := New(2)
	e.runLanesFn = func(ctx context.Context, cfgs []sim.Config, p trace.Program) ([]sim.Result, bool, error) {
		if calls.Add(1) == 1 {
			close(started)
			<-ctx.Done()
			return nil, false, context.Cause(ctx)
		}
		out := make([]sim.Result, len(cfgs))
		for i := range out {
			out[i] = sim.Result{Benchmark: p.Name}
		}
		return out, false, nil
	}
	cfg, p := cfgAt(0), prog(t, "applu")

	ownerCtx, cancel := context.WithCancelCause(context.Background())
	ownerErr := make(chan error, 1)
	go func() {
		_, _, err := e.RunCachedCtx(ownerCtx, cfg, p)
		ownerErr <- err
	}()
	<-started
	type joined struct {
		res    *sim.Result
		cached bool
		err    error
	}
	joiner := make(chan joined, 1)
	go func() {
		res, cached, err := e.RunCachedCtx(context.Background(), cfg, p)
		joiner <- joined{res, cached, err}
	}()
	for e.Stats().Deduped != 1 {
		time.Sleep(time.Millisecond)
	}
	cancel(errors.New("test: owner gives up"))

	if err := <-ownerErr; err == nil {
		t.Fatal("cancelled owner returned no error")
	}
	got := <-joiner
	if got.err != nil {
		t.Fatalf("joiner failed with its owner's abort: %v", got.err)
	}
	if got.cached || got.res == nil || got.res.Benchmark != "applu" {
		t.Fatalf("joiner = %+v cached=%v, want a fresh simulation of applu", got.res, got.cached)
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("executed %d simulations, want 2 (the aborted one and the retry)", n)
	}
	if s := e.Stats(); s.InFlight != 0 || s.Entries != 1 {
		t.Fatalf("stats after retry = %+v, want nothing in flight and one entry", s)
	}
}
