package engine

// Persistence-correctness properties. A disk layer under the result cache
// is only safe if it is invisible in every way except speed: a result
// served from disk must be bit-identical to one simulated in memory (for
// every leakage-control policy), and any disk failure — corruption,
// I/O errors, a dead directory — must fall back to simulating, never to an
// error or a wrong result.

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"dricache/internal/persist"
	"dricache/internal/sim"
)

func quietLog() *slog.Logger {
	return slog.New(slog.NewTextHandler(discardWriter{}, &slog.HandlerOptions{Level: slog.LevelError + 1}))
}

type discardWriter struct{}

func (discardWriter) Write(p []byte) (int, error) { return len(p), nil }

func openPersist(t *testing.T, fs persist.FS) *persist.Store {
	t.Helper()
	p, err := persist.Open(persist.Config{Dir: "/persist", FS: fs, Log: quietLog()})
	if err != nil {
		t.Fatalf("persist.Open: %v", err)
	}
	t.Cleanup(func() { p.Close(context.Background()) })
	return p
}

func flushPersist(t *testing.T, p *persist.Store) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := p.Flush(ctx); err != nil {
		t.Fatalf("persist.Flush: %v", err)
	}
}

// TestPersistRoundTripAllPolicies is the bit-identity property across every
// leakage-control policy: simulate with persistence attached, "restart"
// (fresh engine + fresh persist store on the surviving filesystem), and the
// warm result must be deeply and byte-for-byte equal to the simulated one —
// and must be served as a cache hit without simulating.
func TestPersistRoundTripAllPolicies(t *testing.T) {
	bench := prog(t, "applu")
	for name, cfg := range cancelPolicyConfigs(300_000) {
		t.Run(name, func(t *testing.T) {
			mem := persist.NewMemFS()

			e1 := New(0)
			e1.SetPersist(openPersist(t, mem))
			cold, cached := mustRunCached(e1, cfg, bench)
			if cached {
				t.Fatal("cold run reported cached")
			}
			flushPersist(t, e1.persistStore())

			e2 := New(0)
			e2.SetPersist(openPersist(t, mem))
			warm, cached := mustRunCached(e2, cfg, bench)
			if !cached {
				t.Fatal("warm run after restart not served as a cache hit")
			}
			if !reflect.DeepEqual(*cold, *warm) {
				t.Fatal("persisted result diverges from simulated result")
			}
			cb, _ := json.Marshal(cold)
			wb, _ := json.Marshal(warm)
			if !bytes.Equal(cb, wb) {
				t.Fatal("persisted result not byte-identical under JSON")
			}
			st := e2.Stats()
			if st.PersistHits != 1 || st.Hits != 1 || st.Misses != 0 {
				t.Fatalf("warm stats = hits %d, misses %d, persistHits %d; want 1/0/1",
					st.Hits, st.Misses, st.PersistHits)
			}
		})
	}
}

// TestPersistDegradedNeverFailsRequests pins the degraded-mode contract:
// with the disk refusing every operation, requests still succeed with
// bit-identical results; the store just reports degraded.
func TestPersistDegradedNeverFailsRequests(t *testing.T) {
	bench := prog(t, "li")
	cfg := sim.Default(quickDRI(), quickInstrs)
	want := sim.Run(cfg, bench)

	ffs := persist.NewFaultFS(persist.NewMemFS())
	ffs.SetErr(persist.ErrInjected)
	p, err := persist.Open(persist.Config{
		Dir: "/persist", FS: ffs, FailureThreshold: 1, Log: quietLog(),
	})
	if err != nil {
		t.Fatalf("persist.Open: %v", err)
	}
	defer p.Close(context.Background())
	if p.Health().Status != "degraded" {
		t.Fatalf("store on a dead disk should be degraded: %+v", p.Health())
	}

	e := New(0)
	e.SetPersist(p)
	res, cached, err := e.RunCachedCtx(context.Background(), cfg, bench)
	if err != nil {
		t.Fatalf("run with degraded persistence failed: %v", err)
	}
	if cached {
		t.Fatal("degraded persistence cannot have served a hit")
	}
	if !reflect.DeepEqual(*res, want) {
		t.Fatal("result with degraded persistence diverges from plain run")
	}
}

// TestPersistCorruptArtifactRecomputes corrupts a persisted result on
// "disk" and verifies the restarted engine quarantines it and recomputes —
// same bits, one extra simulation, zero errors.
func TestPersistCorruptArtifactRecomputes(t *testing.T) {
	bench := prog(t, "compress")
	cfg := sim.Default(quickDRI(), quickInstrs)
	key := KeyFor(cfg, bench)
	mem := persist.NewMemFS()

	e1 := New(0)
	e1.SetPersist(openPersist(t, mem))
	cold := e1.Run(cfg, bench)
	flushPersist(t, e1.persistStore())

	path := "/persist/results/" + string(key) + ".art"
	if err := mem.Corrupt(path, []byte("rotten")); err != nil {
		t.Fatalf("Corrupt: %v", err)
	}

	p2 := openPersist(t, mem)
	e2 := New(0)
	e2.SetPersist(p2)
	warm, cached := mustRunCached(e2, cfg, bench)
	if cached {
		t.Fatal("corrupt artifact was served as a hit")
	}
	if !reflect.DeepEqual(cold, *warm) {
		t.Fatal("recomputed result diverges")
	}
	if st := p2.Stats(); st.Quarantined != 1 {
		t.Fatalf("Quarantined = %d, want 1 (scan or load must sideline the corpse)", st.Quarantined)
	}
	if h := p2.Health(); h.Status != "ok" {
		t.Fatalf("corruption degraded the store: %+v", h)
	}
}

// TestRunManyPersistWarm drives the batch path: a persisted sweep re-runs
// with zero simulations (every claim settles from disk, including the case
// where every lane group empties), and a partially persisted sweep
// simulates exactly the missing points.
func TestRunManyPersistWarm(t *testing.T) {
	mem := persist.NewMemFS()
	var executions atomic.Int64
	newEng := func() *Engine {
		e := countingEngine(4, 0, &executions)
		e.SetPersist(openPersist(t, mem))
		return e
	}
	applu, li := prog(t, "applu"), prog(t, "li")
	var reqs []Request
	for i := 0; i < 5; i++ {
		reqs = append(reqs, Request{Config: cfgAt(i), Prog: applu})
		reqs = append(reqs, Request{Config: cfgAt(i), Prog: li})
	}

	e1 := newEng()
	cold := mustRunMany(e1, reqs)
	if got := executions.Load(); got != 10 {
		t.Fatalf("cold sweep executed %d, want 10", got)
	}
	flushPersist(t, e1.persistStore())

	// Full warm restart: zero executions, all ten from disk.
	e2 := newEng()
	warm := mustRunMany(e2, reqs)
	if got := executions.Load(); got != 10 {
		t.Fatalf("warm sweep executed %d more simulations, want 0", got-10)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Fatal("warm sweep results diverge")
	}
	st := e2.Stats()
	if st.PersistHits != 10 || st.Misses != 0 {
		t.Fatalf("warm stats = persistHits %d, misses %d; want 10/0", st.PersistHits, st.Misses)
	}
	if st.Lanes.Batches != 0 || st.Lanes.Groups != 0 {
		t.Fatalf("warm sweep formed batches: %+v", st.Lanes)
	}

	// Partial warm: remove one artifact; exactly one simulation runs.
	key := KeyFor(cfgAt(3), li)
	if err := mem.Remove("/persist/results/" + string(key) + ".art"); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	e3 := newEng()
	partial := mustRunMany(e3, reqs)
	if got := executions.Load(); got != 11 {
		t.Fatalf("partial warm executed %d more, want 1", got-10)
	}
	if !reflect.DeepEqual(cold, partial) {
		t.Fatal("partial warm results diverge")
	}
	if st := e3.Stats(); st.PersistHits != 9 || st.Misses != 1 {
		t.Fatalf("partial stats = persistHits %d, misses %d; want 9/1", st.PersistHits, st.Misses)
	}
}

// TestPersistDetachedIsInert pins SetPersist(nil): no disk traffic, no
// behavior change.
func TestPersistDetachedIsInert(t *testing.T) {
	var executions atomic.Int64
	e := countingEngine(2, 0, &executions)
	e.SetPersist(nil)
	for i := 0; i < 3; i++ {
		e.Run(cfgAt(i), prog(t, "applu"))
	}
	if got := executions.Load(); got != 3 {
		t.Fatalf("executed %d, want 3", got)
	}
	if st := e.Stats(); st.PersistHits != 0 {
		t.Fatalf("PersistHits = %d without a persist layer", st.PersistHits)
	}
}

// TestPersistEvictedFromMemoryServedFromDisk: with a tiny in-memory cache
// limit, evicted entries come back from disk as persist hits rather than
// re-simulating.
func TestPersistEvictedFromMemoryServedFromDisk(t *testing.T) {
	mem := persist.NewMemFS()
	var executions atomic.Int64
	e := countingEngine(2, 0, &executions)
	e.SetPersist(openPersist(t, mem))
	e.SetCacheLimit(1)
	bench := prog(t, "applu")
	for i := 0; i < 4; i++ {
		e.Run(cfgAt(i), bench)
	}
	flushPersist(t, e.persistStore())
	// cfgAt(0) was evicted from memory long ago; the disk still has it.
	_, cached := mustRunCached(e, cfgAt(0), bench)
	if !cached {
		t.Fatal("evicted entry not served from disk")
	}
	if got := executions.Load(); got != 4 {
		t.Fatalf("executed %d, want 4 (no re-simulation)", got)
	}
	if st := e.Stats(); st.PersistHits != 1 {
		t.Fatalf("PersistHits = %d, want 1", st.PersistHits)
	}
}
