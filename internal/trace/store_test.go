package trace

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"

	"dricache/internal/isa"
)

// TestReplayMatchesGeneratorAllBenchmarks is the tentpole property test:
// for every one of the fifteen benchmarks, at several instruction budgets,
// the store's replayed stream is instruction-for-instruction identical to
// the generator stream — the invariant that keeps every golden regression
// suite bit-identical under replay.
func TestReplayMatchesGeneratorAllBenchmarks(t *testing.T) {
	lengths := []uint64{1, 1000, 12_345, 63_000}
	store := NewStore(DefaultStoreBudget)
	for _, prog := range Benchmarks() {
		for _, n := range lengths {
			gen := prog.Stream(n)
			replay := store.Stream(prog, n)
			if _, ok := replay.(*isa.ReplayCursor); !ok {
				t.Fatalf("%s/%d: store did not return a replay cursor (%T)", prog.Name, n, replay)
			}
			var gi, ri isa.Instr
			var i uint64
			for {
				gok := gen.Next(&gi)
				rok := replay.Next(&ri)
				if gok != rok {
					t.Fatalf("%s/%d: stream lengths diverge at %d (generator %v, replay %v)",
						prog.Name, n, i, gok, rok)
				}
				if !gok {
					break
				}
				if gi != ri {
					t.Fatalf("%s/%d: instruction %d diverges:\n  generator %+v\n  replay    %+v",
						prog.Name, n, i, gi, ri)
				}
				i++
			}
			if i != n {
				t.Fatalf("%s/%d: replayed %d instructions", prog.Name, n, i)
			}
		}
	}
	st := store.Stats()
	if st.Hits != 0 || st.Misses != uint64(len(Benchmarks())*len(lengths)) || st.Bypasses != 0 {
		t.Fatalf("unexpected counters after distinct requests: %+v", st)
	}
}

// TestStoreHitReturnsSameRecording verifies record-once semantics and hit
// accounting.
func TestStoreHitReturnsSameRecording(t *testing.T) {
	prog, err := ByName("applu")
	if err != nil {
		t.Fatal(err)
	}
	store := NewStore(DefaultStoreBudget)
	r1 := store.Replay(prog, 10_000)
	r2 := store.Replay(prog, 10_000)
	if r1 == nil || r1 != r2 {
		t.Fatalf("repeat request did not return the shared recording (%p vs %p)", r1, r2)
	}
	if st := store.Stats(); st.Misses != 1 || st.Hits != 1 || st.Entries != 1 ||
		st.Bytes != int64(r1.Bytes()) {
		t.Fatalf("counters after one miss + one hit: %+v", st)
	}
	if r3 := store.Replay(prog, 20_000); r3 == r1 {
		t.Fatal("different budget returned the same recording")
	}
}

// TestStoreBypassAndBudget verifies the too-large bypass, LRU eviction, and
// budget changes.
func TestStoreBypassAndBudget(t *testing.T) {
	prog, err := ByName("compress")
	if err != nil {
		t.Fatal(err)
	}
	tiny := NewStore(64) // 64 bytes: everything real bypasses
	if s := tiny.Stream(prog, 10_000); s == nil {
		t.Fatal("bypass returned nil stream")
	} else if _, ok := s.(*isa.ReplayCursor); ok {
		t.Fatal("bypass returned a replay cursor")
	}
	if st := tiny.Stats(); st.Bypasses != 1 || st.Misses != 0 {
		t.Fatalf("counters after bypass: %+v", st)
	}

	store := NewStore(DefaultStoreBudget)
	benches := Benchmarks()[:3]
	var sizes []int64
	for _, b := range benches {
		sizes = append(sizes, int64(store.Replay(b, 20_000).Bytes()))
	}
	// Shrink the budget to hold only the most recent recording.
	store.SetBudget(sizes[2])
	st := store.Stats()
	if st.Entries != 1 || st.Evictions != 2 || st.Bytes != sizes[2] {
		t.Fatalf("counters after shrink-to-one: %+v", st)
	}
	// The survivor must be the most recently used one.
	preMiss := st.Misses
	store.Replay(benches[2], 20_000)
	if st := store.Stats(); st.Misses != preMiss {
		t.Fatalf("most-recent entry was evicted: %+v", st)
	}

	store.Reset()
	if st := store.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("counters after Reset: %+v", st)
	}

	disabled := NewStore(0)
	if _, ok := disabled.Stream(prog, 100).(*isa.ReplayCursor); ok {
		t.Fatal("budget 0 store still recorded")
	}
}

// TestStoreInvalidProgramPanics matches Program.Stream's contract.
func TestStoreInvalidProgramPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Stream of an invalid program did not panic")
		}
	}()
	NewStore(1<<20).Stream(Program{}, 100)
}

// TestStoreConcurrent is the race test: many goroutines hammer a small
// store with overlapping requests (same stream, distinct streams, budget
// changes) while a tight budget forces evictions. Run with -race.
func TestStoreConcurrent(t *testing.T) {
	benches := Benchmarks()[:4]
	const n = 5_000
	// Reference streams for verification.
	want := make([][]isa.Instr, len(benches))
	for i, b := range benches {
		s := b.Stream(n)
		var ins isa.Instr
		for s.Next(&ins) {
			want[i] = append(want[i], ins)
		}
	}

	// Start with room for all four recordings (admission gates on
	// budget/4, so the budget must be comfortably above one estimated
	// stream); the mid-test shrink below then forces concurrent evictions
	// and post-shrink bypasses.
	probe := NewStore(DefaultStoreBudget)
	budget := 8 * int64(probe.Replay(benches[0], n).Bytes())
	store := NewStore(budget)

	var wg sync.WaitGroup
	errc := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var ins isa.Instr
			for iter := 0; iter < 6; iter++ {
				bi := (g + iter) % len(benches)
				s := store.Stream(benches[bi], n)
				for i := 0; s.Next(&ins); i++ {
					if ins != want[bi][i] {
						errc <- errString("replayed stream diverged under concurrency")
						return
					}
				}
				if iter == 3 && g == 0 {
					store.SetBudget(budget / 4)
				}
				store.Stats()
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if st := store.Stats(); st.Hits+st.Misses+st.Bypasses != 8*6 {
		t.Fatalf("request accounting leaked: %+v", st)
	}
}

type errString string

func (e errString) Error() string { return string(e) }

// TestSharedStoreStreamFor pins the package-level entry point sim.Run uses.
func TestSharedStoreStreamFor(t *testing.T) {
	prog, err := ByName("li")
	if err != nil {
		t.Fatal(err)
	}
	before := SharedStore().Stats()
	s := StreamFor(prog, 2_000)
	gen := prog.Stream(2_000)
	var gi, ri isa.Instr
	for gen.Next(&gi) {
		if !s.Next(&ri) || gi != ri {
			t.Fatal("StreamFor diverged from the generator")
		}
	}
	if after := SharedStore().Stats(); after.Hits+after.Misses+after.Bypasses ==
		before.Hits+before.Misses+before.Bypasses {
		t.Fatal("StreamFor did not touch the shared store")
	}
}

// gateCtx is a context that reports nothing until release is closed and
// then blocks its first Err call there: a recording under it stalls at its
// first context check until the test releases it as cancelled.
type gateCtx struct {
	context.Context
	release chan struct{}
}

func (c gateCtx) Done() <-chan struct{} { return c.release }

func (c gateCtx) Err() error {
	<-c.release
	return context.Canceled
}

// TestStoreCancelledRecording: a recording whose context is cancelled is
// abandoned — the store keeps no entry — and a request already waiting on
// it with a live context records the stream itself, bit-identical to the
// generator's; a later Replay is served that recording.
func TestStoreCancelledRecording(t *testing.T) {
	prog, err := ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	const n = 50_000
	want, _ := isa.RecordStream(prog.Stream(n), n)
	store := NewStore(DefaultStoreBudget)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if rep, err := store.ReplayCtx(ctx, prog, n); rep != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled recording returned (%v, %v), want (nil, context.Canceled)", rep, err)
	}
	if st := store.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("cancelled recording left an entry: %+v", st)
	}

	gate := gateCtx{Context: context.Background(), release: make(chan struct{})}
	claimed := make(chan error, 1)
	before := store.Stats()
	go func() {
		_, err := store.ReplayCtx(gate, prog, n)
		claimed <- err
	}()
	waited := make(chan *isa.Replay, 1)
	for store.Stats().Misses == before.Misses {
		runtime.Gosched() // until the gated request claims the recording
	}
	go func() { waited <- store.Replay(prog, n) }()
	for store.Stats().Hits == before.Hits {
		runtime.Gosched() // until the live request waits on it
	}
	close(gate.release)
	if err := <-claimed; !errors.Is(err, context.Canceled) {
		t.Fatalf("gated recording returned %v, want context.Canceled", err)
	}
	got := <-waited
	if got == nil || !bytes.Equal(got.MarshalBinary(), want.MarshalBinary()) {
		t.Fatal("the waiter's own recording differs from the generator's")
	}
	if again := store.Replay(prog, n); again != got {
		t.Fatal("a later Replay was not served the waiter's recording")
	}
	if st := store.Stats(); st.Entries != 1 {
		t.Fatalf("entries = %d after the re-claimed recording, want 1", st.Entries)
	}
}
