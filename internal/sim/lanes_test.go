package sim

import (
	"reflect"
	"testing"

	"dricache/internal/dri"
	"dricache/internal/policy"
	"dricache/internal/trace"
)

// laneMixConfigs is the lane-executor property mix: every leakage-control
// regime (conventional, DRI, decay, drowsy, way-gating, way memoization)
// plus L1+L2 variants sharing one instruction budget, so a single RunLanes
// pass exercises every policy engine and both cache levels side by side.
// The waymemo lane appears twice: identical lanes must produce identical
// results (each lane owns its hierarchy and link table — no cross-lane
// memoization state).
func laneMixConfigs(n uint64) []Config {
	const iv = 50_000
	conv4 := Conventional64K()
	conv4.Assoc = 4
	memoSmall := policy.DefaultWayMemo(iv)
	memoSmall.MemoTableEntries = 64
	return []Config{
		Default(Conventional64K(), n),
		Default(DRI64K(dri.DefaultParams(iv)), n),
		Default(DRI64K(dri.DefaultParams(iv)), n).WithL2(DRIL2(l2Params(2000, 64<<10))),
		Default(Conventional64K(), n).WithL1IPolicy(policy.DefaultDecay(iv)),
		Default(conv4, n).WithL1IPolicy(policy.DefaultDrowsy(iv)),
		Default(conv4, n).WithL1IPolicy(policy.DefaultWayGate(iv)),
		Default(Conventional64K(), n).WithL2Policy(policy.DefaultDecay(iv)),
		Default(conv4, n).WithL1IPolicy(policy.DefaultWayMemo(iv)),
		Default(conv4, n).WithL1IPolicy(policy.DefaultWayMemo(iv)),
		Default(conv4, n).WithL1IPolicy(memoSmall).WithL2Policy(policy.DefaultWayMemo(iv)),
	}
}

// TestRunLanesMatchesSequential is the lane executor's acceptance property:
// over every benchmark, a mixed-configuration RunLanes pass produces
// Results byte-identical to running each configuration alone.
func TestRunLanesMatchesSequential(t *testing.T) {
	benches := trace.Benchmarks()
	if testing.Short() {
		benches = benches[:3]
	}
	const n = 300_000
	cfgs := laneMixConfigs(n)
	for i, c := range cfgs {
		if err := c.Mem.Check(); err != nil {
			t.Fatalf("config %d invalid: %v", i, err)
		}
	}
	for _, b := range benches {
		t.Run(b.Name, func(t *testing.T) {
			seq := make([]Result, len(cfgs))
			for i, c := range cfgs {
				seq[i] = Run(c, b)
			}
			got := RunLanes(cfgs, b)
			if len(got) != len(cfgs) {
				t.Fatalf("len(got) = %d, want %d", len(got), len(cfgs))
			}
			for i := range cfgs {
				if !reflect.DeepEqual(got[i], seq[i]) {
					t.Errorf("lane %d diverges from its sequential run:\n  lane %+v\n  solo %+v",
						i, got[i], seq[i])
				}
			}
		})
	}
}

// TestRunLanesStoreBypassFallback checks the store-bypass path: when the
// trace store cannot hold the stream, RunLanes runs every configuration
// over one shared generator pass — one batch, counted as fallbacks, with
// len(cfgs)−1 stream passes saved — and still matches per-config runs.
func TestRunLanesStoreBypassFallback(t *testing.T) {
	st := trace.SharedStore()
	st.SetBudget(0)
	defer st.SetBudget(trace.DefaultStoreBudget)

	p := applu(t)
	const n = 100_000
	cfgs := laneMixConfigs(n)[:3]
	before := ReadLaneStats()
	got := RunLanes(cfgs, p)
	after := ReadLaneStats()
	if after.Fallbacks != before.Fallbacks+uint64(len(cfgs)) {
		t.Errorf("fallbacks advanced by %d, want %d",
			after.Fallbacks-before.Fallbacks, len(cfgs))
	}
	if after.Batches != before.Batches+1 {
		t.Errorf("batches advanced by %d on the bypass path, want 1", after.Batches-before.Batches)
	}
	if after.Lanes != before.Lanes+uint64(len(cfgs)) {
		t.Errorf("lanes advanced by %d, want %d", after.Lanes-before.Lanes, len(cfgs))
	}
	if saved := after.DecodeSaved - before.DecodeSaved; saved != uint64(len(cfgs)-1) {
		t.Errorf("DecodeSaved advanced by %d, want %d generator passes saved", saved, len(cfgs)-1)
	}
	for i, c := range cfgs {
		if want := Run(c, p); !reflect.DeepEqual(got[i], want) {
			t.Errorf("bypass lane %d diverges from sequential run", i)
		}
	}
}

// TestRunLanesCounters checks the shared-decode counters: one multi-lane
// pass is one batch carrying len(cfgs) lanes.
func TestRunLanesCounters(t *testing.T) {
	p := fpppp(t)
	const n = 100_000
	cfgs := laneMixConfigs(n)[:3]
	before := ReadLaneStats()
	RunLanes(cfgs, p)
	after := ReadLaneStats()
	if after.Batches != before.Batches+1 {
		t.Errorf("batches advanced by %d, want 1", after.Batches-before.Batches)
	}
	if after.Lanes != before.Lanes+uint64(len(cfgs)) {
		t.Errorf("lanes advanced by %d, want %d", after.Lanes-before.Lanes, len(cfgs))
	}
	if after.DecodeSaved != after.Lanes-after.Batches {
		t.Errorf("DecodeSaved = %d, want Lanes-Batches = %d",
			after.DecodeSaved, after.Lanes-after.Batches)
	}
}

// TestRunLanesSingleAndEmpty pins the degenerate shapes: zero lanes return
// an empty slice, one lane equals Run.
func TestRunLanesSingleAndEmpty(t *testing.T) {
	p := applu(t)
	if got := RunLanes(nil, p); len(got) != 0 {
		t.Fatalf("RunLanes(nil) returned %d results", len(got))
	}
	cfg := Default(Conventional64K(), 50_000)
	got := RunLanes([]Config{cfg}, p)
	if want := Run(cfg, p); !reflect.DeepEqual(got[0], want) {
		t.Fatal("single-lane RunLanes diverges from Run")
	}
}

// TestRunLanesBudgetMismatchPanics: lanes share one decoded stream, so one
// common instruction budget is a hard precondition.
func TestRunLanesBudgetMismatchPanics(t *testing.T) {
	p := applu(t)
	defer func() {
		if recover() == nil {
			t.Fatal("mixed budgets did not panic")
		}
	}()
	RunLanes([]Config{
		Default(Conventional64K(), 1000),
		Default(Conventional64K(), 2000),
	}, p)
}
