package cpu

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"dricache/internal/bpred"
	"dricache/internal/dri"
	"dricache/internal/isa"
	"dricache/internal/mem"
	"dricache/internal/timeline"
	"dricache/internal/trace"
)

// classOutcome is everything a class member's run leaves behind.
type classOutcome struct {
	Res       Result
	ICache    dri.Stats
	Events    []dri.ResizeEvent
	Residency map[int]uint64
	Active    float64
	Mem       mem.Stats
	L2        dri.DataStats
	Series    *timeline.Series
}

func outcomeOf(res Result, h *mem.Hierarchy, j int, rec *timeline.Recorder) classOutcome {
	ic := h.ICache()
	return classOutcome{
		Res: res, ICache: ic.MemberStats(j), Events: ic.Events(), Residency: ic.SizeResidency(),
		Active: ic.AverageActiveFraction(), Mem: h.Stats(), L2: h.L2().DataStats(), Series: rec.Series(),
	}
}

// classGrid is a small Figure 3 grid over a DRI i-cache with the given
// sense interval and miss-bounds.
func classGrid(interval uint64, missBounds ...uint64) []mem.Config {
	var out []mem.Config
	for _, mb := range missBounds {
		for _, sb := range []int{1 << 10, 4 << 10, 16 << 10, 64 << 10} {
			_, l1i := l1iConfigs()
			l1i.Params.SenseInterval = interval
			l1i.Params.MissBound, l1i.Params.SizeBoundBytes = mb, sb
			out = append(out, mem.DefaultConfig(l1i))
		}
	}
	return out
}

func classRecorder(timed bool) *timeline.Recorder {
	if !timed {
		return nil
	}
	return timeline.NewRecorder(timeline.Config{Enabled: true, IntervalInstructions: 7000}, 0, timeline.EnergyRates{})
}

// TestClassForkMatchesLanes pins the class executor to one lane per
// configuration at the cpu level: a grid run as one lane class — forking
// wherever its members' decisions diverge — must leave every member the
// Result, i-cache statistics, resize log, size residency, hierarchy
// statistics and timeline series of its own lane. Both stage placements
// run over a replay cursor and over the generator's chunk source; a sense
// interval shorter than the tick batch makes one Advance end several
// intervals, so a resumed partition can split again.
func TestClassForkMatchesLanes(t *testing.T) {
	const n = 200_000
	prog, err := trace.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	rep, exact := isa.RecordStream(prog.Stream(n), n)
	if !exact {
		t.Fatal("recording inexact")
	}
	sources := []struct {
		name string
		open func() isa.ChunkSource
	}{
		{"replay", func() isa.ChunkSource { cur := rep.Cursor(); return &cur }},
		{"generator", func() isa.ChunkSource { return isa.Chunked(prog.Stream(n)) }},
	}
	for _, grid := range [][]mem.Config{classGrid(10_000, 20, 100, 400), classGrid(20, 1, 2, 4)} {
		interval := grid[0].L1I.Params.SenseInterval
		for _, timed := range []bool{false, true} {
			for _, src := range sources {
				for _, ahead := range []bool{false, true} {
					name := fmt.Sprintf("interval=%d/timeline=%v/%s/ahead=%v", interval, timed, src.name, ahead)
					t.Run(name, func(t *testing.T) {
						checkClassFork(t, grid, timed, src.open, ahead)
					})
				}
			}
		}
	}
}

func checkClassFork(t *testing.T, grid []mem.Config, timed bool, open func() isa.ChunkSource, ahead bool) {
	bp := bpred.New(bpred.DefaultConfig())
	pipes := make([]*Pipeline, len(grid))
	recs := make([]*timeline.Recorder, len(grid))
	for i, mc := range grid {
		h := mem.New(mc)
		pipes[i] = New(DefaultConfig(), h, h, bp, h)
		recs[i] = classRecorder(timed)
		pipes[i].SetTimeline(recs[i])
	}
	res, hs, err := runLanes(context.Background(), open(), pipes, ahead)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]classOutcome, len(grid))
	for i, h := range hs {
		h.Finish(res[i].Cycles)
		want[i] = outcomeOf(res[i], h, 0, recs[i])
	}

	h := mem.New(grid[0])
	members := make([]int, len(grid))
	for i := range members {
		members[i] = i
	}
	h.SetClass(grid, members)
	crecs := make([]*timeline.Recorder, len(grid))
	for i := range crecs {
		crecs[i] = classRecorder(timed)
	}
	p := New(DefaultConfig(), h, h, bpred.New(bpred.DefaultConfig()), h)
	p.SetTimeline(crecs...)
	res, hs, err = runLanes(context.Background(), open(), []*Pipeline{p}, ahead)
	if err != nil {
		t.Fatal(err)
	}
	seen := make([]bool, len(grid))
	for l, h := range hs {
		h.Finish(res[l].Cycles)
		for j, m := range h.ICache().Members() {
			if seen[m.ID] {
				t.Fatalf("member %d is in two lanes", m.ID)
			}
			seen[m.ID] = true
			if got := outcomeOf(res[l], h, j, crecs[m.ID]); !reflect.DeepEqual(got, want[m.ID]) {
				t.Fatalf("member %d (%+v) diverged from its own lane:\n  class %+v\n  lane  %+v",
					m.ID, grid[m.ID].L1I.Params, got, want[m.ID])
			}
		}
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("member %d is in no lane", i)
		}
	}
	if len(hs) == 1 {
		t.Fatal("the class never forked")
	}
}

// TestClassCancelAfterFork cancels a class pass just after sense-interval
// boundaries where the class forks: the pass still settles within one chunk
// of the cancellation on one P (within the stream stage's ring ahead of it
// on two), every lane — forks included — stops there, and every lane's
// hierarchy comes back for the caller to release.
func TestClassCancelAfterFork(t *testing.T) {
	rep := recordBench(t, "gcc", 100_000)
	grid := classGrid(10_000, 20, 100, 400)
	members := make([]int, len(grid))
	for i := range members {
		members[i] = i
	}
	forked := false
	for _, ahead := range []bool{false, true} {
		for k := uint64(1); k <= 5; k++ {
			cancelAt := k*10_000 + 100
			h := mem.New(grid[0])
			h.SetClass(grid, members)
			p := New(DefaultConfig(), h, h, bpred.New(bpred.DefaultConfig()), h)
			ctx, cancel := context.WithCancel(context.Background())
			cur := rep.Cursor()
			out, hs, err := runLanes(ctx, isa.Chunked(&cancellingStream{s: &cur, after: cancelAt, cancel: cancel}), []*Pipeline{p}, ahead)
			cancel()
			if !errors.Is(err, ErrAborted) {
				t.Fatalf("ahead=%v cancel at %d: error %v does not wrap ErrAborted", ahead, cancelAt, err)
			}
			if len(hs) != len(out) || hs[0] != h {
				t.Fatalf("ahead=%v cancel at %d: %d hierarchies for %d lanes", ahead, cancelAt, len(hs), len(out))
			}
			forked = forked || len(hs) > 1
			limit := cancelAt + laneChunk
			if ahead {
				limit = cancelAt + ringSlots*slotChunks*laneChunk
			}
			for l, r := range out {
				if r.Instructions > limit || (!ahead && r.Instructions < cancelAt) {
					t.Fatalf("ahead=%v cancel at %d: lane %d stopped at %d", ahead, cancelAt, l, r.Instructions)
				}
			}
		}
	}
	if !forked {
		t.Fatal("no cancelled pass had forked")
	}
}
