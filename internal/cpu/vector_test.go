package cpu

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"dricache/internal/bpred"
	"dricache/internal/isa"
	"dricache/internal/mem"
	"dricache/internal/timeline"
	"dricache/internal/trace"
)

// mixSpec is lane i of the width-mix test. Its core configuration,
// predictor and L1D geometry each take one of two values on their own
// cycle, so a pass of several lanes holds several vectors; its L1 i-cache
// cycles through conventional, resizing, way-memoized, a DRI lane class
// and resizing under a timeline recorder.
type mixSpec struct {
	i     int
	cfg   Config
	bc    bpred.Config
	mc    mem.Config
	class bool
	timed bool
}

func mixSpecOf(i int) mixSpec {
	conv, resizing := l1iConfigs()
	sp := mixSpec{i: i, cfg: DefaultConfig(), bc: bpred.DefaultConfig()}
	if i%2 == 1 {
		sp.cfg.FetchWidth, sp.cfg.ROBSize, sp.cfg.LSQSize = 4, 64, 32
		sp.cfg.MemPorts, sp.cfg.TickBatch = 1, 48
	}
	if i/2%2 == 1 {
		sp.bc.BTBEntries, sp.bc.HistoryBits = 256, 8
	}
	switch i % 5 {
	case 0:
		// Smaller than the others, so its timing differs from theirs from
		// the start and a fork that copied the wrong column would show.
		conv.SizeBytes = 16 << 10
		sp.mc = mem.DefaultConfig(conv)
	case 1:
		sp.mc = mem.DefaultConfig(resizing)
	case 2:
		sp.mc = wayMemoConfig(true)
	case 3:
		sp.mc, sp.class = classGrid(5_000, 20)[0], true
	case 4:
		sp.mc = mem.DefaultConfig(resizing)
		sp.timed = true
	}
	if i/3%2 == 1 {
		sp.mc.L1D = mem.L1DConfig{Name: "L1D", SizeBytes: 4 << 10, BlockBytes: 32, Assoc: 4}
	}
	return sp
}

// pipe builds the lane's pipeline over a fresh hierarchy. A class lane's
// members are labelled from 100*i, so the forks of two class lanes in one
// pass stay apart.
func (sp mixSpec) pipe() (*Pipeline, *mem.Hierarchy, *timeline.Recorder) {
	var h *mem.Hierarchy
	if sp.class {
		grid := classGrid(5_000, 20, 100, 400)
		cfgs := make([]mem.Config, 100*sp.i+len(grid))
		members := make([]int, len(grid))
		for m, c := range grid {
			c.L1D = sp.mc.L1D
			cfgs[100*sp.i+m], members[m] = c, 100*sp.i+m
		}
		h = mem.New(cfgs[members[0]])
		h.SetClass(cfgs, members)
	} else {
		h = mem.New(sp.mc)
	}
	p := New(sp.cfg, h, h, bpred.New(sp.bc), h)
	var rec *timeline.Recorder
	if sp.timed {
		rec = timeline.NewRecorder(timeline.Config{Enabled: true, IntervalInstructions: 3000}, 0, timeline.EnergyRates{})
		p.SetTimeline(rec)
	}
	return p, h, rec
}

// mixOutcome is what a lane's caller sees of one lane or class member.
type mixOutcome struct {
	Res    Result
	Mem    mem.Stats
	Series *timeline.Series
}

// runMix runs specs as one pass and returns each lane's outcome: by lane
// for a lane without a class, by member ID for each member of a class,
// forks included. It also returns the number of forks.
func runMix(t *testing.T, specs []mixSpec, src isa.ChunkSource, ahead bool) (map[string]mixOutcome, int) {
	t.Helper()
	pipes := make([]*Pipeline, len(specs))
	recs := make([]*timeline.Recorder, len(specs))
	for k, sp := range specs {
		pipes[k], _, recs[k] = sp.pipe()
	}
	res, hs, err := runLanes(context.Background(), src, pipes, ahead)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]mixOutcome)
	for l, h := range hs {
		h.Finish(res[l].Cycles)
		o := mixOutcome{Res: res[l], Mem: h.Stats()}
		if l < len(specs) && !specs[l].class {
			if recs[l] != nil {
				o.Series = recs[l].Series()
			}
			out[fmt.Sprintf("lane %d", specs[l].i)] = o
			continue
		}
		for _, m := range h.ICache().Members() {
			out[fmt.Sprintf("member %d", m.ID)] = o
		}
	}
	return out, len(hs) - len(pipes)
}

// TestVectorWidthMix pins the vector lane stage to solo runs across pass
// widths: passes of 1, 2, 3, 5, 8 and 13 lanes mix two core
// configurations, two predictor configurations and two L1D geometries, so
// one pass steps several vectors, and include a way-memo lane, a timeline
// lane and a DRI class that forks. Every lane's Result, mem.Stats and
// timeline series — and every class member's, forks included — must equal
// its own one-lane pass, with both stage placements, over a replay cursor
// and over the generator's chunk source.
func TestVectorWidthMix(t *testing.T) {
	const n = 60_000
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
	for _, src := range sources {
		for _, ahead := range []bool{false, true} {
			solo := make(map[string]mixOutcome)
			soloForks := 0
			for i := range 13 {
				got, forks := runMix(t, []mixSpec{mixSpecOf(i)}, src.open(), ahead)
				for k, o := range got {
					solo[k] = o
				}
				soloForks = max(soloForks, forks)
			}
			if soloForks < 2 {
				t.Fatalf("%s/ahead=%v: the class forked %d times alone, want at least 2", src.name, ahead, soloForks)
			}
			for _, width := range []int{1, 2, 3, 5, 8, 13} {
				name := fmt.Sprintf("%s/ahead=%v/%d lanes", src.name, ahead, width)
				specs := make([]mixSpec, width)
				keys := make(map[vectorKey]bool)
				for i := range specs {
					specs[i] = mixSpecOf(i)
					keys[vectorKey{cfg: specs[i].cfg}] = true
				}
				got, _ := runMix(t, specs, src.open(), ahead)
				if width > 1 && len(keys) < 2 {
					t.Fatalf("%s: one core configuration in the pass", name)
				}
				for k, o := range got {
					if o.Res.Instructions != n {
						t.Fatalf("%s: %s ran %d instructions, want %d", name, k, o.Res.Instructions, n)
					}
					if want, ok := solo[k]; !ok || !reflect.DeepEqual(o, want) {
						t.Fatalf("%s: %s diverged from its solo pass:\n  pass %+v\n  solo %+v", name, k, o, want)
					}
				}
			}
		}
	}
}
