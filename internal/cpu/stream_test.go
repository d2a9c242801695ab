package cpu

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"dricache/internal/bpred"
	"dricache/internal/dri"
	"dricache/internal/isa"
	"dricache/internal/mem"
	"dricache/internal/policy"
	"dricache/internal/timeline"
	"dricache/internal/trace"
)

// stageLane is one lane of the stage property test: variant v picks a
// conventional or resizing L1 i-cache, way memoization, a small or default
// predictor (separate predictor groups), and whether a timeline recorder
// samples the lane.
type stageLane struct {
	h   *mem.Hierarchy
	p   *Pipeline
	rec *timeline.Recorder
}

func newStageLane(v int) stageLane {
	conv, resizing := l1iConfigs()
	var mc mem.Config
	switch v % 3 {
	case 0:
		mc = mem.DefaultConfig(conv)
	case 1:
		mc = mem.DefaultConfig(resizing)
	default:
		mc = wayMemoConfig(true)
	}
	bc := bpred.DefaultConfig()
	if v%2 == 1 {
		bc.BTBEntries = 256
		bc.HistoryBits = 8
	}
	h := mem.New(mc)
	p := New(DefaultConfig(), h, h, bpred.New(bc), h)
	var rec *timeline.Recorder
	if v%4 == 2 {
		rec = timeline.NewRecorder(timeline.Config{Enabled: true, IntervalInstructions: 3000}, 0, timeline.EnergyRates{})
		p.SetTimeline(rec)
	}
	return stageLane{h: h, p: p, rec: rec}
}

// stageOutcome is everything a pass produces that a lane's caller can see.
type stageOutcome struct {
	res    []Result
	mem    []mem.Stats
	series []*timeline.Series
}

func runStages(src isa.ChunkSource, lanes, variant int, ahead bool) stageOutcome {
	ls := make([]stageLane, lanes)
	pipes := make([]*Pipeline, lanes)
	for i := range ls {
		ls[i] = newStageLane(variant + i)
		pipes[i] = ls[i].p
	}
	res, _, err := runLanes(context.Background(), src, pipes, ahead)
	if err != nil {
		panic(err)
	}
	o := stageOutcome{res: res}
	for i, l := range ls {
		l.h.Finish(res[i].Cycles)
		o.mem = append(o.mem, l.h.Stats())
		var s *timeline.Series
		if l.rec != nil {
			s = l.rec.Series()
		}
		o.series = append(o.series, s)
	}
	return o
}

// TestRunLanesStagesBitIdentical pins the read-ahead pass — the stream
// stage on its own goroutine, handing the lanes ring slots — to the one-P
// pass that runs both stages in turn: on every benchmark, for 1, 2 and 13
// lanes mixing predictor groups, resizing, way memoization and timeline
// recorders, over both a replay cursor and the generator's own chunk
// source. The streams span several ring slots, so the ring wraps.
func TestRunLanesStagesBitIdentical(t *testing.T) {
	const n = 20_000
	for b, prog := range trace.Benchmarks() {
		rep, exact := isa.RecordStream(prog.Stream(n), n)
		if !exact {
			t.Fatalf("%s: recording inexact", prog.Name)
		}
		sources := []struct {
			name string
			open func() isa.ChunkSource
		}{
			{"replay", func() isa.ChunkSource { cur := rep.Cursor(); return &cur }},
			{"generator", func() isa.ChunkSource { return isa.Chunked(prog.Stream(n)) }},
		}
		for _, lanes := range []int{1, 2, 13} {
			for _, src := range sources {
				name := fmt.Sprintf("%s/%d/%s", prog.Name, lanes, src.name)
				ahead := runStages(src.open(), lanes, b, true)
				inline := runStages(src.open(), lanes, b, false)
				if ahead.res[0].Instructions != n {
					t.Fatalf("%s: ran %d instructions, want %d", name, ahead.res[0].Instructions, n)
				}
				if !reflect.DeepEqual(ahead, inline) {
					t.Fatalf("%s: read-ahead pass diverged from the one-P pass:\n  ahead  %+v\n  inline %+v",
						name, ahead.res, inline.res)
				}
			}
		}
	}
}

// panicSource panics on its third chunk.
type panicSource struct {
	src   isa.ChunkSource
	calls int
}

type sourceBoom struct{}

func (p *panicSource) NextChunk(buf []isa.DecodedInstr) int {
	if p.calls++; p.calls == 3 {
		panic(sourceBoom{})
	}
	return p.src.NextChunk(buf)
}

// TestRunLanesSourcePanicReachesCaller: a chunk source that panics on the
// stream stage's goroutine panics in RunLanesCtx's caller, with the same
// value, where the engine and the jobs runner recover it.
func TestRunLanesSourcePanicReachesCaller(t *testing.T) {
	rep := recordBench(t, "gcc", 50_000)
	for _, ahead := range []bool{true, false} {
		func() {
			defer func() {
				if v := recover(); v != (sourceBoom{}) {
					t.Fatalf("ahead=%v: recovered %v, want the source's panic", ahead, v)
				}
			}()
			h := testHierarchy()
			p := New(DefaultConfig(), h, h, nil, h)
			cur := rep.Cursor()
			runLanes(context.Background(), &panicSource{src: &cur}, []*Pipeline{p}, ahead)
		}()
	}
}

// slowSource reads a source slowly and counts the calls in progress, so a
// stream stage still decoding when its pass returns is caught in the act.
type slowSource struct {
	src    isa.ChunkSource
	active atomic.Int32
}

func (s *slowSource) NextChunk(buf []isa.DecodedInstr) int {
	s.active.Add(1)
	defer s.active.Add(-1)
	time.Sleep(100 * time.Microsecond)
	return s.src.NextChunk(buf)
}

// TestRunLanesStreamStageExits: no goroutine outlives a read-ahead pass,
// whether it ends normally, is aborted mid-run, or its source panics, and
// the stream stage is not reading the source when the pass returns. The
// abort comes from the lane stage (a timeline point cancels the run) while
// the slow source keeps the stream stage mid-decode.
func TestRunLanesStreamStageExits(t *testing.T) {
	rep := recordBench(t, "gcc", 50_000)
	cases := []struct {
		name  string
		abort bool
		panic bool
	}{{"end", false, false}, {"abort", true, false}, {"panic", false, true}}
	for _, c := range cases {
		ctx, cancel := context.WithCancel(context.Background())
		cur := rep.Cursor()
		var src isa.ChunkSource = &cur
		if c.panic {
			src = &panicSource{src: src}
		}
		slow := &slowSource{src: src}
		h := testHierarchy()
		p := New(DefaultConfig(), h, h, nil, h)
		if c.abort {
			rec := timeline.NewRecorder(timeline.Config{Enabled: true, IntervalInstructions: 3000}, 0, timeline.EnergyRates{})
			rec.OnPoint = func(timeline.Point) { cancel() }
			p.SetTimeline(rec)
		}
		before := runtime.NumGoroutine()
		func() {
			defer func() { _ = recover() }()
			if _, _, err := runLanes(ctx, slow, []*Pipeline{p}, true); c.abort && err == nil {
				t.Errorf("%s: pass was not aborted", c.name)
			}
		}()
		cancel()
		if n := slow.active.Load(); n != 0 {
			t.Errorf("%s: %d source reads in progress after the pass returned", c.name, n)
		}
		// stop waits for the stream goroutine's last action; give it the
		// moment it needs to return.
		deadline := time.Now().Add(time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			runtime.Gosched()
		}
		if got := runtime.NumGoroutine(); got > before {
			t.Errorf("%s: %d goroutines after the pass, %d before", c.name, got, before)
		}
	}
}

// l1dGroupLane is lane i of the L1D-group test: its L1D geometry is
// geoms[order[i]], and its L1I (conventional or resizing), L2 policy
// (conventional or drowsy) and predictor vary on their own cycles, so an
// L1D group spans lanes that share nothing else.
type l1dGroupLane struct {
	h *mem.Hierarchy
	p *Pipeline
}

var (
	// Geometries 1, 2 and 4 differ from one another in one field each, and
	// from 0 in its size.
	l1dGeoms = []mem.L1DConfig{
		{Name: "L1D", SizeBytes: 64 << 10, BlockBytes: 32, Assoc: 2}, // Table 1
		{Name: "L1D", SizeBytes: 4 << 10, BlockBytes: 32, Assoc: 2},
		{Name: "L1D", SizeBytes: 4 << 10, BlockBytes: 64, Assoc: 2}, // an L1D block is an L2 block
		{Name: "L1D", SizeBytes: 32, BlockBytes: 32, Assoc: 1},      // one block: dirty victims galore
		{Name: "L1D", SizeBytes: 4 << 10, BlockBytes: 32, Assoc: 4},
	}
	l1dOrder = []int{0, 1, 2, 0, 3, 1, 4, 0, 2, 3, 4, 1}
)

func newL1DGroupLane(i int) l1dGroupLane {
	conv, resizing := l1iConfigs()
	l1i := conv
	if i%2 == 1 {
		l1i = resizing
	}
	mc := mem.DefaultConfig(l1i)
	mc.L1D = l1dGeoms[l1dOrder[i]]
	if i == 7 {
		// Name is not geometry: this lane joins the Table 1 group.
		mc.L1D.Name = "renamed"
	}
	if i%3 == 2 {
		mc.L2Policy = policy.Config{
			Kind: policy.Drowsy, IntervalInstructions: 2000,
			WakeupCycles: 7, DrowsyLeakFraction: 0.15,
		}
	}
	bc := bpred.DefaultConfig()
	if i%4 == 3 {
		bc.BTBEntries = 256
		bc.HistoryBits = 8
	}
	h := mem.New(mc)
	return l1dGroupLane{h: h, p: New(DefaultConfig(), h, h, bpred.New(bc), h)}
}

// l1dLaneOutcome is what one lane's pass leaves behind.
type l1dLaneOutcome struct {
	res Result
	mem mem.Stats
	l2  dri.DataStats
	l1d dri.DataStats
}

func (l l1dGroupLane) outcome(res Result) l1dLaneOutcome {
	l.h.Finish(res.Cycles)
	return l1dLaneOutcome{res: res, mem: l.h.Stats(), l2: l.h.L2().DataStats(), l1d: l.h.DCache().DataStats()}
}

// TestRunLanesL1DGroups pins L1D groups to solo runs: one pass mixes five
// L1D geometries, interleaved with lanes of equal geometry (one of them
// under another Name), and every lane's cpu.Result, mem.Stats and L2
// statistics must be bit-identical to its own one-lane pass. A group
// leader's L1D ends in its solo run's state; every other lane's L1D is left
// untouched. Both stage placements run over a replay cursor and over the
// generator's own chunk source.
func TestRunLanesL1DGroups(t *testing.T) {
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
			name := fmt.Sprintf("%s/ahead=%v", src.name, ahead)
			solo := make([]l1dLaneOutcome, len(l1dOrder))
			for i := range solo {
				l := newL1DGroupLane(i)
				res, _, err := runLanes(context.Background(), src.open(), []*Pipeline{l.p}, ahead)
				if err != nil {
					t.Fatal(err)
				}
				solo[i] = l.outcome(res[0])
			}
			ls := make([]l1dGroupLane, len(l1dOrder))
			pipes := make([]*Pipeline, len(ls))
			for i := range ls {
				ls[i] = newL1DGroupLane(i)
				pipes[i] = ls[i].p
			}
			res, _, err := runLanes(context.Background(), src.open(), pipes, ahead)
			if err != nil {
				t.Fatal(err)
			}
			leader := map[int]bool{}
			for i, l := range ls {
				got := l.outcome(res[i])
				if got.res.Instructions != n {
					t.Fatalf("%s: lane %d ran %d instructions, want %d", name, i, got.res.Instructions, n)
				}
				if got.res != solo[i].res || got.mem != solo[i].mem || got.l2 != solo[i].l2 {
					t.Fatalf("%s: lane %d (L1D %+v) diverged from its solo pass:\n  lane %+v\n  solo %+v",
						name, i, l1dGeoms[l1dOrder[i]], got, solo[i])
				}
				switch g := l1dOrder[i]; {
				case !leader[g]:
					leader[g] = true
					if got.l1d != solo[i].l1d {
						t.Fatalf("%s: leader lane %d's L1D %+v, solo %+v", name, i, got.l1d, solo[i].l1d)
					}
				case got.l1d != (dri.DataStats{}):
					t.Fatalf("%s: lane %d's own L1D was touched: %+v", name, i, got.l1d)
				}
			}
			if len(leader) != len(l1dGeoms) {
				t.Fatalf("%s: %d L1D groups, want %d", name, len(leader), len(l1dGeoms))
			}
			if solo[4].l1d.Writebacks == 0 || solo[2].l2.Writebacks == 0 {
				t.Fatalf("%s: the stream left no dirty victim to share", name)
			}
		}
	}
}

// TestTimelineSamplesAtChunkBoundary pins interval sampling when intervals
// end exactly on chunk boundaries: with IntervalInstructions a multiple of
// laneChunk, every recorded point ends on a multiple of the interval.
func TestTimelineSamplesAtChunkBoundary(t *testing.T) {
	const interval = 8 * laneChunk
	const n = 10 * interval
	rep := recordBench(t, "gcc", n)
	for _, ahead := range []bool{false, true} {
		h := testHierarchy()
		p := New(DefaultConfig(), h, h, nil, h)
		rec := timeline.NewRecorder(timeline.Config{Enabled: true, IntervalInstructions: interval}, 0, timeline.EnergyRates{})
		p.SetTimeline(rec)
		cur := rep.Cursor()
		if _, _, err := runLanes(context.Background(), &cur, []*Pipeline{p}, ahead); err != nil {
			t.Fatal(err)
		}
		pts := rec.Series().Points
		if len(pts) != n/interval {
			t.Fatalf("ahead=%v: %d points, want %d", ahead, len(pts), n/interval)
		}
		for i, pt := range pts {
			if want := uint64(i+1) * interval; pt.EndInstructions != want {
				t.Fatalf("ahead=%v: point %d ends at %d instructions, want %d", ahead, i, pt.EndInstructions, want)
			}
		}
	}
}
