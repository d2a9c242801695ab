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
	"dricache/internal/isa"
	"dricache/internal/mem"
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
	res, err := runLanes(context.Background(), src, pipes, ahead)
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
			if _, err := runLanes(ctx, slow, []*Pipeline{p}, true); c.abort && err == nil {
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
