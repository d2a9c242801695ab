package sim

// Property tests of the store-bypass path: when the trace replay store
// does not hold a stream, the lanes run over one pass of the generator
// itself. The generator must then hand the lane executor exactly the
// decoded chunks a replay would, so bypassed lanes stay bit-identical to
// replayed ones — timeline included — and cancel and retry like them.

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"dricache/internal/cpu"
	"dricache/internal/isa"
	"dricache/internal/timeline"
	"dricache/internal/trace"
)

// TestRunLanesGeneratorChunksMatchReplay: for every benchmark, the
// generator's own NextChunk yields, field for field (Seq included), what
// recording the stream and decoding it with ReplayCursor.NextChunk yields.
// The budget is not a multiple of the 256-instruction lane chunk, and the
// chunk sizes vary, so partial and odd-sized chunks are covered.
func TestRunLanesGeneratorChunksMatchReplay(t *testing.T) {
	const n = 100_003
	sizes := []int{256, 97, 1, 256, 255}
	for _, b := range trace.Benchmarks() {
		t.Run(b.Name, func(t *testing.T) {
			rep, exact := isa.RecordStream(b.Stream(n), n)
			if !exact {
				t.Fatal("recording inexact")
			}
			cur := rep.Cursor()
			gen, ok := b.Stream(n).(isa.ChunkSource)
			if !ok {
				t.Fatal("the generator stream does not implement isa.ChunkSource")
			}
			var want, got [256]isa.DecodedInstr
			var total uint64
			for i := 0; ; i++ {
				k := sizes[i%len(sizes)]
				nw := cur.NextChunk(want[:k])
				ng := gen.NextChunk(got[:k])
				if ng != nw {
					t.Fatalf("chunk %d: generator filled %d, replay %d", i, ng, nw)
				}
				if nw == 0 {
					break
				}
				for j := range nw {
					if got[j] != want[j] {
						t.Fatalf("instruction %d: generator %+v, replay %+v",
							total+uint64(j), got[j], want[j])
					}
				}
				total += uint64(nw)
			}
			if total != n {
				t.Fatalf("streamed %d instructions, want %d", total, n)
			}
		})
	}
}

// TestRunLanesBypassMatchesReplay: lanes over a bypassed stream — all six
// policies, interval recording on — are bit-identical to the same lanes
// over the replayed stream, and their timelines re-aggregate exactly.
func TestRunLanesBypassMatchesReplay(t *testing.T) {
	benches := trace.Benchmarks()
	n := uint64(200_000)
	if testing.Short() {
		benches = benches[:3]
		n = 100_000
	}
	const iv = 20_000
	cfgs := timelineConfigs(n, iv)
	for i := range cfgs {
		cfgs[i] = cfgs[i].WithTimeline(timeline.Config{Enabled: true})
	}
	st := trace.SharedStore()
	defer st.SetBudget(trace.DefaultStoreBudget)
	for _, b := range benches {
		t.Run(b.Name, func(t *testing.T) {
			st.SetBudget(trace.DefaultStoreBudget)
			replayed := RunLanes(cfgs, b)
			st.SetBudget(0)
			before := st.Stats().Bypasses
			bypassed := RunLanes(cfgs, b)
			if st.Stats().Bypasses == before {
				t.Fatal("the stream did not bypass the store")
			}
			for i := range cfgs {
				label := b.Name + "/" + timelinePolicyNames[i]
				checkReaggregates(t, label, bypassed[i])
				if !reflect.DeepEqual(bypassed[i], replayed[i]) {
					t.Errorf("%s: bypass lane diverges from replay lane", label)
				}
			}
		})
	}
}

// TestRunLanesBypassCancelRetry cancels a bypassed multi-lane pass mid-run
// (from the flight recorder's first point) and checks the abort contract:
// the error wraps cpu.ErrAborted and the cause, no results or lane
// counters leak, and a retry is bit-identical to an undisturbed run.
func TestRunLanesBypassCancelRetry(t *testing.T) {
	st := trace.SharedStore()
	st.SetBudget(0)
	defer st.SetBudget(trace.DefaultStoreBudget)
	p := applu(t)
	const n, iv = 200_000, 20_000
	cfgs := timelineConfigs(n, iv)
	for i := range cfgs {
		cfgs[i] = cfgs[i].WithTimeline(timeline.Config{Enabled: true})
	}
	want := RunLanes(cfgs, p)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ctx = timeline.WithSink(ctx, func(timeline.Point) { cancel() })
	before := ReadLaneStats()
	out, shared, err := RunLanesNotedCtx(ctx, cfgs, p)
	if !errors.Is(err, cpu.ErrAborted) || !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap cpu.ErrAborted and context.Canceled", err)
	}
	if strings.Contains(err.Error(), "before start") {
		t.Fatalf("error %v: the pass aborted before it started, want mid-run", err)
	}
	if shared {
		t.Error("an aborted pass reported a shared stream pass")
	}
	for i, r := range out {
		if !reflect.DeepEqual(r, Result{}) {
			t.Errorf("aborted lane %d returned a non-zero result", i)
		}
	}
	if after := ReadLaneStats(); after != before {
		t.Errorf("lane counters moved on an aborted pass: %+v -> %+v", before, after)
	}

	got, err := RunLanesCtx(context.Background(), cfgs, p)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cfgs {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("%s: retry diverges from the undisturbed run", timelinePolicyNames[i])
		}
	}
}
