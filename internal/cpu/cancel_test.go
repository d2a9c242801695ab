package cpu

import (
	"context"
	"errors"
	"testing"

	"dricache/internal/bpred"
	"dricache/internal/dri"
	"dricache/internal/isa"
	"dricache/internal/mem"
	"dricache/internal/trace"
)

func testHierarchy() *mem.Hierarchy {
	l1i := dri.Config{SizeBytes: 64 << 10, BlockBytes: 32, Assoc: 1, AddrBits: 32}
	return mem.New(mem.DefaultConfig(l1i))
}

func recordBench(t *testing.T, name string, n uint64) *isa.Replay {
	t.Helper()
	prog, err := trace.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	rep, exact := isa.RecordStream(prog.Stream(n), n)
	if !exact {
		t.Fatal("recording inexact")
	}
	return rep
}

// TestRunCtxAbortsFused: a pre-cancelled context stops the lane at the
// first chunk boundary — before it consumes the stream — and the error
// wraps both ErrAborted and the context cause.
func TestRunCtxAbortsFused(t *testing.T) {
	rep := recordBench(t, "gcc", 100_000)
	h := testHierarchy()
	p := New(DefaultConfig(), h, h, bpred.New(bpred.DefaultConfig()), h)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cur := rep.Cursor()
	res, err := p.RunCtx(ctx, &cur)
	if err == nil {
		t.Fatal("cancelled RunCtx returned nil error")
	}
	if !errors.Is(err, ErrAborted) || !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap ErrAborted and context.Canceled", err)
	}
	if res.Instructions != 0 {
		t.Fatalf("pre-cancelled run consumed %d instructions", res.Instructions)
	}
}

// TestRunCtxAbortsMidRun cancels deterministically mid-stream (via a stream
// wrapper, which the lane executor reads through the isa.Chunked adapter).
// The stream stage reads ahead of the lanes, so where the lanes stop depends
// on how far ahead it ran; the bounds that hold either way are that no lane
// steps past the chunk the cancellation came in and that the source is read
// at most one ring's worth past it. On one P the stages run in turn, and the
// lanes stop within one chunk after the cancellation point.
func TestRunCtxAbortsMidRun(t *testing.T) {
	rep := recordBench(t, "gcc", 100_000)
	const cancelAt = 10_000
	for _, ahead := range []bool{true, false} {
		h := testHierarchy()
		ctx, cancel := context.WithCancel(context.Background())
		p := New(DefaultConfig(), h, h, bpred.New(bpred.DefaultConfig()), h)
		cur := rep.Cursor()
		cc := &cancellingStream{s: &cur, after: cancelAt, cancel: cancel}
		out, err := runLanes(ctx, isa.Chunked(cc), []*Pipeline{p}, ahead)
		cancel()
		if err == nil {
			t.Fatalf("ahead=%v: mid-run cancellation returned nil error", ahead)
		}
		if !errors.Is(err, ErrAborted) {
			t.Fatalf("ahead=%v: error %v does not wrap ErrAborted", ahead, err)
		}
		stepped := out[0].Instructions
		if stepped > cancelAt+laneChunk {
			t.Fatalf("ahead=%v: stepped %d instructions; want at most one chunk after %d",
				ahead, stepped, cancelAt)
		}
		if ring := uint64(ringSlots * slotChunks * laneChunk); cc.seen > cancelAt+ring {
			t.Fatalf("ahead=%v: source read %d instructions; want at most one ring (%d) after %d",
				ahead, cc.seen, ring, cancelAt)
		}
		if !ahead && stepped < cancelAt {
			t.Fatalf("one P: aborted at %d instructions; want within one chunk after %d",
				stepped, cancelAt)
		}
	}
}

// cancellingStream cancels a context after n instructions have been read.
type cancellingStream struct {
	s      isa.Stream
	after  uint64
	seen   uint64
	cancel context.CancelFunc
}

func (c *cancellingStream) Next(ins *isa.Instr) bool {
	if c.seen == c.after {
		c.cancel()
	}
	c.seen++
	return c.s.Next(ins)
}

// TestRunLanesCtxAborts: cancellation stops every lane at the same chunk
// boundary, and all lanes report identical (partial) instruction counts.
func TestRunLanesCtxAborts(t *testing.T) {
	rep := recordBench(t, "compress", 200_000)
	const lanes = 4
	pipes := make([]*Pipeline, lanes)
	for i := range pipes {
		h := testHierarchy()
		pipes[i] = New(DefaultConfig(), h, h, bpred.New(bpred.DefaultConfig()), h)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cur := rep.Cursor()
	out, err := RunLanesCtx(ctx, &cur, pipes)
	if err == nil {
		t.Fatal("cancelled RunLanesCtx returned nil error")
	}
	if !errors.Is(err, ErrAborted) || !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap ErrAborted and context.Canceled", err)
	}
	if len(out) != lanes {
		t.Fatalf("got %d partial results, want %d", len(out), lanes)
	}
	for i, r := range out {
		if r.Instructions != out[0].Instructions {
			t.Fatalf("lane %d aborted at %d instructions, lane 0 at %d — lanes diverged",
				i, r.Instructions, out[0].Instructions)
		}
	}
}

// TestRunCtxBackgroundMatchesRun: a non-cancellable context is invisible —
// bit-identical results to the context-free entry point.
func TestRunCtxBackgroundMatchesRun(t *testing.T) {
	rep := recordBench(t, "li", 50_000)
	run := func(viaCtx bool) Result {
		h := testHierarchy()
		p := New(DefaultConfig(), h, h, bpred.New(bpred.DefaultConfig()), h)
		cur := rep.Cursor()
		if viaCtx {
			r, err := p.RunCtx(context.Background(), &cur)
			if err != nil {
				t.Fatal(err)
			}
			return r
		}
		return p.Run(&cur)
	}
	if a, b := run(true), run(false); a != b {
		t.Fatalf("RunCtx(Background) diverged from Run:\n  ctx  %+v\n  bare %+v", a, b)
	}
}
