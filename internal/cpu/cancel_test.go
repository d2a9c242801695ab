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

// TestRunCtxAbortsFused: a pre-cancelled context stops the fused loop at
// the first chunk boundary — before it consumes the stream — and the error
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
// wrapper, which the lane executor reads through the isa.Chunked adapter)
// and asserts the run stops within one chunk cadence of the cancellation
// point.
func TestRunCtxAbortsMidRun(t *testing.T) {
	rep := recordBench(t, "gcc", 100_000)
	h := testHierarchy()
	ctx, cancel := context.WithCancel(context.Background())
	const cancelAt = 10_000
	p := New(DefaultConfig(), h, h, bpred.New(bpred.DefaultConfig()), h)
	cur := rep.Cursor()
	cc := &cancellingStream{s: &cur, after: cancelAt, cancel: cancel}
	res, err := p.RunCtx(ctx, cc)
	if err == nil {
		t.Fatal("mid-run cancellation returned nil error")
	}
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("error %v does not wrap ErrAborted", err)
	}
	if res.Instructions < cancelAt || res.Instructions > cancelAt+laneChunk {
		t.Fatalf("aborted at %d instructions; want within one chunk after %d",
			res.Instructions, cancelAt)
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
