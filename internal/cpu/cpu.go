// Package cpu implements the out-of-order processor timing model that
// converts an instruction stream plus cache behaviour into an execution
// time. It stands in for SimpleScalar-2.0's sim-outorder with the system
// configuration of the paper's Table 1: 8-wide issue/decode, 128-entry
// reorder buffer, 128-entry load/store queue, a 2-level hybrid branch
// predictor, single-cycle L1s, a 12-cycle unified L2 and an
// 80-cycles-plus-4-per-8-bytes memory.
//
// Rather than a cycle-by-cycle structural simulation, the model is the
// standard analytical ("dataflow") out-of-order approximation: one pass over
// the dynamic instruction stream computing per-instruction fetch, dispatch,
// issue, completion, and commit timestamps, with pipeline widths enforced by
// sliding-window rings (instruction i and instruction i−W must be at least
// one cycle apart at any W-wide stage) and buffer occupancy enforced by
// requiring a freed entry from instruction i−ROB (or i−LSQ) before dispatch.
// Fetch stalls on i-cache misses and on branch mispredict redirects;
// instruction-level parallelism is bounded by true register dataflow. This
// captures exactly what the paper's evaluation measures — the execution-time
// cost of extra i-cache misses — at a small fraction of the cost of a
// structural simulator. Wrong-path fetch is not modeled: fetch waits at a
// mispredicted branch until it resolves, so a mispredict costs its
// resolution time plus RedirectPenalty and pollutes no cache.
package cpu

import (
	"context"
	"errors"
	"fmt"

	"dricache/internal/bpred"
	"dricache/internal/isa"
	"dricache/internal/mem"
	"dricache/internal/timeline"
)

// ErrAborted marks a run stopped mid-stream because its context was
// cancelled or its deadline expired. The returned Result is partial —
// timing state up to the last completed chunk — and must not be treated as
// a finished simulation. Errors returned by RunCtx/RunLanesCtx wrap both
// ErrAborted and the context's cancellation cause, so callers can match
// either with errors.Is.
var ErrAborted = errors.New("cpu: run aborted")

// abortErr builds the partial-abort error for a run cut short at instrs.
func abortErr(ctx context.Context, instrs uint64) error {
	return fmt.Errorf("%w after %d instructions: %w", ErrAborted, instrs, context.Cause(ctx))
}

// Config describes the core (Table 1 defaults via DefaultConfig).
type Config struct {
	FetchWidth    int
	DispatchWidth int
	IssueWidth    int
	CommitWidth   int
	ROBSize       int
	LSQSize       int
	MemPorts      int
	// FrontendDepth is the fetch-to-dispatch depth in cycles.
	FrontendDepth uint64
	// RedirectPenalty is the added delay between a mispredicted branch's
	// resolution and the first correct-path fetch.
	RedirectPenalty uint64
	// BlockShift is log2 of the i-cache block size; fetch groups break at
	// block boundaries.
	BlockShift uint
	// Latency holds per-class execution latencies in cycles.
	Latency [isa.NumClasses]uint64
	// TickBatch is the number of instructions between the pipeline's
	// progress ticks to the hierarchy (mem.Hierarchy.Advance).
	TickBatch uint64
}

// DefaultConfig returns the paper's Table 1 core: 8-issue, 128-entry ROB,
// 128-entry LSQ, with conventional functional-unit latencies.
func DefaultConfig() Config {
	cfg := Config{
		FetchWidth:      8,
		DispatchWidth:   8,
		IssueWidth:      8,
		CommitWidth:     8,
		ROBSize:         128,
		LSQSize:         128,
		MemPorts:        2,
		FrontendDepth:   4,
		RedirectPenalty: 2,
		BlockShift:      5, // 32-byte i-cache blocks
		TickBatch:       64,
	}
	cfg.Latency[isa.IntALU] = 1
	cfg.Latency[isa.IntMul] = 3
	cfg.Latency[isa.FPAdd] = 2
	cfg.Latency[isa.FPMul] = 4
	cfg.Latency[isa.FPDiv] = 12
	cfg.Latency[isa.Load] = 1
	cfg.Latency[isa.Store] = 1
	cfg.Latency[isa.Branch] = 1
	cfg.Latency[isa.Jump] = 1
	cfg.Latency[isa.Call] = 1
	cfg.Latency[isa.Ret] = 1
	return cfg
}

// Check validates the configuration.
func (c Config) Check() error {
	switch {
	case c.FetchWidth < 1 || c.DispatchWidth < 1 || c.IssueWidth < 1 || c.CommitWidth < 1:
		return fmt.Errorf("cpu: pipeline widths must be >= 1")
	case c.ROBSize < 1:
		return fmt.Errorf("cpu: ROB size %d < 1", c.ROBSize)
	case c.LSQSize < 1:
		return fmt.Errorf("cpu: LSQ size %d < 1", c.LSQSize)
	case c.MemPorts < 1:
		return fmt.Errorf("cpu: memory ports %d < 1", c.MemPorts)
	case c.TickBatch == 0:
		return fmt.Errorf("cpu: tick batch must be >= 1")
	}
	return nil
}

// Result reports a completed run.
type Result struct {
	Instructions uint64
	Cycles       uint64
	// Class mix and control-flow outcomes.
	Branches     uint64
	Mispredicts  uint64
	Loads        uint64
	Stores       uint64
	FetchGroups  uint64 // i-cache accesses (one per fetch-group transition)
	ICacheStalls uint64 // total fetch cycles added by i-cache misses
	BPredStats   bpred.Stats
}

// IPC returns retired instructions per cycle.
func (r Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Instructions) / float64(r.Cycles)
}

// Pipeline is a single-core timing model over one memory hierarchy, which
// serves instruction fetches, data accesses and the instruction-progress
// ticks of its interval machinery (the DRI sense intervals). It is not safe
// for concurrent use; create one per simulation.
type Pipeline struct {
	cfg Config
	h   *mem.Hierarchy
	bp  *bpred.Predictor
	// recs, when non-nil, are the interval flight recorders sampled by the
	// lane executor (see lane.recSample) on every run, replayed or
	// generated, indexed by class member ID.
	recs []*timeline.Recorder
}

// SetTimeline attaches interval flight recorders to the pipeline's lane,
// solo or in RunLanes: recs[id] records the hierarchy's class member
// labelled id (mem.Hierarchy.SetClass), and a hierarchy that is not a
// class has the one member 0. Nil recorders — the default — cost nothing:
// the only residue is one nil check per decoded chunk. Every recorder of
// one class must sample at the same interval.
func (p *Pipeline) SetTimeline(recs ...*timeline.Recorder) {
	p.recs = nil
	for _, r := range recs {
		if r != nil {
			p.recs = recs
			return
		}
	}
}

// New builds a pipeline over one memory hierarchy, passed once for each
// role it plays: instruction fetch, data access and instruction-progress
// ticks. It panics on an invalid configuration and unless all three are the
// same non-nil hierarchy. A nil predictor gets the default one.
func New(cfg Config, imem, dmem *mem.Hierarchy, bp *bpred.Predictor, tick *mem.Hierarchy) *Pipeline {
	if err := cfg.Check(); err != nil {
		panic(err)
	}
	if imem == nil || dmem != imem || tick != imem {
		panic("cpu: New requires one non-nil mem.Hierarchy for fetch, data and ticks")
	}
	if bp == nil {
		bp = bpred.New(bpred.DefaultConfig())
	}
	return &Pipeline{cfg: cfg, h: imem, bp: bp}
}

// Predictor exposes the branch predictor (for stats).
func (p *Pipeline) Predictor() *bpred.Predictor { return p.bp }

// Run consumes the stream to completion and returns timing results. It is
// the one-lane case of the lane executor (lanes.go): the stream is consumed
// a chunk at a time, natively for replay cursors and generator streams and
// through isa.Chunked otherwise.
func (p *Pipeline) Run(stream isa.Stream) Result {
	res, _ := p.RunCtx(context.Background(), stream)
	return res
}

// RunCtx is Run under a context. Cancellation is checked once per
// 256-instruction chunk boundary — never inside the per-instruction stage
// advance — and a non-cancellable context (Done() == nil, e.g.
// context.Background) costs nothing at all: the check is hoisted out
// entirely. On cancellation the partial Result accumulated so far is
// returned together with an error wrapping ErrAborted and the context's
// cause; callers must discard the Result as unfinished.
func (p *Pipeline) RunCtx(ctx context.Context, stream isa.Stream) (Result, error) {
	out, _, err := RunLanesCtx(ctx, isa.Chunked(stream), []*Pipeline{p})
	return out[0], err
}
