// The lane executor, the simulator's one timing loop. A lane is the
// per-instruction stage advance of one simulation over its own memory
// hierarchy; N lanes over the *same* instruction stream share a single
// decode pass. A sweep evaluates one benchmark across many cache/policy
// configurations; decoding (or, when the trace store bypasses the stream,
// generating) the stream once and stepping every lane lock-step removes
// the per-configuration decode (and, for lanes with equal predictor
// configurations, the branch-predictor walk) from the sweep's critical
// path while keeping every lane bit-identical to running alone.
package cpu

import (
	"context"

	"dricache/internal/bpred"
	"dricache/internal/dri"
	"dricache/internal/isa"
	"dricache/internal/mem"
	"dricache/internal/timeline"
)

// laneChunk is the number of decoded instructions a lane pass consumes at a
// time: a chunk of isa.DecodedInstr (8 KiB) plus per-group prediction
// outcomes stay L1-resident while each lane sweeps the whole chunk with its
// own timing state hot in registers — instead of every lane's state
// thrashing through the cache once per instruction.
const laneChunk = 256

// predOut carries one instruction's branch-prediction outcomes: mispred is
// true when a conditional branch's direction was mispredicted; tgtMiss is
// true when the BTB/RAS target of a control instruction was wrong (a fetch
// redirect at execute).
type predOut struct {
	mispred bool
	tgtMiss bool
}

// predLane holds one predictor group's per-chunk prediction outcomes for
// every lane sharing one predictor. Predictor state is purely stream-driven
// (see bpred.Predictor.Config), so lanes with equal predictor
// configurations — over the same stream — observe identical prediction
// outcomes and statistics; the leader predictor is walked once per chunk
// and its outcomes fan out to the whole group.
type predLane struct {
	bp   *bpred.Predictor
	outs [laneChunk]predOut
}

// predictChunk walks the predictor over one decoded chunk, recording each
// instruction's outcomes. The call pattern is part of the timing model (the
// goldens pin it): the BTB is consulted (and trained) for a conditional
// branch only when the direction was correctly predicted taken.
func (g *predLane) predictChunk(buf []isa.DecodedInstr) {
	bp := g.bp
	for k := range buf {
		e := &buf[k]
		var o predOut
		switch e.Cls {
		case isa.Branch:
			o.mispred = bp.PredictBranch(e.PC, e.Taken)
			o.tgtMiss = !o.mispred && e.Taken && bp.PredictTarget(e.PC, e.Target)
		case isa.Jump:
			o.tgtMiss = bp.PredictTarget(e.PC, e.Target)
		case isa.Call:
			bp.Call(e.PC + isa.InstrBytes)
			o.tgtMiss = bp.PredictTarget(e.PC, e.Target)
		case isa.Ret:
			o.tgtMiss = bp.Return(e.Target)
		}
		g.outs[k] = o
	}
}

// lane is the complete per-simulation timing state of one configuration:
// stage rings, dataflow scoreboard, fetch/commit cursors, and the lane's
// own memory hierarchy. One lane advanced by stepChunk over a decoded
// stream is Pipeline.Run; N lanes advanced lock-step share the decode.
type lane struct {
	cfg  Config
	h    *mem.Hierarchy
	pred *predLane
	rs   *rings

	fetchRing    []uint64
	dispatchRing []uint64
	commitRing   []uint64
	portAvail    []uint64
	robRing      []uint64
	lsqRing      []uint64

	fetchIdx    int
	dispatchIdx int
	commitIdx   int
	robIdx      int
	lsqIdx      int

	singlePort bool

	regReady [isa.RegCount]uint64

	count     uint64 // instructions retired
	ft        uint64 // last fetch time (monotone)
	cmt       uint64 // last commit time (monotone)
	redirect  uint64 // earliest fetch time after a redirect
	curBlock  uint64
	blockMask uint64 // low BlockShift bits of a PC
	tickAccum uint64

	// memo is the lane's L1 i-cache when way memoization is enabled (nil
	// otherwise). A fetch-block transition whose target the link registers
	// already name skips mem.FetchBlock entirely — MemoHit is a pure probe —
	// and the hits accumulate locally, flushed into the cache's statistics by
	// finish. Way memoization never runs under a per-line policy or a live
	// DRI controller (policy.Apply forbids both), so a memoized hit has no
	// side effect beyond the two counters and zero latency: the bypass is
	// bit-identical to calling FetchBlock (TestMemoLaneMatchesFetchBlock),
	// and memoization changes no hit or miss (TestWayMemoTransparent).
	memo     *dri.Cache
	memoHits uint64

	// rec, when non-nil, is the interval flight recorder: every time count
	// crosses recNext the lane snapshots its hierarchy. Disabled-recorder
	// overhead is one nil check per chunk, outside the per-instruction
	// stage advance.
	rec     *timeline.Recorder
	recNext uint64

	res Result
}

// newLane builds the per-run state for one configuration over its own
// hierarchy, drawing the stage rings from the shared pool.
func newLane(cfg Config, h *mem.Hierarchy, pred *predLane, rec *timeline.Recorder) *lane {
	rs := getRings(&cfg)
	var memo *dri.Cache
	if ic := h.ICache(); ic.WayMemoEnabled() {
		memo = ic
	}
	var recNext uint64
	if rec != nil {
		recNext = rec.Interval()
	}
	return &lane{
		cfg:          cfg,
		h:            h,
		pred:         pred,
		rs:           rs,
		fetchRing:    rs.fetch,
		dispatchRing: rs.dispatch,
		commitRing:   rs.commit,
		portAvail:    rs.port,
		robRing:      rs.rob,
		lsqRing:      rs.lsq,
		singlePort:   cfg.MemPorts == 1,
		curBlock:     ^uint64(0),
		blockMask:    uint64(1)<<cfg.BlockShift - 1,
		memo:         memo,
		rec:          rec,
		recNext:      recNext,
	}
}

// stepChunk advances the lane by one decoded chunk. The lane's predLane
// must already hold the chunk's prediction outcomes (predictChunk over the
// same buf). Per-instruction, e.Seq is the chunk source's PC-sequentiality
// signal (isa.DecodedInstr.Seq); when the PC is additionally not
// block-aligned, the instruction provably shares the previous
// instruction's fetch block, so the block compare (and any i-cache
// traffic) is skipped without consulting curBlock. A constant-false Seq is
// always correct — it is purely an accelerator. The lane's timing state is
// staged into locals for the whole chunk, so the per-instruction stage
// advance runs register-to-register.
func (ln *lane) stepChunk(buf []isa.DecodedInstr) {
	cfg := &ln.cfg
	var (
		ft        = ln.ft
		cmt       = ln.cmt
		redirect  = ln.redirect
		curBlock  = ln.curBlock
		blockMask = ln.blockMask
	)
	for k := range buf {
		e := &buf[k]

		// ---- Fetch ----
		f := ft
		if redirect > f {
			f = redirect
		}
		if w := ln.fetchRing[ln.fetchIdx] + 1; w > f {
			f = w
		}
		pc := e.PC
		if !e.Seq || pc&blockMask == 0 {
			if block := pc >> cfg.BlockShift; block != curBlock {
				curBlock = block
				ln.res.FetchGroups++
				if ln.memo != nil && ln.memo.MemoHit(block) {
					ln.memoHits++
				} else if lat := ln.h.FetchBlock(block); lat > 0 {
					f += lat
					ln.res.ICacheStalls += lat
				}
			}
		}
		ln.fetchRing[ln.fetchIdx] = f
		ft = f

		// ---- Dispatch (in-order, ROB occupancy) ----
		d := f + cfg.FrontendDepth
		if w := ln.robRing[ln.robIdx] + 1; w > d {
			d = w
		}
		if w := ln.dispatchRing[ln.dispatchIdx] + 1; w > d {
			d = w
		}
		cls := e.Cls
		isMem := cls.IsMem()
		if isMem {
			if w := ln.lsqRing[ln.lsqIdx] + 1; w > d {
				d = w
			}
		}
		ln.dispatchRing[ln.dispatchIdx] = d

		// ---- Issue (dataflow + memory ports) ----
		is := d
		if e.S1 != isa.NoReg {
			if r := ln.regReady[e.S1]; r > is {
				is = r
			}
		}
		if e.S2 != isa.NoReg {
			if r := ln.regReady[e.S2]; r > is {
				is = r
			}
		}
		if isMem {
			best := 0
			if !ln.singlePort {
				for p := 1; p < cfg.MemPorts; p++ {
					if ln.portAvail[p] < ln.portAvail[best] {
						best = p
					}
				}
			}
			if ln.portAvail[best] > is {
				is = ln.portAvail[best]
			}
			ln.portAvail[best] = is + 1
		}

		// ---- Execute/complete ----
		ct := is + cfg.Latency[cls]
		switch cls {
		case isa.Load:
			ln.res.Loads++
			ct += ln.h.Load(e.MemAddr)
		case isa.Store:
			ln.res.Stores++
			ln.h.Store(e.MemAddr)
		case isa.Branch:
			ln.res.Branches++
			if o := ln.pred.outs[k]; o.mispred {
				ln.res.Mispredicts++
				redirect = ct + cfg.RedirectPenalty
			} else if e.Taken && o.tgtMiss {
				// Correctly predicted taken with a BTB target miss: a fetch
				// redirect at execute, like a mispredict.
				redirect = ct + cfg.RedirectPenalty
			}
		case isa.Jump, isa.Call, isa.Ret:
			if ln.pred.outs[k].tgtMiss {
				redirect = ct + cfg.RedirectPenalty
			}
		}
		if e.Dst != isa.NoReg {
			ln.regReady[e.Dst] = ct
		}

		// ---- Commit (in-order) ----
		c := ct + 1
		if c <= cmt {
			c = cmt
		}
		if w := ln.commitRing[ln.commitIdx] + 1; w > c {
			c = w
		}
		ln.commitRing[ln.commitIdx] = c
		ln.robRing[ln.robIdx] = c
		if isMem {
			ln.lsqRing[ln.lsqIdx] = c
			if ln.lsqIdx++; ln.lsqIdx == cfg.LSQSize {
				ln.lsqIdx = 0
			}
		}
		cmt = c

		if ln.fetchIdx++; ln.fetchIdx == cfg.FetchWidth {
			ln.fetchIdx = 0
		}
		if ln.dispatchIdx++; ln.dispatchIdx == cfg.DispatchWidth {
			ln.dispatchIdx = 0
		}
		if ln.commitIdx++; ln.commitIdx == cfg.CommitWidth {
			ln.commitIdx = 0
		}
		if ln.robIdx++; ln.robIdx == cfg.ROBSize {
			ln.robIdx = 0
		}
		ln.tickAccum++
		if ln.tickAccum >= cfg.TickBatch {
			ln.h.Advance(ln.tickAccum, f)
			ln.tickAccum = 0
		}
	}
	ln.ft = ft
	ln.cmt = cmt
	ln.redirect = redirect
	ln.curBlock = curBlock
	ln.count += uint64(len(buf))
	if ln.rec != nil && ln.count >= ln.recNext {
		ln.recSample()
		for ln.recNext <= ln.count {
			ln.recNext += ln.rec.Interval()
		}
	}
}

// recSample snapshots the lane's hierarchy into the flight recorder. The
// hierarchy fills the cache/policy fields; the lane overlays its own
// cursors plus any memo hits not yet flushed into the cache statistics
// (AddMemoHits counts each hit as an access too, so pending hits are added
// to both fields — the sampled totals match the end-of-run accounting
// exactly).
func (ln *lane) recSample() {
	var s timeline.Sample
	ln.h.TimelineSnapshot(&s)
	s.Instructions = ln.count
	s.Cycles = ln.cmt
	if ln.memoHits > 0 {
		s.L1IAccesses += ln.memoHits
		s.MemoHits += ln.memoHits
	}
	ln.rec.Record(s)
}

// finish flushes the trailing tick batch, assembles the Result, and returns
// the lane's rings to the pool. The lane must not be stepped afterwards.
func (ln *lane) finish() Result {
	if ln.memo != nil && ln.memoHits > 0 {
		ln.memo.AddMemoHits(ln.memoHits)
		ln.memoHits = 0
	}
	if ln.tickAccum > 0 {
		ln.h.Advance(ln.tickAccum, ln.ft)
	}
	if ln.rec != nil {
		// Final flush after the trailing tick: the recorder folds a sample
		// at an already-recorded boundary into its last point, so the
		// series always re-aggregates exactly to the end-of-run counters.
		ln.recSample()
	}
	ln.res.Instructions = ln.count
	ln.res.Cycles = ln.cmt
	ln.res.BPredStats = ln.pred.bp.Stats()
	putRings(ln.rs)
	ln.rs = nil
	return ln.res
}

// RunLanes consumes the chunk source once — a replay cursor, a generator
// stream, or any isa.Chunked stream — and advances one lane per pipeline in
// lock-step, returning the per-lane results in input order.
// Each lane owns its pipeline timing state and memory hierarchy, so every
// result is bit-identical to running that pipeline alone over the same
// stream; the lanes share only the immutable decoded instruction values.
//
// Lanes whose predictors have equal configurations additionally share one
// branch-predictor walk (the group's first predictor); prediction is
// stream-driven, so the shared outcomes and statistics are exactly those a
// solo run would compute. Every pipeline must be freshly constructed — a
// predictor that has already consumed instructions would diverge from its
// group.
func RunLanes(src isa.ChunkSource, pipes []*Pipeline) []Result {
	out, _ := RunLanesCtx(context.Background(), src, pipes)
	return out
}

// RunLanesCtx is RunLanes under a context. Cancellation is checked once per
// decoded chunk — before the decode, so an abort never pays for another
// decode-plus-N-lane pass — and a non-cancellable context costs nothing.
// On cancellation every lane is finished (partial results, rings returned
// to the pool) and the error wraps ErrAborted with the context's cause;
// the partial results must be discarded.
func RunLanesCtx(ctx context.Context, src isa.ChunkSource, pipes []*Pipeline) ([]Result, error) {
	if len(pipes) == 0 {
		return nil, nil
	}
	lanes := make([]*lane, len(pipes))
	var groups []*predLane
	byCfg := make(map[bpred.Config]*predLane, 1)
	for i, p := range pipes {
		g := byCfg[p.bp.Config()]
		if g == nil {
			g = &predLane{bp: p.bp}
			byCfg[p.bp.Config()] = g
			groups = append(groups, g)
		}
		lanes[i] = newLane(p.cfg, p.h, g, p.rec)
	}
	finish := func() []Result {
		out := make([]Result, len(lanes))
		for i, ln := range lanes {
			out[i] = ln.finish()
		}
		return out
	}
	done := ctx.Done()
	var buf [laneChunk]isa.DecodedInstr
	for {
		if done != nil {
			select {
			case <-done:
				out := finish()
				return out, abortErr(ctx, out[0].Instructions)
			default:
			}
		}
		n := src.NextChunk(buf[:])
		if n == 0 {
			break
		}
		for _, g := range groups {
			g.predictChunk(buf[:n])
		}
		for _, ln := range lanes {
			ln.stepChunk(buf[:n])
		}
	}
	return finish(), nil
}
