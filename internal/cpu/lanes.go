// The lane executor, the simulator's one timing loop. A lane is the
// per-instruction stage advance of one simulation over its own memory
// hierarchy; N lanes over the *same* instruction stream share a single
// decode pass. A sweep evaluates one benchmark across many cache/policy
// configurations; decoding (or, when the trace store bypasses the stream,
// generating) the stream once and stepping every lane lock-step removes
// the per-configuration decode (and, for lanes with equal predictor
// configurations, the branch-predictor walk; for lanes with equal L1
// d-cache geometries, the L1D walk) from the sweep's critical path while
// keeping every lane bit-identical to running alone.
//
// A pass runs in two stages. The stream stage decodes the source and walks
// each predictor group and each L1D group, filling ring slots of up to
// slotChunks chunks; the lane stage steps every lane over each slot, each
// lane charging its own L2 and memory for the L1D misses the slot names.
// With more than one P the stream stage runs ahead on its own goroutine, so
// a solo run pays only for the stage advance; with one P both stages run in
// turn on the caller's goroutine a chunk at a time (a second goroutine
// would only add handoffs).
//
// A lane steps a lane class: its hierarchy's L1 i-cache may carry several
// members (mem.Hierarchy.SetClass) — configurations that differ only in
// their DRI miss-bound and size-bound, whose controllers have decided alike
// so far and so share every cache, pipeline and cycle count. At the
// sense-interval boundary where their rules disagree, the hierarchy reports
// a split, the lane stops after that instruction, and the executor forks
// it: each further partition of members continues on a copy of the lane
// (rings, scoreboard, cursors and hierarchy) from the same point of the
// same chunk.
package cpu

import (
	"context"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

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

// predictChunk walks one predictor group's leader over a decoded chunk,
// recording each instruction's outcomes in outs. Predictor state is purely
// stream-driven (see bpred.Predictor.Config), so lanes with equal predictor
// configurations — over the same stream — observe identical prediction
// outcomes and statistics; the leader is walked once per chunk and its
// outcomes fan out to the whole group. The call pattern is part of the
// timing model (the goldens pin it): the BTB is consulted (and trained) for
// a conditional branch only when the direction was correctly predicted
// taken.
func predictChunk(bp *bpred.Predictor, buf []isa.DecodedInstr, outs *[laneChunk]predOut) {
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
		outs[k] = o
	}
}

// L1D outcome flags. A memory instruction's L1D outcome is one word: 0 for
// a hit; for a miss, l1dMiss, plus l1dDirty and the dirty victim's block
// address shifted above the two flags when the fill evicted a dirty block.
// An L1D block is at least 4 bytes (mem.Config.Check), so a block address
// has two bits to spare.
const (
	l1dMiss  = 1
	l1dDirty = 2
)

// l1dGroup is one L1D group's walker: the group leader's own L1 d-cache and
// the shift from a byte address to its block address.
type l1dGroup struct {
	dc    *dri.DataCache
	shift uint
}

// walk runs the group's cache over a decoded chunk, recording each memory
// instruction's outcome in outs (other entries are left as they are). The
// L1D never resizes and carries no policy, so its hits, misses and dirty
// victims are a pure function of the data-address stream and its geometry:
// lanes with equal L1D geometries — over the same stream — see identical
// outcomes, and the leader's cache is walked once per chunk for the whole
// group.
func (g l1dGroup) walk(buf []isa.DecodedInstr, outs *[laneChunk]uint64) {
	for k := range buf {
		e := &buf[k]
		if !e.Cls.IsMem() {
			continue
		}
		var o uint64
		if hit, wb, dirty := g.dc.AccessDataWB(e.MemAddr>>g.shift, e.Cls == isa.Store); dirty {
			o = wb<<2 | l1dDirty | l1dMiss
		} else if !hit {
			o = l1dMiss
		}
		outs[k] = o
	}
}

// lane is the complete per-simulation timing state of one configuration:
// stage rings, dataflow scoreboard, fetch/commit cursors, and the lane's
// own memory hierarchy. One lane advanced by stepChunk over a decoded
// stream is Pipeline.Run; N lanes advanced lock-step share the decode.
type lane struct {
	cfg Config
	h   *mem.Hierarchy
	// bp is the lane's predictor group leader and group its index: the lane
	// reads its outcomes from the slot's outs[group].
	bp    *bpred.Predictor
	group int
	// dgroup is the lane's L1D group: the lane reads its L1D outcomes from
	// the slot's douts[dgroup] and never touches its own L1D.
	dgroup int
	rs     *rings

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

	// recs, when non-nil, are the interval flight recorders, indexed by
	// the ID of the class member each records: every time count crosses
	// recNext the lane snapshots its hierarchy into the recorder of every
	// member it holds. Disabled-recorder overhead is one nil check per
	// chunk, outside the per-instruction stage advance.
	recs    []*timeline.Recorder
	recNext uint64

	// from is where a lane forked in mid-chunk resumes that chunk.
	from int

	res Result
}

// newLane builds the per-run state for one configuration over its own
// hierarchy, drawing the stage rings from the shared pool.
func newLane(cfg Config, h *mem.Hierarchy, bp *bpred.Predictor, group, dgroup int, recs []*timeline.Recorder) *lane {
	rs := getRings(&cfg)
	var memo *dri.Cache
	if ic := h.ICache(); ic.WayMemoEnabled() {
		memo = ic
	}
	// The lane samples at its members' interval; a lane none of whose
	// members has a recorder samples nothing.
	var recNext uint64
	for _, m := range h.ICache().Members() {
		if m.ID < len(recs) && recs[m.ID] != nil {
			recNext = recs[m.ID].Interval()
			break
		}
	}
	if recNext == 0 {
		recs = nil
	}
	return &lane{
		cfg:          cfg,
		h:            h,
		bp:           bp,
		group:        group,
		dgroup:       dgroup,
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
		recs:         recs,
		recNext:      recNext,
	}
}

// clone returns a copy of the lane at its current point over a copy of its
// hierarchy (mem.Hierarchy.CopyFrom). The copy keeps the lane's predictor
// group, L1D group and recorders.
func (ln *lane) clone() *lane {
	c := *ln
	c.rs = getRings(&c.cfg)
	c.fetchRing, c.dispatchRing, c.commitRing = c.rs.fetch, c.rs.dispatch, c.rs.commit
	c.portAvail, c.robRing, c.lsqRing = c.rs.port, c.rs.rob, c.rs.lsq
	copy(c.fetchRing, ln.fetchRing)
	copy(c.dispatchRing, ln.dispatchRing)
	copy(c.commitRing, ln.commitRing)
	copy(c.portAvail, ln.portAvail)
	copy(c.robRing, ln.robRing)
	copy(c.lsqRing, ln.lsqRing)
	c.h = mem.Acquire(ln.h.Config())
	c.h.CopyFrom(ln.h)
	if c.memo != nil {
		c.memo = c.h.ICache()
	}
	return &c
}

// fork resolves the split the lane's hierarchy reports: the lane keeps the
// first partition of its class and each further partition continues on a
// clone. A partition whose resumed interval accounting splits again forks
// in turn. It returns the clones.
func (ln *lane) fork() []*lane {
	var forks []*lane
	for pending := []*lane{ln}; len(pending) > 0; {
		l := pending[len(pending)-1]
		pending = pending[:len(pending)-1]
		for k := 1; k < l.h.ICache().Partitions(); k++ {
			c := l.clone()
			forks = append(forks, c)
			if c.h.ICache().TakePartition(k) {
				pending = append(pending, c)
			}
		}
		if l.h.ICache().TakePartition(0) {
			pending = append(pending, l)
		}
	}
	return forks
}

// stepChunk advances the lane over a decoded chunk from instruction from;
// outs holds the chunk's prediction outcomes for the lane's predictor group
// (predictChunk over the same buf) and douts its L1D outcomes for the lane's
// L1D group (l1dGroup.walk over the same buf), whose misses the lane
// charges to its own L2 and memory through mem.Hierarchy.L1DMiss.
// Per-instruction, e.Seq
// is the chunk source's PC-sequentiality signal (isa.DecodedInstr.Seq);
// when the PC is additionally not block-aligned, the instruction provably
// shares the previous instruction's fetch block, so the block compare (and
// any i-cache traffic) is skipped without consulting curBlock. A
// constant-false Seq is always correct — it is purely an accelerator. The
// lane's timing state is staged into locals for the whole chunk, so the
// per-instruction stage advance runs register-to-register. When a tick
// batch's hierarchy Advance reports a split of the lane's class, the lane
// stops after that instruction and stepChunk returns its offset with split
// set; the caller forks the lane (fork) and steps on from there.
func (ln *lane) stepChunk(buf []isa.DecodedInstr, outs *[laneChunk]predOut, douts *[laneChunk]uint64, from int) (at int, split bool) {
	cfg := &ln.cfg
	var (
		ft        = ln.ft
		cmt       = ln.cmt
		redirect  = ln.redirect
		curBlock  = ln.curBlock
		blockMask = ln.blockMask
	)
	at = len(buf)
	for k := uint(from); k < uint(len(buf)); k++ {
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
			if o := douts[k]; o != 0 {
				ct += ln.h.L1DMiss(e.MemAddr, o>>2, o&l1dDirty != 0)
			}
		case isa.Store:
			ln.res.Stores++
			if o := douts[k]; o != 0 {
				ln.h.L1DMiss(e.MemAddr, o>>2, o&l1dDirty != 0)
			}
		case isa.Branch:
			ln.res.Branches++
			if o := outs[k]; o.mispred {
				ln.res.Mispredicts++
				redirect = ct + cfg.RedirectPenalty
			} else if e.Taken && o.tgtMiss {
				// Correctly predicted taken with a BTB target miss: a fetch
				// redirect at execute, like a mispredict.
				redirect = ct + cfg.RedirectPenalty
			}
		case isa.Jump, isa.Call, isa.Ret:
			if outs[k].tgtMiss {
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
			n := ln.tickAccum
			ln.tickAccum = 0
			if ln.h.Advance(n, f) {
				at, split = int(k)+1, true
				break
			}
		}
	}
	ln.ft = ft
	ln.cmt = cmt
	ln.redirect = redirect
	ln.curBlock = curBlock
	ln.count += uint64(at - from)
	if !split && ln.recs != nil && ln.count >= ln.recNext {
		iv := ln.recSample()
		for ln.recNext <= ln.count {
			ln.recNext += iv
		}
	}
	return at, split
}

// recSample snapshots the lane's hierarchy into the flight recorder of
// every class member the lane holds, and returns their sampling interval
// (one for the whole class: members differ only in bounds). The hierarchy
// fills the cache/policy fields; the lane overlays its own cursors plus any
// memo hits not yet flushed into the cache statistics (AddMemoHits counts
// each hit as an access too, so pending hits are added to both fields —
// the sampled totals match the end-of-run accounting exactly).
func (ln *lane) recSample() uint64 {
	var s timeline.Sample
	ln.h.TimelineSnapshot(&s)
	s.Instructions = ln.count
	s.Cycles = ln.cmt
	if ln.memoHits > 0 {
		s.L1IAccesses += ln.memoHits
		s.MemoHits += ln.memoHits
	}
	var iv uint64
	for _, m := range ln.h.ICache().Members() {
		if r := ln.recs[m.ID]; r != nil {
			r.Record(s)
			iv = r.Interval()
		}
	}
	return iv
}

// flush settles the lane at the end of the stream: pending memo hits go to
// the cache statistics and the trailing tick batch to the hierarchy. A
// trailing batch that ends a sense interval can split the lane's class like
// any other; flush then returns the forks, which have nothing left to
// flush.
func (ln *lane) flush() []*lane {
	if ln.memo != nil && ln.memoHits > 0 {
		ln.memo.AddMemoHits(ln.memoHits)
		ln.memoHits = 0
	}
	if n := ln.tickAccum; n > 0 {
		ln.tickAccum = 0
		if ln.h.Advance(n, ln.ft) {
			return ln.fork()
		}
	}
	return nil
}

// finish assembles the Result and returns the lane's rings to the pool.
// The lane must not be stepped afterwards.
func (ln *lane) finish() Result {
	if ln.recs != nil {
		// Final flush after the trailing tick: the recorder folds a sample
		// at an already-recorded boundary into its last point, so the
		// series always re-aggregates exactly to the end-of-run counters.
		ln.recSample()
	}
	ln.res.Instructions = ln.count
	ln.res.Cycles = ln.cmt
	ln.res.BPredStats = ln.bp.Stats()
	putRings(ln.rs)
	ln.rs = nil
	return ln.res
}

// RunLanes consumes the chunk source once — a replay cursor, a generator
// stream, or any isa.Chunked stream — and advances one lane per pipeline in
// lock-step, returning the per-lane results: one per pipeline in input
// order, then one per lane forked from a lane class (see RunLanesCtx).
// Each lane owns its pipeline timing state and memory hierarchy, so every
// result is bit-identical to running that pipeline alone over the same
// stream; the lanes share only the immutable decoded instruction values.
//
// Lanes whose predictors have equal configurations additionally share one
// branch-predictor walk (the group's first predictor), and lanes whose
// hierarchies have equal L1 d-cache geometries (size, block, associativity)
// share one L1D walk (the group's first hierarchy's DCache); prediction and
// the L1D are stream-driven, so the shared outcomes and statistics are
// exactly those a solo run would compute. Every pipeline must be freshly
// constructed, and so must every hierarchy's L1D — a predictor or an L1D
// that has already consumed instructions would diverge from its group. A
// group leader's state is used as it is, so a one-lane pass over a reused
// hierarchy runs exactly as the same solo pipeline always has. After a pass
// only a group leader's DCache holds state; the other lanes' L1Ds are left
// untouched, and nothing in a lane's Result or mem.Stats reads them.
func RunLanes(src isa.ChunkSource, pipes []*Pipeline) []Result {
	out, _, _ := RunLanesCtx(context.Background(), src, pipes)
	return out
}

// RunLanesCtx is RunLanes under a context, returning with each Result the
// hierarchy its lane ran on. A pipeline whose hierarchy carries a lane
// class (mem.Hierarchy.SetClass) steps the whole class as one lane until
// its members' decisions diverge; each fork then runs on as its own lane
// over a copy of the hierarchy drawn from mem.Acquire, and its Result and
// hierarchy follow the pipelines' in fork order. Each lane's members are
// its hierarchy's ICache().Members(). A pass over hierarchies of one member
// never forks.
//
// Cancellation is checked before the stream stage starts, before each
// chunk's decode — so an abort never pays for another decode — and after
// the lanes step each chunk; a non-cancellable context costs nothing. The
// stream stage reads at most one ring of chunks ahead of the lanes, so a
// cancellation that the source itself triggers may stop the lanes short of
// it. On cancellation the stream stage is stopped, every lane is finished
// (partial results, rings returned to the pool) and the error wraps
// ErrAborted with the context's cause; the partial results must be
// discarded, and the hierarchies are still returned. A panic in the chunk
// source or a predictor is re-raised on the caller's goroutine.
func RunLanesCtx(ctx context.Context, src isa.ChunkSource, pipes []*Pipeline) ([]Result, []*mem.Hierarchy, error) {
	return runLanes(ctx, src, pipes, runtime.GOMAXPROCS(0) > 1)
}

// runLanes is RunLanesCtx with the stream stage on its own goroutine when
// ahead is set and on the caller's otherwise; the results are identical.
func runLanes(ctx context.Context, src isa.ChunkSource, pipes []*Pipeline, ahead bool) ([]Result, []*mem.Hierarchy, error) {
	if len(pipes) == 0 {
		return nil, nil, nil
	}
	lanes := make([]*lane, len(pipes))
	var groups []*bpred.Predictor
	var dgroups []l1dGroup
	byCfg := make(map[bpred.Config]int, 1)
	// An L1D's dri.Config is its geometry (mem.L1DConfig minus the unused
	// Name): it never has resizing Params.
	byL1D := make(map[dri.Config]int, 1)
	for i, p := range pipes {
		g, ok := byCfg[p.bp.Config()]
		if !ok {
			g = len(groups)
			byCfg[p.bp.Config()] = g
			groups = append(groups, p.bp)
		}
		dc := p.h.DCache()
		dg, ok := byL1D[dc.Config()]
		if !ok {
			dg = len(dgroups)
			byL1D[dc.Config()] = dg
			dgroups = append(dgroups, l1dGroup{dc: dc, shift: uint(bits.TrailingZeros(uint(dc.Config().BlockBytes)))})
		}
		lanes[i] = newLane(p.cfg, p.h, groups[g], g, dg, p.recs)
	}
	done := ctx.Done()
	aborted := func() bool {
		if done == nil {
			return false
		}
		select {
		case <-done:
			return true
		default:
			return false
		}
	}
	ended := !aborted() && stepLanes(&lanes, startStream(src, groups, dgroups, done, ahead), aborted)
	if ended {
		for i := 0; i < len(lanes); i++ {
			lanes = append(lanes, lanes[i].flush()...)
		}
	}
	out := make([]Result, len(lanes))
	hs := make([]*mem.Hierarchy, len(lanes))
	for i, ln := range lanes {
		out[i] = ln.finish()
		hs[i] = ln.h
	}
	if !ended {
		return out, hs, abortErr(ctx, out[0].Instructions)
	}
	return out, hs, nil
}

// stepLanes is the lane stage: it steps every lane over each chunk of the
// slots the stream stage fills until the stream ends (true) or aborted
// reports a cancellation (false). A lane that splits forks in place: its
// forks join *lanes and step the rest of the chunk after the lanes before
// them. The stream stage has exited when stepLanes returns, by a panic
// too, so the predictors are quiescent for finish.
func stepLanes(lanes *[]*lane, st *stream, aborted func() bool) bool {
	defer st.stop()
	for {
		s := st.next()
		for j := range s.n {
			buf := s.buf[j][:s.lens[j]]
			for i := 0; i < len(*lanes); i++ {
				ln := (*lanes)[i]
				outs, douts := &s.outs[ln.group][j], &s.douts[ln.dgroup][j]
				at, split := ln.stepChunk(buf, outs, douts, ln.from)
				for split {
					for _, f := range ln.fork() {
						f.from = at
						*lanes = append(*lanes, f)
					}
					at, split = ln.stepChunk(buf, outs, douts, at)
				}
				ln.from = 0
			}
			if aborted() {
				return false
			}
		}
		more := s.more
		st.release(s)
		if !more {
			return !aborted()
		}
	}
}

// A ring slot carries slotChunks chunks, not one: handing off 256
// instructions at a time costs a goroutine wake per ~12µs chunk, which eats
// the overlap. ringSlots lets the stream stage fill one slot while the
// lanes step another, with one filled slot queued between them.
const (
	slotChunks = 16
	ringSlots  = 3
)

// slot is one unit of handoff between the stages: up to len(buf) decoded
// chunks, n filled (chunk j holds lens[j] instructions), per predictor
// group each chunk's prediction outcomes, and per L1D group each chunk's
// L1D outcomes. more is false on the stream's last slot.
type slot struct {
	n     int
	lens  [slotChunks]int
	more  bool
	buf   [][laneChunk]isa.DecodedInstr
	outs  [][slotChunks][laneChunk]predOut
	douts [][slotChunks][laneChunk]uint64
}

// slotPool recycles slots (a ring slot is ~168 KiB with one predictor and
// one L1D group) across passes: a pass allocating its ring afresh grows a
// server's resident memory with its request rate.
var slotPool = sync.Pool{New: func() any { return new(slot) }}

// getSlot returns a pooled slot holding chunks chunks for groups predictor
// groups and dgroups L1D groups.
func getSlot(chunks, groups, dgroups int) *slot {
	s := slotPool.Get().(*slot)
	if cap(s.buf) < chunks {
		s.buf = make([][laneChunk]isa.DecodedInstr, chunks)
	}
	s.buf = s.buf[:chunks]
	if cap(s.outs) < groups {
		s.outs = make([][slotChunks][laneChunk]predOut, groups)
	}
	s.outs = s.outs[:groups]
	if cap(s.douts) < dgroups {
		s.douts = make([][slotChunks][laneChunk]uint64, dgroups)
	}
	s.douts = s.douts[:dgroups]
	return s
}

// fill decodes up to len(s.buf) chunks of src into s and walks every
// predictor group and every L1D group over each. done, the run's context,
// is checked before each decode, so a cancelled run decodes no further
// chunk.
func (s *slot) fill(src isa.ChunkSource, groups []*bpred.Predictor, dgroups []l1dGroup, done <-chan struct{}) {
	s.n, s.more = 0, true
	for s.n < len(s.buf) {
		if done != nil {
			select {
			case <-done:
				s.more = false
				return
			default:
			}
		}
		buf := s.buf[s.n][:]
		k := src.NextChunk(buf)
		if k == 0 {
			s.more = false
			return
		}
		for g, bp := range groups {
			predictChunk(bp, buf[:k], &s.outs[g][s.n])
		}
		for g, dg := range dgroups {
			dg.walk(buf[:k], &s.douts[g][s.n])
		}
		s.lens[s.n] = k
		s.n++
	}
}

// streamWait accumulates the nanoseconds lane stages spent blocked on an
// empty ring, process-wide.
var streamWait atomic.Int64

// StreamWait returns the total time lane stages have spent waiting for the
// stream stage, process-wide. Near zero means decode and prediction keep
// ahead of the lanes; a large share of run time means passes are
// decode-bound.
func StreamWait() time.Duration { return time.Duration(streamWait.Load()) }

// stream is the stream stage of one pass. Run ahead, it owns a goroutine
// and a ring of ringSlots slots: free carries empty slots to it and full
// carries filled slots back in stream order, each buffered to the ring size
// so no send ever blocks. Otherwise next fills its one single-chunk slot on
// the caller's goroutine, so the stages alternate per chunk.
type stream struct {
	src     isa.ChunkSource
	groups  []*bpred.Predictor
	dgroups []l1dGroup
	done    <-chan struct{}
	slots   []*slot

	full, free chan *slot
	quit       chan struct{}
	// panicVal is the stream goroutine's panic, if any; written before full
	// is closed.
	panicVal any
}

func startStream(src isa.ChunkSource, groups []*bpred.Predictor, dgroups []l1dGroup, done <-chan struct{}, ahead bool) *stream {
	n, chunks := 1, 1
	if ahead {
		n, chunks = ringSlots, slotChunks
	}
	st := &stream{src: src, groups: groups, dgroups: dgroups, done: done, slots: make([]*slot, n)}
	for i := range st.slots {
		st.slots[i] = getSlot(chunks, len(groups), len(dgroups))
	}
	if ahead {
		st.full = make(chan *slot, ringSlots)
		st.free = make(chan *slot, ringSlots)
		st.quit = make(chan struct{})
		for _, s := range st.slots {
			st.free <- s
		}
		go st.run()
	}
	return st
}

// run is the stream goroutine. It exits after sending the last slot, on
// quit, or on a panic, which it hands to the lane stage; full is closed on
// every exit.
func (st *stream) run() {
	defer func() {
		st.panicVal = recover()
		close(st.full)
	}()
	for {
		var s *slot
		select {
		case s = <-st.free:
		case <-st.quit:
			return
		}
		s.fill(st.src, st.groups, st.dgroups, st.done)
		st.full <- s
		if !s.more {
			return
		}
	}
}

// next returns the next filled slot in stream order, re-raising a panic of
// the stream goroutine on the caller's. Only a receive that would block is
// timed.
func (st *stream) next() *slot {
	if st.full == nil {
		s := st.slots[0]
		s.fill(st.src, st.groups, st.dgroups, st.done)
		return s
	}
	var s *slot
	var ok bool
	select {
	case s, ok = <-st.full:
	default:
		start := time.Now()
		s, ok = <-st.full
		streamWait.Add(int64(time.Since(start)))
	}
	if !ok {
		panic(st.panicVal)
	}
	return s
}

// release hands a stepped slot back to the stream stage.
func (st *stream) release(s *slot) {
	if st.free != nil {
		st.free <- s
	}
}

// stop ends the stream stage, waits for its goroutine to exit, and returns
// the slots to the pool.
func (st *stream) stop() {
	if st.full != nil {
		close(st.quit)
		for range st.full {
		}
	}
	for _, s := range st.slots {
		slotPool.Put(s)
	}
}
