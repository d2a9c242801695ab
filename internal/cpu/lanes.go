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
// The lane stage steps lanes in vectors. The lanes of a pass that share a
// core configuration, a predictor group and an L1D group see every
// instruction with the same fetch-block transition, class, operands,
// redirect and L1D outcome, at the same ring positions and tick; a vector
// does that shared work once per instruction and then advances each lane's
// timing state, held structure-of-arrays in one slice, so the lanes'
// independent dependency chains overlap in the host core's out-of-order
// window. A solo run is a vector of one lane.
//
// A lane steps a lane class: its hierarchy's L1 i-cache may carry several
// members (mem.Hierarchy.SetClass) — configurations that differ only in
// their DRI miss-bound and size-bound, whose controllers have decided alike
// so far and so share every cache, pipeline and cycle count. At the
// sense-interval boundary where their rules disagree, the hierarchy reports
// a split at that instruction's tick, and the executor forks the lane:
// each further partition of members continues as a new column of the same
// vector — a copy of the lane's timing state and hierarchy — from the next
// instruction.
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
// time: a chunk of isa.DecodedInstr (8 KiB) plus per-group prediction and
// L1D outcomes stay L1-resident while every vector sweeps the whole chunk.
const laneChunk = 256

// predOut carries one instruction's branch-prediction outcomes as flags:
// predMispred when a conditional branch's direction was mispredicted;
// predRedirect when fetch waits for the instruction to resolve — a
// mispredict, or a BTB/RAS target miss on a taken control transfer.
type predOut uint8

const (
	predMispred predOut = 1 << iota
	predRedirect
)

// predictChunk walks one predictor group's leader over a decoded chunk,
// recording each instruction's outcomes in outs, and returns the chunk's
// conditional branches and direction mispredicts. Predictor state is purely
// stream-driven (see bpred.Predictor.Config), so lanes with equal predictor
// configurations — over the same stream — observe identical prediction
// outcomes and statistics; the leader is walked once per chunk and its
// outcomes fan out to the whole group. The call pattern is part of the
// timing model (the goldens pin it): the BTB is consulted (and trained) for
// a conditional branch only when the direction was correctly predicted
// taken.
func predictChunk(bp *bpred.Predictor, buf []isa.DecodedInstr, outs *[laneChunk]predOut) (branches, mispredicts uint64) {
	for k := range buf {
		e := &buf[k]
		var o predOut
		switch e.Cls {
		case isa.Branch:
			branches++
			if bp.PredictBranch(e.PC, e.Taken) {
				o = predMispred | predRedirect
				mispredicts++
			} else if e.Taken && bp.PredictTarget(e.PC, e.Target) {
				// Correctly predicted taken with a BTB target miss: a
				// fetch redirect at execute, like a mispredict.
				o = predRedirect
			}
		case isa.Jump:
			o = redirectIf(bp.PredictTarget(e.PC, e.Target))
		case isa.Call:
			bp.Call(e.PC + isa.InstrBytes)
			o = redirectIf(bp.PredictTarget(e.PC, e.Target))
		case isa.Ret:
			o = redirectIf(bp.Return(e.Target))
		}
		outs[k] = o
	}
	return branches, mispredicts
}

// redirectIf returns predRedirect for a target miss.
func redirectIf(miss bool) predOut {
	if miss {
		return predRedirect
	}
	return 0
}

// chunkMix counts a decoded chunk's conditional branches, loads and stores.
type chunkMix struct{ branches, loads, stores uint64 }

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
// instruction's outcome in outs and 0 for every other instruction, and
// returns the chunk's loads and stores. The L1D
// never resizes and carries no policy, so its hits, misses and dirty
// victims are a pure function of the data-address stream and its geometry:
// lanes with equal L1D geometries — over the same stream — see identical
// outcomes, and the leader's cache is walked once per chunk for the whole
// group.
func (g l1dGroup) walk(buf []isa.DecodedInstr, outs *[laneChunk]uint64) (loads, stores uint64) {
	var memOps uint64
	for k := range buf {
		e := &buf[k]
		var o uint64
		if e.Cls.IsMem() {
			memOps++
			stores += uint64(e.Cls - isa.Load) // 1 for a Store, which follows Load
			if hit, wb, dirty := g.dc.AccessDataWB(e.MemAddr>>g.shift, e.Cls == isa.Store); dirty {
				o = wb<<2 | l1dDirty | l1dMiss
			} else if !hit {
				o = l1dMiss
			}
		}
		outs[k] = o
	}
	return memOps - stores, stores
}

// lane is the state of one simulation that its vector's timing rows do not
// hold: the lane's own memory hierarchy, its i-cache stalls, way-memo hits
// and flight recorders, and its column in the vector.
type lane struct {
	v   *vector
	col int
	h   *mem.Hierarchy

	stalls uint64 // fetch cycles added by i-cache misses

	// memo is the lane's L1 i-cache when way memoization is enabled (nil
	// otherwise). A fetch-block transition whose target the link registers
	// already name skips mem.FetchBlock entirely — MemoHit is a pure probe —
	// and the hits accumulate locally, flushed into the cache's statistics by
	// flush. Way memoization never runs under a per-line policy or a live
	// DRI controller (policy.Apply forbids both), so a memoized hit has no
	// side effect beyond the two counters and zero latency: the bypass is
	// bit-identical to calling FetchBlock (TestMemoLaneMatchesFetchBlock),
	// and memoization changes no hit or miss (TestWayMemoTransparent).
	memo     *dri.Cache
	memoHits uint64

	// recs, when non-nil, are the interval flight recorders, indexed by
	// the ID of the class member each records: every time the vector's
	// instruction count crosses recNext the lane snapshots its hierarchy
	// into the recorder of every member it holds. Disabled-recorder
	// overhead is one nil check per chunk, outside the per-instruction
	// stage advance.
	recs    []*timeline.Recorder
	recNext uint64
}

// vectorKey is what the lanes of one vector share: a core configuration, a
// predictor group and an L1D group.
type vectorKey struct {
	cfg           Config
	group, dgroup int
}

// The timing rows of a vector: rows ftRow, cmtRow and redirectRow hold each
// lane's last fetch time and last commit time (both monotone) and its
// earliest fetch time after a redirect. zeroRow is never written, so an
// absent source operand reads it as ready at 0; sinkRow takes an absent
// destination's write and is never read. The stage rings follow from
// fetchRow, then the register scoreboard.
const (
	ftRow       = 0
	cmtRow      = 1
	redirectRow = 2
	zeroRow     = 3
	sinkRow     = 4
	fetchRow    = 5
)

// vector is the lanes of a pass that share a vectorKey, stepped together
// instruction-major. Every lane of a pass starts at the stream's first
// instruction and a fork starts as a copy of its parent, so the lanes of a
// vector always agree on everything the stream and the shared
// configuration decide: the fetch-block cursor, the ring positions, the
// tick count and the counts in res. Only the timing rows differ from lane
// to lane. They are structure-of-arrays: s holds row r of the lane in
// column j at s[r*n+j], so one row of every lane is contiguous.
type vector struct {
	cfg    Config
	bp     *bpred.Predictor // the predictor group's leader
	group  int              // predictor group: outcomes are the slot's outs[group]
	dgroup int              // L1D group: outcomes are the slot's douts[dgroup]
	lanes  []*lane          // by column

	n    int // columns
	s    []uint64
	rows int
	// row holds the first row of each ring and of the scoreboard, off the
	// same rows as offsets in s for n columns. Each ring ends where the
	// next begins.
	row, off vectorRows
	// srcOff and dstOff give, by register operand, the offset in s of the
	// row an instruction reads as a source and writes as its destination:
	// the register's scoreboard row, or zeroRow and sinkRow for isa.NoReg.
	srcOff, dstOff [256]int
	// cur holds the offset in s of each ring's current row.
	cur struct{ fetch, dispatch, commit, rob, lsq int }

	curBlock  uint64
	tickAccum uint64
	// res counts what the lanes share: instructions, fetch groups, the
	// class mix and mispredicts.
	res Result
}

// vectorRows places the stage rings and the register scoreboard.
type vectorRows struct{ fetch, dispatch, commit, port, rob, lsq, reg int }

func newVector(k vectorKey, bp *bpred.Predictor) *vector {
	c := &k.cfg
	v := &vector{cfg: k.cfg, bp: bp, group: k.group, dgroup: k.dgroup, curBlock: ^uint64(0)}
	r := &v.row
	r.fetch = fetchRow
	r.dispatch = r.fetch + c.FetchWidth
	r.commit = r.dispatch + c.DispatchWidth
	r.port = r.commit + c.CommitWidth
	r.rob = r.port + c.MemPorts
	r.lsq = r.rob + c.ROBSize
	r.reg = r.lsq + c.LSQSize
	v.rows = r.reg + isa.RegCount
	return v
}

// add makes a lane over hierarchy h, sampled by recs, the vector's next
// column. Every lane must be added before start.
func (v *vector) add(h *mem.Hierarchy, recs []*timeline.Recorder) *lane {
	ln := &lane{v: v, col: len(v.lanes), h: h}
	if ic := h.ICache(); ic.WayMemoEnabled() {
		ln.memo = ic
	}
	// The lane samples at its members' interval; a lane none of whose
	// members has a recorder samples nothing.
	for _, m := range h.ICache().Members() {
		if m.ID < len(recs) && recs[m.ID] != nil {
			ln.recs, ln.recNext = recs, recs[m.ID].Interval()
			break
		}
	}
	v.lanes = append(v.lanes, ln)
	return ln
}

// start lays out the timing rows of the lanes added so far, all zero.
func (v *vector) start() {
	v.n = len(v.lanes)
	v.s = make([]uint64, v.rows*v.n)
	v.offsets()
	v.cur.fetch, v.cur.dispatch, v.cur.commit, v.cur.rob, v.cur.lsq = v.off.fetch, v.off.dispatch, v.off.commit, v.off.rob, v.off.lsq
}

// offsets sets off, srcOff and dstOff for the vector's column count.
func (v *vector) offsets() {
	n, r := v.n, v.row
	v.off = vectorRows{r.fetch * n, r.dispatch * n, r.commit * n, r.port * n, r.rob * n, r.lsq * n, r.reg * n}
	for reg := range isa.RegCount {
		v.srcOff[reg] = (r.reg + reg) * n
		v.dstOff[reg] = v.srcOff[reg]
	}
	v.srcOff[isa.NoReg], v.dstOff[isa.NoReg] = zeroRow*n, sinkRow*n
}

// clone adds a copy of the lane in column src at its current point, over a
// copy of its hierarchy (mem.Hierarchy.CopyFrom), as the vector's next
// column. The copy keeps the lane's recorders.
func (v *vector) clone(src int) *lane {
	n := v.n
	s := make([]uint64, v.rows*(n+1))
	for r := range v.rows {
		row := v.s[r*n : (r+1)*n]
		copy(s[r*(n+1):], row)
		s[r*(n+1)+n] = row[src]
	}
	v.s, v.n = s, n+1
	v.offsets()
	// The cursors move to the same rows of the wider layout.
	r := &v.cur
	r.fetch, r.dispatch, r.commit, r.rob, r.lsq = r.fetch/n*(n+1), r.dispatch/n*(n+1), r.commit/n*(n+1), r.rob/n*(n+1), r.lsq/n*(n+1)
	c := *v.lanes[src]
	c.col = n
	c.h = mem.Acquire(c.h.Config())
	c.h.CopyFrom(v.lanes[src].h)
	if c.memo != nil {
		c.memo = c.h.ICache()
	}
	v.lanes = append(v.lanes, &c)
	return &c
}

// fork resolves the split the hierarchy of the lane in column col reports:
// the lane keeps the first partition of its class and each further
// partition continues as a clone. A partition whose resumed interval
// accounting splits again forks in turn. It returns the clones.
func (v *vector) fork(col int) []*lane {
	var forks []*lane
	for pending := []int{col}; len(pending) > 0; {
		l := pending[len(pending)-1]
		pending = pending[:len(pending)-1]
		ic := v.lanes[l].h.ICache()
		for k := 1; k < ic.Partitions(); k++ {
			c := v.clone(l)
			forks = append(forks, c)
			if c.h.ICache().TakePartition(k) {
				pending = append(pending, c.col)
			}
		}
		if ic.TakePartition(0) {
			pending = append(pending, l)
		}
	}
	return forks
}

// tick forwards instrs instructions of progress to every lane's hierarchy
// at that lane's last fetch time, then forks each lane whose class splits,
// in column order. It returns the forks.
func (v *vector) tick(instrs uint64) []*lane {
	var split []int
	for j, ln := range v.lanes {
		if ln.h.Advance(instrs, v.s[ftRow*v.n+j]) {
			split = append(split, j)
		}
	}
	var forks []*lane
	for _, j := range split {
		forks = append(forks, v.fork(j)...)
	}
	return forks
}

// step advances every lane of the vector over a decoded chunk. outs holds
// the chunk's prediction outcomes for the vector's predictor group
// (predictChunk over the same buf) and douts its L1D outcomes for the
// vector's L1D group (l1dGroup.walk over the same buf), whose misses each
// lane charges to its own L2 and memory through mem.Hierarchy.L1DMiss.
//
// Each instruction is stepped once for the whole vector: the work the lanes
// share — the fetch-block transition, class, outcomes, operand rows and
// ring cursors — is done first, then the stage advance runs over every
// lane's timing rows. The lanes' dependency chains are independent, so
// they overlap in the host core's out-of-order window, and a branch on
// something the lanes share is mispredicted at most once per instruction,
// not once per lane. Data-dependent choices are not branches at all: an
// absent source operand reads zeroRow and an absent destination writes
// sinkRow, and the memory port and every max are picked by conditional
// moves.
//
// The chunk is stepped a tick segment at a time, each segment ending where
// the hierarchies' next tick falls. A tick at which a lane's class splits
// lands on an instruction every lane of the vector shares: the lane forks
// there (fork), and each clone joins the vector as a new column that steps
// on from the next instruction. step returns the forks.
func (v *vector) step(buf []isa.DecodedInstr, outs *[laneChunk]predOut, douts *[laneChunk]uint64) (forks []*lane) {
	cfg := &v.cfg
	var (
		s, n, lanes = v.s, v.n, v.lanes
		curBlock    = v.curBlock
		fetchGroups = v.res.FetchGroups
		shift       = cfg.BlockShift
		blockMask   = uint64(1)<<shift - 1
	)
	for k0 := 0; k0 < len(buf); {
		k1 := min(len(buf), k0+int(cfg.TickBatch-v.tickAccum))
		for k := k0; k < k1; k++ {
			e := &buf[k]

			// ---- Shared: fetch block, class, outcomes, operand rows ----
			// A sequential PC that is not block-aligned provably shares
			// the previous instruction's fetch block (isa.DecodedInstr.Seq;
			// a constant-false Seq is always correct), so the block
			// compare is skipped.
			var block uint64
			newBlock := false
			if pc := e.PC; !e.Seq || pc&blockMask == 0 {
				if block = pc >> shift; block != curBlock {
					curBlock = block
					fetchGroups++
					newBlock = true
				}
			}
			cls := e.Cls
			isMem := cls.IsMem()
			o, dout := outs[k], douts[k]
			fo, do, co, ro, lo := v.cur.fetch, v.cur.dispatch, v.cur.commit, v.cur.rob, v.cur.lsq

			for j := range n {
				// ---- Fetch ----
				f := max(s[ftRow*n+j], s[redirectRow*n+j], s[fo+j]+1)
				if newBlock {
					if ln := lanes[j]; ln.memo != nil && ln.memo.MemoHit(block) {
						ln.memoHits++
					} else if lat := ln.h.FetchBlock(block); lat > 0 {
						f += lat
						ln.stalls += lat
					}
				}
				s[fo+j] = f
				s[ftRow*n+j] = f

				// ---- Dispatch (in-order, ROB and LSQ occupancy) ----
				d := max(f+cfg.FrontendDepth, s[ro+j]+1, s[do+j]+1)
				if isMem {
					d = max(d, s[lo+j]+1)
				}
				s[do+j] = d

				// ---- Issue (dataflow + memory ports) ----
				is := max(d, s[v.srcOff[e.S1]+j], s[v.srcOff[e.S2]+j])
				if isMem {
					best := v.off.port + j
					avail := s[best]
					for p := best + n; p < v.off.rob; p += n {
						if a := s[p]; a < avail {
							best, avail = p, a
						}
					}
					is = max(is, avail)
					s[best] = is + 1
				}

				// ---- Execute/complete ----
				ct := is + cfg.Latency[cls]
				if dout != 0 {
					if m := lanes[j].h.L1DMiss(e.MemAddr, dout>>2, dout&l1dDirty != 0); cls == isa.Load {
						ct += m
					}
				}
				if o&predRedirect != 0 {
					s[redirectRow*n+j] = ct + cfg.RedirectPenalty
				}
				s[v.dstOff[e.Dst]+j] = ct

				// ---- Commit (in-order) ----
				c := max(ct+1, s[cmtRow*n+j], s[co+j]+1)
				s[co+j] = c
				s[ro+j] = c
				if isMem {
					s[lo+j] = c
				}
				s[cmtRow*n+j] = c
			}

			// Each ring's cursor wraps at the next ring's first row.
			if isMem {
				if v.cur.lsq += n; v.cur.lsq == v.off.reg {
					v.cur.lsq = v.off.lsq
				}
			}
			if v.cur.fetch += n; v.cur.fetch == v.off.dispatch {
				v.cur.fetch = v.off.fetch
			}
			if v.cur.dispatch += n; v.cur.dispatch == v.off.commit {
				v.cur.dispatch = v.off.dispatch
			}
			if v.cur.commit += n; v.cur.commit == v.off.port {
				v.cur.commit = v.off.commit
			}
			if v.cur.rob += n; v.cur.rob == v.off.lsq {
				v.cur.rob = v.off.rob
			}
		}
		if v.tickAccum += uint64(k1 - k0); v.tickAccum == cfg.TickBatch {
			v.tickAccum = 0
			if f := v.tick(cfg.TickBatch); f != nil {
				forks = append(forks, f...)
				s, n, lanes = v.s, v.n, v.lanes
			}
		}
		k0 = k1
	}
	v.curBlock, v.res.FetchGroups = curBlock, fetchGroups
	v.res.Instructions += uint64(len(buf))
	for _, ln := range lanes {
		if ln.recs != nil && v.res.Instructions >= ln.recNext {
			iv := ln.recSample()
			for ln.recNext <= v.res.Instructions {
				ln.recNext += iv
			}
		}
	}
	return forks
}

// tally adds a stepped chunk's class mix and its predictor group's
// mispredicts to the vector's counts.
func (v *vector) tally(mix chunkMix, mispredicts uint64) {
	v.res.Branches += mix.branches
	v.res.Loads += mix.loads
	v.res.Stores += mix.stores
	v.res.Mispredicts += mispredicts
}

// recSample snapshots the lane's hierarchy into the flight recorder of
// every class member the lane holds, and returns their sampling interval
// (one for the whole class: members differ only in bounds). The hierarchy
// fills the cache/policy fields; the lane overlays the vector's instruction
// count, its own cycles, and any memo hits not yet flushed into the cache
// statistics (AddMemoHits counts each hit as an access too, so pending
// hits are added to both fields — the sampled totals match the end-of-run
// accounting exactly).
func (ln *lane) recSample() uint64 {
	var s timeline.Sample
	ln.h.TimelineSnapshot(&s)
	s.Instructions = ln.v.res.Instructions
	s.Cycles = ln.cycles()
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

// cycles returns the lane's last commit time.
func (ln *lane) cycles() uint64 { return ln.v.s[cmtRow*ln.v.n+ln.col] }

// flush settles the vector at the end of the stream: every lane's pending
// memo hits go to its cache statistics and the trailing tick batch to its
// hierarchy. A trailing batch that ends a sense interval can split a lane's
// class like any other; flush then returns the forks, which have nothing
// left to flush.
func (v *vector) flush() []*lane {
	for _, ln := range v.lanes {
		if ln.memo != nil && ln.memoHits > 0 {
			ln.memo.AddMemoHits(ln.memoHits)
			ln.memoHits = 0
		}
	}
	n := v.tickAccum
	if n == 0 {
		return nil
	}
	v.tickAccum = 0
	return v.tick(n)
}

// finish assembles the lane's Result. The vector must not be stepped
// afterwards.
func (ln *lane) finish() Result {
	if ln.recs != nil {
		// Final flush after the trailing tick: the recorder folds a sample
		// at an already-recorded boundary into its last point, so the
		// series always re-aggregates exactly to the end-of-run counters.
		ln.recSample()
	}
	r := ln.v.res
	r.Cycles = ln.cycles()
	r.ICacheStalls = ln.stalls
	r.BPredStats = ln.v.bp.Stats()
	return r
}

// RunLanes consumes the chunk source once — a replay cursor, a generator
// stream, or any isa.Chunked stream — and advances one lane per pipeline in
// lock-step (pipelines with equal core configurations, predictor groups and
// L1D groups as one vector), returning the per-lane results: one per pipeline in input
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
// hierarchy follow the pipelines' in fork order: by chunk, then by vector
// in order of first pipeline, then by instruction, then by column. Each lane's members are
// its hierarchy's ICache().Members(). A pass over hierarchies of one member
// never forks.
//
// Cancellation is checked before the stream stage starts, before each
// chunk's decode — so an abort never pays for another decode — and after
// the lanes step each chunk; a non-cancellable context costs nothing. The
// stream stage reads at most one ring of chunks ahead of the lanes, so a
// cancellation that the source itself triggers may stop the lanes short of
// it. On cancellation the stream stage is stopped, every lane is finished
// (partial results) and the error wraps
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
	var vecs []*vector
	byCfg := make(map[bpred.Config]int, 1)
	// An L1D's dri.Config is its geometry (mem.L1DConfig minus the unused
	// Name): it never has resizing Params.
	byL1D := make(map[dri.Config]int, 1)
	byKey := make(map[vectorKey]*vector, 1)
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
		k := vectorKey{cfg: p.cfg, group: g, dgroup: dg}
		v := byKey[k]
		if v == nil {
			v = newVector(k, groups[g])
			byKey[k] = v
			vecs = append(vecs, v)
		}
		lanes[i] = v.add(p.h, p.recs)
	}
	for _, v := range vecs {
		v.start()
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
	ended := !aborted() && stepLanes(vecs, &lanes, startStream(src, groups, dgroups, done, ahead), aborted)
	if ended {
		for _, v := range vecs {
			lanes = append(lanes, v.flush()...)
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

// stepLanes is the lane stage: it steps every vector over each chunk of the
// slots the stream stage fills until the stream ends (true) or aborted
// reports a cancellation (false). The forks of each step join *lanes in
// the order they happen. The stream stage has exited when stepLanes
// returns, by a panic too, so the predictors are quiescent for finish.
func stepLanes(vecs []*vector, lanes *[]*lane, st *stream, aborted func() bool) bool {
	defer st.stop()
	for {
		s := st.next()
		for j := range s.n {
			buf := s.buf[j][:s.lens[j]]
			for _, v := range vecs {
				*lanes = append(*lanes, v.step(buf, &s.outs[v.group][j], &s.douts[v.dgroup][j])...)
				v.tally(s.mix[j], s.mis[v.group][j])
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
	// mix is each chunk's class mix and mis, per predictor group, each
	// chunk's mispredicts.
	mix [slotChunks]chunkMix
	mis [][slotChunks]uint64
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
	if cap(s.mis) < groups {
		s.mis = make([][slotChunks]uint64, groups)
	}
	s.mis = s.mis[:groups]
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
		mix := &s.mix[s.n]
		for g, bp := range groups {
			mix.branches, s.mis[g][s.n] = predictChunk(bp, buf[:k], &s.outs[g][s.n])
		}
		for g, dg := range dgroups {
			mix.loads, mix.stores = dg.walk(buf[:k], &s.douts[g][s.n])
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
