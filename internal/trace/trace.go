// Package trace generates the synthetic SPEC95 stand-in workloads.
//
// SPEC95 binaries (and a compiler/ISA ecosystem to run them) are not
// available, so each benchmark is modeled as a generative program whose
// *instruction working-set behaviour over time* matches the paper's
// published characterization (§5.3): phases with a code footprint, loop
// structure, call density, branch predictability, and data footprint. The
// DRI i-cache responds to exactly these properties; DESIGN.md documents the
// substitution.
//
// The execution model: a program is a sequence of phases (optionally
// repeated, for iterative solvers like su2cor). Within a phase, execution
// is a chain of loops. Each loop has a start PC drawn from the phase's
// primary (or secondary) code region, a body length, and a trip count; the
// body is walked sequentially with a class mix of ALU/FP/load/store work,
// a conditional branch every few instructions, and a backward loop branch.
// Loops may be entered by call (exercising the return-address stack) or by
// jump. Loads and stores stream through or randomly probe the phase's data
// region. Everything is driven by a deterministic per-program PRNG, so a
// given (program, instruction budget) pair always yields the identical
// stream.
package trace

import (
	"fmt"

	"dricache/internal/isa"
	"dricache/internal/xrand"
)

// SPECClass is the paper's three-way benchmark classification (§5.3).
type SPECClass int

const (
	// ClassSmall programs "primarily require a small i-cache throughout
	// their execution" (applu, compress, li, mgrid, swim).
	ClassSmall SPECClass = 1
	// ClassLarge programs "primarily require a large i-cache throughout
	// their execution" (apsi, fpppp, go, m88ksim, perl).
	ClassLarge SPECClass = 2
	// ClassPhased programs "exhibit distinct phases with diverse i-cache
	// size requirements" (gcc, hydro2d, ijpeg, su2cor, tomcatv).
	ClassPhased SPECClass = 3
)

// String implements fmt.Stringer.
func (c SPECClass) String() string {
	switch c {
	case ClassSmall:
		return "class1-small"
	case ClassLarge:
		return "class2-large"
	case ClassPhased:
		return "class3-phased"
	default:
		return fmt.Sprintf("SPECClass(%d)", int(c))
	}
}

// Phase describes one execution phase of a program.
type Phase struct {
	// Name labels the phase in diagnostics.
	Name string
	// Fraction is this phase's share of the program's dynamic instructions
	// (fractions are normalized, so they need not sum to 1).
	Fraction float64

	// CodeKB is the primary code region size; loop starts are drawn from
	// it. CodeOffsetKB places the region relative to the program's code
	// base, letting phases share or separate their footprints.
	CodeKB       int
	CodeOffsetKB int

	// HotKB, if nonzero, is a hot subset at the start of the primary
	// region from which HotFrac of the loops are drawn — the working-set
	// gradient that lets a resized cache hold the hot code and absorb
	// misses on the cold tail within the miss-bound.
	HotKB   int
	HotFrac float64

	// AltKB, if nonzero, is a secondary code region (helpers, libraries)
	// at AltOffsetKB; AltFrac of the loops come from it. Offsetting it so
	// its cache indices alias the primary region models the conflict-miss
	// behaviour the paper reports for gcc/go/hydro2d/su2cor/swim/tomcatv.
	AltKB       int
	AltOffsetKB int
	AltFrac     float64

	// LoopBody is the mean loop body length in instructions; LoopTrip the
	// mean trip count (both geometrically distributed).
	LoopBody int
	LoopTrip float64

	// CallFrac is the probability a loop is entered via call/return.
	CallFrac float64

	// CondEvery places a conditional branch every ~N body instructions;
	// CondNoise is the probability such a branch has a random direction
	// (otherwise it falls through, predictably).
	CondEvery int
	CondNoise float64

	// Instruction mix for non-branch body slots.
	LoadFrac  float64
	StoreFrac float64
	FPFrac    float64

	// DataKB is the data working set; DataStreamFrac of the loops stream
	// sequentially through it (the rest probe it at random).
	DataKB         int
	DataStreamFrac float64
}

// Program is a complete synthetic benchmark.
type Program struct {
	// Name is the SPEC95 benchmark this program stands in for.
	Name string
	// Class is the paper's classification.
	Class SPECClass
	// Seed fixes the program's PRNG stream.
	Seed uint64
	// Repeat runs the phase list this many times (>=1), modeling
	// iterative outer loops (time steps, solver iterations).
	Repeat int
	// Phases in execution order.
	Phases []Phase
}

// maxRegionKB bounds code/data region sizes and offsets (1 GB — far above
// any real footprint). Together with the NaN-rejecting range checks below
// it makes Check a complete gate: any Program that passes Check streams
// without panics or address wraparound (the fuzz tests exercise this).
const maxRegionKB = 1 << 20

// frac01 reports whether v is a valid probability (rejects NaN).
func frac01(v float64) bool { return v >= 0 && v <= 1 }

// Check validates the program definition.
func (p Program) Check() error {
	if p.Name == "" {
		return fmt.Errorf("trace: unnamed program")
	}
	if len(p.Phases) == 0 {
		return fmt.Errorf("trace %s: no phases", p.Name)
	}
	if p.Repeat < 1 || p.Repeat > 1<<20 {
		return fmt.Errorf("trace %s: repeat %d out of range [1, 2^20]", p.Name, p.Repeat)
	}
	for i, ph := range p.Phases {
		switch {
		case !(ph.Fraction > 0 && ph.Fraction <= 1e6):
			return fmt.Errorf("trace %s: phase %d fraction %v out of (0, 1e6]", p.Name, i, ph.Fraction)
		case ph.CodeKB <= 0 || ph.CodeKB > maxRegionKB:
			return fmt.Errorf("trace %s: phase %d code size %d out of range", p.Name, i, ph.CodeKB)
		case ph.CodeOffsetKB < 0 || ph.CodeOffsetKB > maxRegionKB:
			return fmt.Errorf("trace %s: phase %d code offset %d out of range", p.Name, i, ph.CodeOffsetKB)
		case ph.HotKB < 0 || ph.HotKB > maxRegionKB:
			return fmt.Errorf("trace %s: phase %d hot size %d out of range", p.Name, i, ph.HotKB)
		case !frac01(ph.HotFrac):
			return fmt.Errorf("trace %s: phase %d hot fraction %v out of [0, 1]", p.Name, i, ph.HotFrac)
		case ph.AltKB < 0 || ph.AltKB > maxRegionKB:
			return fmt.Errorf("trace %s: phase %d alt size %d out of range", p.Name, i, ph.AltKB)
		case ph.AltOffsetKB < 0 || ph.AltOffsetKB > maxRegionKB:
			return fmt.Errorf("trace %s: phase %d alt offset %d out of range", p.Name, i, ph.AltOffsetKB)
		case !frac01(ph.AltFrac):
			return fmt.Errorf("trace %s: phase %d alt fraction %v out of [0, 1]", p.Name, i, ph.AltFrac)
		case ph.LoopBody < 4:
			return fmt.Errorf("trace %s: phase %d loop body %d < 4", p.Name, i, ph.LoopBody)
		case !(ph.LoopTrip >= 1 && ph.LoopTrip <= 1e9):
			return fmt.Errorf("trace %s: phase %d loop trip %v out of [1, 1e9]", p.Name, i, ph.LoopTrip)
		case !frac01(ph.CallFrac):
			return fmt.Errorf("trace %s: phase %d call fraction %v out of [0, 1]", p.Name, i, ph.CallFrac)
		case ph.CondEvery < 2:
			return fmt.Errorf("trace %s: phase %d cond every %d < 2", p.Name, i, ph.CondEvery)
		case !frac01(ph.CondNoise):
			return fmt.Errorf("trace %s: phase %d cond noise %v out of [0, 1]", p.Name, i, ph.CondNoise)
		case !frac01(ph.LoadFrac) || !frac01(ph.StoreFrac) || !frac01(ph.FPFrac):
			return fmt.Errorf("trace %s: phase %d mix fractions out of [0, 1]", p.Name, i)
		case ph.LoadFrac+ph.StoreFrac+ph.FPFrac > 1:
			return fmt.Errorf("trace %s: phase %d mix sums over 1", p.Name, i)
		case ph.DataKB <= 0 || ph.DataKB > maxRegionKB:
			return fmt.Errorf("trace %s: phase %d data size %d out of range", p.Name, i, ph.DataKB)
		case !frac01(ph.DataStreamFrac):
			return fmt.Errorf("trace %s: phase %d stream fraction %v out of [0, 1]", p.Name, i, ph.DataStreamFrac)
		}
	}
	return nil
}

// Layout constants: code and data live in disjoint address ranges.
const (
	codeBase = uint64(0x0040_0000)
	dataBase = uint64(0x4000_0000)
	// dataPhaseStride separates the data segments of successive phases.
	dataPhaseStride = uint64(8 << 20)
)

// Stream returns a deterministic instruction stream of exactly totalInstrs
// dynamic instructions (the budget is cut at the end of the stream
// regardless of loop state).
func (p Program) Stream(totalInstrs uint64) isa.Stream {
	if err := p.Check(); err != nil {
		panic(err)
	}
	g := &gen{prog: p, remaining: totalInstrs, rng: xrand.New(p.Seed), prevPC: ^uint64(isa.InstrBytes - 1)}
	g.buildSchedule(totalInstrs)
	g.enterPhase(0)
	return g
}

// schedEntry is one phase occurrence with its instruction budget.
type schedEntry struct {
	phase  *Phase
	budget uint64
	// dataSeg is the base of this occurrence's data segment.
	dataSeg uint64
}

// gen is the stream generator state machine.
type gen struct {
	prog      Program
	rng       *xrand.RNG
	remaining uint64

	sched    []schedEntry
	schedPos int
	phase    *Phase
	phaseRem uint64

	// Code regions for the current phase.
	priBase, priSize uint64
	altBase, altSize uint64

	// Data region state.
	dataSeg    uint64
	dataSize   uint64
	streamPos  uint64
	streaming  bool
	dataStride uint64
	// winBase is the hot window for non-streaming (pointer-ish) loops;
	// random accesses mostly stay inside it, giving the ~95% L1 d-cache
	// hit rates real SPEC95 codes show.
	winBase uint64

	// Loop state.
	inLoop    bool
	loopStart uint64
	bodyLen   int // instructions per iteration, including the back branch
	bodyPos   int
	tripsLeft int
	viaCall   bool
	retTo     uint64 // return address once the loop ends

	// Pending control transfer to emit before the next loop.
	pending    [2]isa.DecodedInstr
	pendingLen int
	pendingPos int

	pc uint64
	// prevPC is the PC of the last emitted instruction (−InstrBytes before
	// the first), from which each instruction's Seq flag is derived.
	prevPC uint64

	// Register dataflow cursors (integer and FP windows).
	intCursor uint8
	fpCursor  uint8

	// Post-loop return emission.
	needRet bool
}

// buildSchedule expands phases×repeats into instruction budgets.
func (g *gen) buildSchedule(total uint64) {
	var fracSum float64
	for _, ph := range g.prog.Phases {
		fracSum += ph.Fraction
	}
	n := len(g.prog.Phases) * g.prog.Repeat
	g.sched = make([]schedEntry, 0, n)
	perCycle := float64(total) / float64(g.prog.Repeat)
	for rep := 0; rep < g.prog.Repeat; rep++ {
		for i := range g.prog.Phases {
			ph := &g.prog.Phases[i]
			g.sched = append(g.sched, schedEntry{
				phase:   ph,
				budget:  uint64(perCycle * ph.Fraction / fracSum),
				dataSeg: dataBase + uint64(i)*dataPhaseStride,
			})
		}
	}
}

// enterPhase switches to schedule entry i.
func (g *gen) enterPhase(i int) {
	g.schedPos = i
	e := &g.sched[i]
	g.phase = e.phase
	g.phaseRem = e.budget
	ph := e.phase
	g.priBase = codeBase + uint64(ph.CodeOffsetKB)<<10
	g.priSize = uint64(ph.CodeKB) << 10
	g.altBase = codeBase + uint64(ph.AltOffsetKB)<<10
	g.altSize = uint64(ph.AltKB) << 10
	g.dataSeg = e.dataSeg
	g.dataSize = uint64(ph.DataKB) << 10
	if g.pc < g.priBase || g.pc >= g.priBase+g.priSize {
		g.pc = g.priBase
	}
	g.inLoop = false
	g.pendingLen = 0
	g.needRet = false
}

// nextLoop prepares the next loop and queues the control transfer into it.
func (g *gen) nextLoop() {
	ph := g.phase
	base, size := g.priBase, g.priSize
	if g.altSize > 0 && g.rng.Float64() < ph.AltFrac {
		base, size = g.altBase, g.altSize
	} else if ph.HotKB > 0 && g.rng.Float64() < ph.HotFrac {
		if hot := uint64(ph.HotKB) << 10; hot < size {
			size = hot
		}
	}
	g.bodyLen = g.rng.Geometric(float64(ph.LoopBody))
	if g.bodyLen < 4 {
		g.bodyLen = 4
	}
	maxBody := int(size / isa.InstrBytes)
	if g.bodyLen > maxBody {
		g.bodyLen = maxBody
	}
	// Place the body fully inside the region.
	span := size - uint64(g.bodyLen)*isa.InstrBytes
	var off uint64
	if span > 0 {
		off = uint64(g.rng.Intn(int(span/isa.InstrBytes))) * isa.InstrBytes
	}
	g.loopStart = base + off
	g.tripsLeft = g.rng.Geometric(ph.LoopTrip)
	g.bodyPos = 0

	// Data access mode for this loop.
	g.streaming = g.rng.Float64() < ph.DataStreamFrac
	g.dataStride = 8
	if g.streaming && g.rng.Bool(0.05) {
		g.dataStride = 32 // occasional wide stride: worse d-cache locality
	}
	// The hot data window for pointer-ish loops drifts slowly — on the
	// order of once per several tens of thousands of instructions, the
	// rate at which real pointer-chasing code migrates between heap
	// regions. (Hopping per loop would put short-loop benchmarks in a
	// permanent cold-miss storm.)
	if !g.streaming && (g.winBase == 0 || g.rng.Bool(0.002)) {
		if g.dataSize > hotWindow {
			chunks := int((g.dataSize - hotWindow) / hotWindow)
			if chunks > 0 {
				g.winBase = uint64(g.rng.Intn(chunks)) * hotWindow
			}
		}
	}

	// Control transfer into the loop.
	g.viaCall = g.rng.Float64() < ph.CallFrac
	callSite := g.pc
	if g.viaCall {
		g.pending[0] = isa.DecodedInstr{
			PC: callSite, Cls: isa.Call, Target: g.loopStart,
			S1: isa.NoReg, S2: isa.NoReg, Dst: isa.NoReg,
		}
		g.retTo = callSite + isa.InstrBytes
		g.pendingLen = 1
	} else if g.loopStart != callSite+isa.InstrBytes {
		g.pending[0] = isa.DecodedInstr{
			PC: callSite, Cls: isa.Jump, Target: g.loopStart,
			S1: isa.NoReg, S2: isa.NoReg, Dst: isa.NoReg,
		}
		g.pendingLen = 1
	} else {
		g.pendingLen = 0
	}
	g.pendingPos = 0
	g.inLoop = true
	g.pc = g.loopStart
}

// intReg returns a destination register in the integer window and advances
// the dataflow cursor.
func (g *gen) intDst() uint8 {
	g.intCursor++
	return 8 + g.intCursor%24
}

// intSrc returns a recently written integer register. Dependence distances
// of a dozen instructions yield the instruction-level parallelism of
// compiled loop code, keeping the core execution-rich enough that fetch
// stalls actually cost time (the effect the paper measures).
func (g *gen) intSrc() uint8 {
	d := uint8(g.rng.Intn(12)) + 1
	return 8 + (g.intCursor-d)%24
}

func (g *gen) fpDst() uint8 {
	g.fpCursor++
	return 40 + g.fpCursor%20
}

func (g *gen) fpSrc() uint8 {
	d := uint8(g.rng.Intn(10)) + 1
	return 40 + (g.fpCursor-d)%20
}

// hotWindow is the resident working window of non-streaming data loops.
const hotWindow = uint64(32 << 10)

// memAddr produces the next data address for this loop. Streaming loops
// advance through the region with heavy within-block reuse (several array
// elements per cache block, as compiled inner loops do); non-streaming
// loops probe a mostly-resident hot window with occasional far misses.
func (g *gen) memAddr() uint64 {
	if g.streaming {
		if g.rng.Bool(0.2) {
			g.streamPos += g.dataStride
			if g.streamPos >= g.dataSize {
				g.streamPos = 0
			}
		}
		// Revisit the current block with element-level jitter.
		return g.dataSeg + (g.streamPos &^ 31) + uint64(g.rng.Intn(4))<<3
	}
	if g.dataSize <= hotWindow {
		return g.dataSeg + uint64(g.rng.Intn(int(g.dataSize>>3)))<<3
	}
	if g.rng.Bool(0.94) {
		return g.dataSeg + g.winBase + uint64(g.rng.Intn(int(hotWindow>>3)))<<3
	}
	return g.dataSeg + uint64(g.rng.Intn(int(g.dataSize>>3)))<<3
}

// Next implements isa.Stream.
func (g *gen) Next(ins *isa.Instr) bool {
	var e isa.DecodedInstr
	if !g.fill(&e) {
		return false
	}
	g.prevPC = e.PC
	*ins = isa.Instr{
		PC: e.PC, MemAddr: e.MemAddr, Target: e.Target,
		Class: e.Cls, Taken: e.Taken,
		Src1: e.S1, Src2: e.S2, Dst: e.Dst,
	}
	return true
}

// NextChunk implements isa.ChunkSource: the generated instructions are
// written straight into buf, field for field what recording the stream and
// decoding it with isa.ReplayCursor.NextChunk would produce — Seq included,
// set by the recorder's rule (PC == previous PC + InstrBytes) — so the lane
// executor runs a bypassed stream exactly as it runs a replayed one.
func (g *gen) NextChunk(buf []isa.DecodedInstr) int {
	n := 0
	for n < len(buf) {
		e := &buf[n]
		if !g.fill(e) {
			break
		}
		e.Seq = e.PC == g.prevPC+isa.InstrBytes
		g.prevPC = e.PC
		n++
	}
	return n
}

// fill is the generator state machine: it writes the next instruction of
// the stream into *e (Seq left false) and reports false at end of stream.
func (g *gen) fill(e *isa.DecodedInstr) bool {
	if g.remaining == 0 {
		return false
	}

	// Phase exhaustion: move to the next scheduled phase.
	for g.phaseRem == 0 {
		if g.schedPos+1 >= len(g.sched) {
			// Last phase absorbs any rounding remainder.
			g.phaseRem = g.remaining
			break
		}
		g.enterPhase(g.schedPos + 1)
	}

	// Pending control transfers (jump/call into a loop, ret out of one).
	if g.pendingPos < g.pendingLen {
		*e = g.pending[g.pendingPos]
		g.pendingPos++
		g.consume()
		return true
	}

	if g.needRet {
		g.needRet = false
		*e = isa.DecodedInstr{
			PC: g.pc, Cls: isa.Ret, Target: g.retTo,
			S1: isa.NoReg, S2: isa.NoReg, Dst: isa.NoReg,
		}
		g.pc = g.retTo
		g.consume()
		return true
	}

	if !g.inLoop {
		g.nextLoop()
		if g.pendingPos < g.pendingLen {
			*e = g.pending[g.pendingPos]
			g.pendingPos++
			g.consume()
			return true
		}
	}

	ph := g.phase

	// Loop-back branch at the end of the body.
	if g.bodyPos == g.bodyLen-1 {
		taken := g.tripsLeft > 1
		*e = isa.DecodedInstr{
			PC: g.pc, Cls: isa.Branch, Taken: taken, Target: g.loopStart,
			S1: g.intSrc(), S2: isa.NoReg, Dst: isa.NoReg,
		}
		if taken {
			g.tripsLeft--
			g.bodyPos = 0
			g.pc = g.loopStart
		} else {
			// Loop done: fall through; queue the return if call-entered.
			g.inLoop = false
			g.pc += isa.InstrBytes
			if g.viaCall {
				g.needRet = true
			}
		}
		g.consume()
		return true
	}

	// Conditional branch sprinkled through the body.
	if g.bodyPos%ph.CondEvery == ph.CondEvery-1 {
		taken := false
		if ph.CondNoise > 0 && g.rng.Float64() < ph.CondNoise {
			taken = g.rng.Bool(0.5)
		}
		*e = isa.DecodedInstr{
			PC: g.pc, Cls: isa.Branch, Taken: taken, Target: g.pc + 2*isa.InstrBytes,
			S1: g.intSrc(), S2: isa.NoReg, Dst: isa.NoReg,
		}
		if taken {
			// Short forward skip: consume an extra body slot.
			g.pc += 2 * isa.InstrBytes
			g.bodyPos += 2
			if g.bodyPos >= g.bodyLen-1 {
				g.bodyPos = g.bodyLen - 1
			}
		} else {
			g.pc += isa.InstrBytes
			g.bodyPos++
		}
		g.consume()
		return true
	}

	// Plain body instruction: draw from the mix.
	r := g.rng.Float64()
	switch {
	case r < ph.LoadFrac:
		*e = isa.DecodedInstr{
			PC: g.pc, Cls: isa.Load, MemAddr: g.memAddr(),
			S1: g.intSrc(), S2: isa.NoReg, Dst: g.intDst(),
		}
	case r < ph.LoadFrac+ph.StoreFrac:
		*e = isa.DecodedInstr{
			PC: g.pc, Cls: isa.Store, MemAddr: g.memAddr(),
			S1: g.intSrc(), S2: g.intSrc(), Dst: isa.NoReg,
		}
	case r < ph.LoadFrac+ph.StoreFrac+ph.FPFrac:
		cls := isa.FPAdd
		switch g.rng.Intn(8) {
		case 0:
			cls = isa.FPDiv
		case 1, 2, 3:
			cls = isa.FPMul
		}
		*e = isa.DecodedInstr{
			PC: g.pc, Cls: cls,
			S1: g.fpSrc(), S2: g.fpSrc(), Dst: g.fpDst(),
		}
	default:
		cls := isa.IntALU
		if g.rng.Bool(0.06) {
			cls = isa.IntMul
		}
		src2 := uint8(isa.NoReg) // immediate operand
		if g.rng.Bool(0.5) {
			src2 = g.intSrc()
		}
		*e = isa.DecodedInstr{
			PC: g.pc, Cls: cls,
			S1: g.intSrc(), S2: src2, Dst: g.intDst(),
		}
	}
	g.pc += isa.InstrBytes
	g.bodyPos++
	g.consume()
	return true
}

// consume charges one instruction against the phase and total budgets.
func (g *gen) consume() {
	g.remaining--
	if g.phaseRem > 0 {
		g.phaseRem--
	}
}
