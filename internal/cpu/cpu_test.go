package cpu

import (
	"testing"

	"dricache/internal/dri"
	"dricache/internal/isa"
	"dricache/internal/mem"
	"dricache/internal/xrand"
)

// memConfig is a small hierarchy whose every L1 miss costs exactly lat
// cycles: the L2 charges lat and main memory is free, so lat 0 is a perfect
// memory. The 128K direct-mapped i-cache holds every test stream's code.
func memConfig(lat uint64) mem.Config {
	c := mem.DefaultConfig(dri.Config{SizeBytes: 128 << 10, BlockBytes: 32, Assoc: 1, AddrBits: 32})
	c.L2HitLatency = lat
	c.MemLatencyBase, c.MemLatencyPer8B = 0, 0
	return c
}

// oneBlockL1I shrinks the i-cache to one block, so every fetch-block
// transition misses.
func oneBlockL1I(c mem.Config) mem.Config {
	c.L1I.SizeBytes = c.L1I.BlockBytes
	return c
}

// oneBlockL1D shrinks the d-cache to one block, so every access to a block
// other than the last one touched misses.
func oneBlockL1D(c mem.Config) mem.Config {
	c.L1D.SizeBytes, c.L1D.Assoc = c.L1D.BlockBytes, 1
	return c
}

// perfect returns a hierarchy that never charges a cycle.
func perfect() *mem.Hierarchy { return mem.New(memConfig(0)) }

// warmed returns a hierarchy over c with every fetch block of s already in
// the i-cache, so a data-latency test sees a perfect i-cache whatever the
// L2 latency.
func warmed(c mem.Config, s *isa.SliceStream) *mem.Hierarchy {
	h := mem.New(c)
	for _, in := range s.Instrs {
		h.FetchBlock(in.PC >> DefaultConfig().BlockShift)
	}
	return h
}

// independent builds n IntALU instructions with disjoint registers
// (unbounded ILP), 8 per 32-byte block.
func independent(n int) *isa.SliceStream {
	ins := make([]isa.Instr, n)
	for i := range ins {
		ins[i] = isa.Instr{
			PC:    uint64(i * isa.InstrBytes),
			Class: isa.IntALU,
			Src1:  isa.NoReg, Src2: isa.NoReg,
			Dst: uint8(i % 32),
		}
	}
	return &isa.SliceStream{Instrs: ins}
}

// chain builds n IntALU instructions forming one dependence chain (ILP=1).
func chain(n int) *isa.SliceStream {
	ins := make([]isa.Instr, n)
	for i := range ins {
		ins[i] = isa.Instr{
			PC:    uint64(i * isa.InstrBytes),
			Class: isa.IntALU,
			Src1:  1, Src2: isa.NoReg,
			Dst: 1,
		}
	}
	return &isa.SliceStream{Instrs: ins}
}

func run(t *testing.T, cfg Config, s isa.Stream, h *mem.Hierarchy) Result {
	t.Helper()
	return New(cfg, h, h, nil, h).Run(s)
}

func TestConfigCheck(t *testing.T) {
	if err := DefaultConfig().Check(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultConfig()
	bad.ROBSize = 0
	if bad.Check() == nil {
		t.Fatal("accepted zero ROB")
	}
	bad = DefaultConfig()
	bad.FetchWidth = 0
	if bad.Check() == nil {
		t.Fatal("accepted zero width")
	}
	bad = DefaultConfig()
	bad.TickBatch = 0
	if bad.Check() == nil {
		t.Fatal("accepted zero tick batch")
	}
}

func TestIndependentInstructionsReachWidth(t *testing.T) {
	res := run(t, DefaultConfig(), independent(100000), perfect())
	if res.Instructions != 100000 {
		t.Fatalf("instructions = %d", res.Instructions)
	}
	// 8-wide machine on unlimited ILP: IPC near 8.
	if ipc := res.IPC(); ipc < 7.0 || ipc > 8.01 {
		t.Fatalf("IPC = %v, want ~8", ipc)
	}
}

func TestDependenceChainSerializes(t *testing.T) {
	res := run(t, DefaultConfig(), chain(50000), perfect())
	// One-cycle ALU chain: one instruction per cycle regardless of width.
	if ipc := res.IPC(); ipc < 0.95 || ipc > 1.05 {
		t.Fatalf("chain IPC = %v, want ~1", ipc)
	}
}

func TestNarrowMachineLimitsIPC(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FetchWidth, cfg.DispatchWidth, cfg.IssueWidth, cfg.CommitWidth = 2, 2, 2, 2
	res := run(t, cfg, independent(40000), perfect())
	if ipc := res.IPC(); ipc > 2.01 {
		t.Fatalf("2-wide IPC = %v, want <= 2", ipc)
	}
}

func TestMulLatencyChain(t *testing.T) {
	n := 10000
	ins := make([]isa.Instr, n)
	for i := range ins {
		ins[i] = isa.Instr{PC: uint64(i * 4), Class: isa.IntMul, Src1: 1, Src2: isa.NoReg, Dst: 1}
	}
	res := run(t, DefaultConfig(), &isa.SliceStream{Instrs: ins}, perfect())
	// 3-cycle multiplies back to back: ~1/3 IPC.
	if ipc := res.IPC(); ipc < 0.30 || ipc > 0.36 {
		t.Fatalf("mul chain IPC = %v, want ~0.33", ipc)
	}
}

func TestICacheMissesStallFetch(t *testing.T) {
	fast := run(t, DefaultConfig(), independent(80000), perfect())
	slow := run(t, DefaultConfig(), independent(80000), mem.New(oneBlockL1I(memConfig(12))))
	// 8 instrs per block: a 12-cycle stall per block turns 1 cycle/block
	// into ~13 → at least 8x slower.
	if ratio := float64(slow.Cycles) / float64(fast.Cycles); ratio < 8 {
		t.Fatalf("i-cache stalls too cheap: slowdown %v", ratio)
	}
	if slow.ICacheStalls == 0 {
		t.Fatal("stall cycles not accounted")
	}
}

func TestFetchGroupsCountBlockTransitions(t *testing.T) {
	h := perfect()
	res := run(t, DefaultConfig(), independent(8000), h)
	// 8 instructions per 32-byte block → 1000 transitions.
	if acc := h.ICache().Stats().Accesses; res.FetchGroups != 1000 || acc != 1000 {
		t.Fatalf("fetch groups = %d (i-cache accesses %d), want 1000", res.FetchGroups, acc)
	}
}

func TestLoadLatencyChain(t *testing.T) {
	n := 5000
	ins := make([]isa.Instr, n)
	for i := range ins {
		// Each load's address register depends on the previous load.
		ins[i] = isa.Instr{PC: uint64(i * 4), Class: isa.Load, MemAddr: uint64(i * 64),
			Src1: 1, Src2: isa.NoReg, Dst: 1}
	}
	s := &isa.SliceStream{Instrs: ins}
	fast := run(t, DefaultConfig(), s, warmed(oneBlockL1D(memConfig(0)), s))
	s.Reset()
	slow := run(t, DefaultConfig(), s, warmed(oneBlockL1D(memConfig(12)), s))
	perFast := float64(fast.Cycles) / float64(n)
	perSlow := float64(slow.Cycles) / float64(n)
	if perSlow-perFast < 11 || perSlow-perFast > 13 {
		t.Fatalf("dependent load latency delta = %v, want ~12", perSlow-perFast)
	}
}

func TestIndependentLoadsOverlap(t *testing.T) {
	n := 5000
	ins := make([]isa.Instr, n)
	for i := range ins {
		ins[i] = isa.Instr{PC: uint64(i * 4), Class: isa.Load, MemAddr: uint64(i * 64),
			Src1: isa.NoReg, Src2: isa.NoReg, Dst: uint8(i % 32)}
	}
	s := &isa.SliceStream{Instrs: ins}
	res := run(t, DefaultConfig(), s, warmed(oneBlockL1D(memConfig(12)), s))
	// Two memory ports, latency hidden by overlap: ~0.5 cycles/instr, far
	// below the serialized 13.
	if per := float64(res.Cycles) / float64(n); per > 2 {
		t.Fatalf("independent loads should overlap: %v cycles/load", per)
	}
}

func TestMemPortsLimitThroughput(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MemPorts = 1
	n := 20000
	ins := make([]isa.Instr, n)
	for i := range ins {
		ins[i] = isa.Instr{PC: uint64(i * 4), Class: isa.Load, MemAddr: uint64(i * 32),
			Src1: isa.NoReg, Src2: isa.NoReg, Dst: uint8(i % 32)}
	}
	res := run(t, cfg, &isa.SliceStream{Instrs: ins}, perfect())
	if ipc := res.IPC(); ipc > 1.01 {
		t.Fatalf("1 memory port should cap load IPC at 1, got %v", ipc)
	}
}

func TestROBStallsBehindLongLatencyOp(t *testing.T) {
	cfg := DefaultConfig()
	n := 4000
	ins := make([]isa.Instr, n)
	// First instruction: a load that takes 2000 cycles. The rest are
	// independent ALU ops; only ROBSize-1 of them can slip past before
	// dispatch stalls.
	ins[0] = isa.Instr{PC: 0, Class: isa.Load, MemAddr: 0, Src1: isa.NoReg, Src2: isa.NoReg, Dst: 40}
	for i := 1; i < n; i++ {
		ins[i] = isa.Instr{PC: uint64(i * 4), Class: isa.IntALU, Src1: isa.NoReg, Src2: isa.NoReg, Dst: uint8(i % 32)}
	}
	s := &isa.SliceStream{Instrs: ins}
	res := run(t, cfg, s, warmed(memConfig(2000), s))
	// Everything beyond the ROB window waits for the slow load to commit:
	// cycles ≈ 2000 + (n-ROB)/8, certainly more than 2000.
	if res.Cycles < 2000 {
		t.Fatalf("cycles = %d, ROB should not hide a %d-cycle head-of-queue op", res.Cycles, 2000)
	}
	if res.Cycles > 2000+uint64(n) {
		t.Fatalf("cycles = %d implausibly large", res.Cycles)
	}
}

func TestMispredictsCostCycles(t *testing.T) {
	// A loop body of 64 static instructions re-executed repeatedly, so
	// branch PCs repeat and the BTB warms (a one-shot unique-PC stream
	// would measure cold-BTB effects instead of direction prediction).
	mkBranches := func(pattern func(i int) bool) *isa.SliceStream {
		n := 40000
		ins := make([]isa.Instr, n)
		for i := range ins {
			pc := uint64((i % 64) * 4)
			if i%4 == 3 {
				ins[i] = isa.Instr{PC: pc, Class: isa.Branch,
					Taken: pattern(i), Target: pc + 64, Src1: isa.NoReg, Src2: isa.NoReg, Dst: isa.NoReg}
			} else {
				ins[i] = isa.Instr{PC: pc, Class: isa.IntALU,
					Src1: isa.NoReg, Src2: isa.NoReg, Dst: uint8(i % 32)}
			}
		}
		return &isa.SliceStream{Instrs: ins}
	}
	rng := xrand.New(9)
	predictable := run(t, DefaultConfig(), mkBranches(func(i int) bool { return true }), perfect())
	random := run(t, DefaultConfig(), mkBranches(func(i int) bool { return rng.Bool(0.5) }), perfect())
	if random.Mispredicts <= predictable.Mispredicts {
		t.Fatalf("random branches should mispredict more: %d vs %d",
			random.Mispredicts, predictable.Mispredicts)
	}
	if random.Cycles <= predictable.Cycles {
		t.Fatalf("mispredicts should cost cycles: %d vs %d", random.Cycles, predictable.Cycles)
	}
}

func TestCallReturnPairsPredicted(t *testing.T) {
	// call → body → ret, repeated; the RAS should make returns free after
	// the BTB warms.
	var ins []isa.Instr
	pc := uint64(0)
	for i := 0; i < 1000; i++ {
		ins = append(ins, isa.Instr{PC: 0x1000, Class: isa.Call, Target: 0x8000,
			Src1: isa.NoReg, Src2: isa.NoReg, Dst: isa.NoReg})
		ins = append(ins, isa.Instr{PC: 0x8000, Class: isa.IntALU,
			Src1: isa.NoReg, Src2: isa.NoReg, Dst: 1})
		ins = append(ins, isa.Instr{PC: 0x8004, Class: isa.Ret, Target: 0x1000 + isa.InstrBytes,
			Src1: isa.NoReg, Src2: isa.NoReg, Dst: isa.NoReg})
		pc += 12
	}
	res := run(t, DefaultConfig(), &isa.SliceStream{Instrs: ins}, perfect())
	if res.BPredStats.RASMispredict > 2 {
		t.Fatalf("RAS mispredicts = %d, want ~0", res.BPredStats.RASMispredict)
	}
}

// TestTicksReachHierarchy: the pipeline ticks its hierarchy with every
// instruction, in TickBatch batches stamped with the fetch cycle. The DRI
// i-cache's sense interval (40) does not divide the tick batch (64), so it
// ends n/40 intervals only if the trailing partial batch is delivered too;
// and with a miss-bound no interval reaches, it downsizes at the end of
// each of its first intervals, so time spent at the first two sizes shows
// the ticks arrived mid-run at distinct, non-zero cycles.
func TestTicksReachHierarchy(t *testing.T) {
	const n = 1000
	cfg := DefaultConfig()
	cfg.TickBatch = 64
	c := memConfig(0)
	c.L1I.Params = dri.Params{
		Enabled: true, MissBound: n, SizeBoundBytes: 1 << 10,
		SenseInterval: 40, Divisibility: 2,
		ThrottleSaturation: 7, ThrottleIntervals: 10,
	}
	h := mem.New(c)
	res := run(t, cfg, independent(n), h)
	if got, want := h.ICache().Stats().Intervals, res.Instructions/40; res.Instructions != n || got != want {
		t.Fatalf("%d instructions ended %d sense intervals, want %d of %d", res.Instructions, got, want, n)
	}
	spans := h.ICache().SizeResidency()
	if spans[c.L1I.SizeBytes] == 0 || spans[c.L1I.SizeBytes/2] == 0 {
		t.Fatalf("size residency %v: ticks did not arrive mid-run with fetch cycles", spans)
	}
}

func TestStoresDontStall(t *testing.T) {
	n := 20000
	ins := make([]isa.Instr, n)
	for i := range ins {
		ins[i] = isa.Instr{PC: uint64(i * 4), Class: isa.Store, MemAddr: uint64(i * 32),
			Src1: 1, Src2: isa.NoReg, Dst: isa.NoReg}
	}
	s := &isa.SliceStream{Instrs: ins}
	res := run(t, DefaultConfig(), s, warmed(oneBlockL1D(memConfig(100)), s))
	// Store latency is absorbed by the store buffer; throughput is limited
	// only by the two memory ports.
	if ipc := res.IPC(); ipc < 1.8 {
		t.Fatalf("stores should not stall the pipeline: IPC %v", ipc)
	}
	if res.Stores != uint64(n) {
		t.Fatalf("stores = %d, want %d", res.Stores, n)
	}
}

func TestDeterminism(t *testing.T) {
	mk := func() *isa.SliceStream {
		rng := xrand.New(123)
		n := 30000
		ins := make([]isa.Instr, n)
		for i := range ins {
			switch rng.Intn(5) {
			case 0:
				ins[i] = isa.Instr{PC: uint64(i * 4), Class: isa.Load,
					MemAddr: uint64(rng.Intn(1 << 20)), Src1: uint8(rng.Intn(32)), Src2: isa.NoReg, Dst: uint8(rng.Intn(32))}
			case 1:
				ins[i] = isa.Instr{PC: uint64(i * 4), Class: isa.Branch,
					Taken: rng.Bool(0.6), Target: uint64(rng.Intn(1 << 16)), Src1: uint8(rng.Intn(32)), Src2: isa.NoReg, Dst: isa.NoReg}
			default:
				ins[i] = isa.Instr{PC: uint64(i * 4), Class: isa.IntALU,
					Src1: uint8(rng.Intn(32)), Src2: uint8(rng.Intn(32)), Dst: uint8(rng.Intn(32))}
			}
		}
		return &isa.SliceStream{Instrs: ins}
	}
	r1 := run(t, DefaultConfig(), mk(), perfect())
	r2 := run(t, DefaultConfig(), mk(), perfect())
	if r1 != r2 {
		t.Fatalf("nondeterministic results:\n%+v\n%+v", r1, r2)
	}
}

func TestResultIPCZeroCycles(t *testing.T) {
	var r Result
	if r.IPC() != 0 {
		t.Fatal("IPC of empty result should be 0")
	}
}

func TestEmptyStream(t *testing.T) {
	res := run(t, DefaultConfig(), &isa.SliceStream{}, perfect())
	if res.Instructions != 0 || res.Cycles != 0 {
		t.Fatalf("empty stream result = %+v", res)
	}
}
