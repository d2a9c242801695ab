package cpu

import (
	"testing"
	"testing/quick"

	"dricache/internal/isa"
	"dricache/internal/trace"
	"dricache/internal/xrand"
)

// randomStream builds a random but structurally valid instruction stream.
func randomStream(seed uint64, n int) *isa.SliceStream {
	rng := xrand.New(seed)
	ins := make([]isa.Instr, n)
	for i := range ins {
		pc := uint64((i % 512) * 4)
		switch rng.Intn(8) {
		case 0:
			ins[i] = isa.Instr{PC: pc, Class: isa.Load,
				MemAddr: uint64(rng.Intn(1 << 18)), Src1: uint8(rng.Intn(32)), Src2: isa.NoReg, Dst: uint8(rng.Intn(32))}
		case 1:
			ins[i] = isa.Instr{PC: pc, Class: isa.Store,
				MemAddr: uint64(rng.Intn(1 << 18)), Src1: uint8(rng.Intn(32)), Src2: uint8(rng.Intn(32)), Dst: isa.NoReg}
		case 2:
			ins[i] = isa.Instr{PC: pc, Class: isa.Branch,
				Taken: rng.Bool(0.5), Target: pc + 8, Src1: uint8(rng.Intn(32)), Src2: isa.NoReg, Dst: isa.NoReg}
		case 3:
			ins[i] = isa.Instr{PC: pc, Class: isa.FPMul,
				Src1: uint8(32 + rng.Intn(16)), Src2: uint8(32 + rng.Intn(16)), Dst: uint8(32 + rng.Intn(16))}
		default:
			ins[i] = isa.Instr{PC: pc, Class: isa.IntALU,
				Src1: uint8(rng.Intn(32)), Src2: uint8(rng.Intn(32)), Dst: uint8(rng.Intn(32))}
		}
	}
	return &isa.SliceStream{Instrs: ins}
}

// TestCyclesBoundedQuick property-checks the fundamental timing bounds on
// random streams: at least 1/width cycles per instruction, and no more
// than the fully serialized worst case.
func TestCyclesBoundedQuick(t *testing.T) {
	cfg := DefaultConfig()
	f := func(seed uint64) bool {
		const n = 3000
		res := run(t, cfg, randomStream(seed, n), perfect())
		if res.Instructions != n {
			return false
		}
		minCycles := uint64(n / cfg.FetchWidth)
		// Worst case: every instruction fully serialized through the
		// longest latency plus a mispredict redirect.
		maxCycles := uint64(n) * (cfg.Latency[isa.FPDiv] + cfg.FrontendDepth + cfg.RedirectPenalty + 2)
		return res.Cycles >= minCycles && res.Cycles <= maxCycles
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestSlowerMemoryNeverSpeedsUpQuick: adding memory latency can never
// reduce total cycles (monotonicity of the timing model).
func TestSlowerMemoryNeverSpeedsUpQuick(t *testing.T) {
	cfg := DefaultConfig()
	f := func(seed uint64, latSeed uint8) bool {
		const n = 2000
		lat := uint64(latSeed % 50)
		s := randomStream(seed, n)
		fast := run(t, cfg, s, warmed(oneBlockL1D(memConfig(0)), s))
		s.Reset()
		slow := run(t, cfg, s, warmed(oneBlockL1D(memConfig(lat)), s))
		return slow.Cycles >= fast.Cycles
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestWiderMachineNeverSlowerQuick: doubling every width and buffer can
// never increase cycles.
func TestWiderMachineNeverSlowerQuick(t *testing.T) {
	narrow := DefaultConfig()
	narrow.FetchWidth, narrow.DispatchWidth, narrow.IssueWidth, narrow.CommitWidth = 2, 2, 2, 2
	narrow.ROBSize, narrow.LSQSize = 32, 32
	wide := DefaultConfig()
	f := func(seed uint64) bool {
		const n = 2000
		rn := run(t, narrow, randomStream(seed, n), perfect())
		rw := run(t, wide, randomStream(seed, n), perfect())
		return rw.Cycles <= rn.Cycles
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestTickBatchDoesNotChangeTiming: the tick batch size is a bookkeeping
// knob and must not perturb cycle counts (only tick granularity).
func TestTickBatchDoesNotChangeTiming(t *testing.T) {
	prog, err := trace.ByName("li")
	if err != nil {
		t.Fatal(err)
	}
	runBatch := func(batch uint64) Result {
		cfg := DefaultConfig()
		cfg.TickBatch = batch
		return run(t, cfg, prog.Stream(100_000), perfect())
	}
	a, b, c := runBatch(1), runBatch(64), runBatch(4096)
	if a.Cycles != b.Cycles || b.Cycles != c.Cycles {
		t.Fatalf("tick batch changed timing: %d / %d / %d", a.Cycles, b.Cycles, c.Cycles)
	}
}

// TestCommitOrderMonotone verifies in-order commit semantics directly on a
// real workload: the reported cycle count must equal the last commit and
// instructions must all retire.
func TestCommitOrderMonotone(t *testing.T) {
	prog, err := trace.ByName("compress")
	if err != nil {
		t.Fatal(err)
	}
	res := run(t, DefaultConfig(), prog.Stream(200_000), perfect())
	if res.Instructions != 200_000 {
		t.Fatalf("retired %d of 200000", res.Instructions)
	}
	if res.Cycles == 0 || res.IPC() <= 0 {
		t.Fatal("degenerate result")
	}
}
