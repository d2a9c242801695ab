package trace

import (
	"reflect"
	"testing"
	"testing/quick"

	"dricache/internal/dri"
	"dricache/internal/isa"
)

func simpleProgram() Program {
	return Program{
		Name: "test", Class: ClassSmall, Seed: 1, Repeat: 1,
		Phases: []Phase{
			{Name: "only", Fraction: 1, CodeKB: 8, LoopBody: 30, LoopTrip: 10,
				CondEvery: 6, LoadFrac: 0.3, StoreFrac: 0.1, FPFrac: 0.1,
				DataKB: 256, DataStreamFrac: 0.5},
		},
	}
}

func collect(p Program, n uint64) []isa.Instr {
	s := p.Stream(n)
	out := make([]isa.Instr, 0, n)
	var ins isa.Instr
	for s.Next(&ins) {
		out = append(out, ins)
	}
	return out
}

func TestCheckValid(t *testing.T) {
	if err := simpleProgram().Check(); err != nil {
		t.Fatal(err)
	}
	for _, b := range Benchmarks() {
		if err := b.Check(); err != nil {
			t.Errorf("%s: %v", b.Name, err)
		}
	}
}

func TestCheckRejectsBadPrograms(t *testing.T) {
	mk := func(mut func(*Program)) Program {
		p := simpleProgram()
		mut(&p)
		return p
	}
	bad := []Program{
		mk(func(p *Program) { p.Name = "" }),
		mk(func(p *Program) { p.Phases = nil }),
		mk(func(p *Program) { p.Repeat = 0 }),
		mk(func(p *Program) { p.Phases[0].Fraction = 0 }),
		mk(func(p *Program) { p.Phases[0].CodeKB = 0 }),
		mk(func(p *Program) { p.Phases[0].LoopBody = 2 }),
		mk(func(p *Program) { p.Phases[0].LoopTrip = 0.5 }),
		mk(func(p *Program) { p.Phases[0].CondEvery = 1 }),
		mk(func(p *Program) { p.Phases[0].LoadFrac = 0.9; p.Phases[0].StoreFrac = 0.3 }),
		mk(func(p *Program) { p.Phases[0].DataKB = 0 }),
	}
	for i, p := range bad {
		if err := p.Check(); err == nil {
			t.Errorf("case %d: accepted invalid program", i)
		}
	}
}

func TestStreamExactBudget(t *testing.T) {
	for _, n := range []uint64{1, 100, 12345, 500000} {
		got := collect(simpleProgram(), n)
		if uint64(len(got)) != n {
			t.Fatalf("budget %d produced %d instructions", n, len(got))
		}
	}
}

func TestStreamDeterminism(t *testing.T) {
	a := collect(simpleProgram(), 50000)
	b := collect(simpleProgram(), 50000)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("instruction %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestSeedsProduceDifferentStreams(t *testing.T) {
	p1 := simpleProgram()
	p2 := simpleProgram()
	p2.Seed = 2
	a := collect(p1, 10000)
	b := collect(p2, 10000)
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	if same > len(a)/2 {
		t.Fatalf("different seeds produced %d/%d identical instructions", same, len(a))
	}
}

func TestPCsStayInDeclaredRegions(t *testing.T) {
	p := simpleProgram()
	lo := codeBase
	hi := codeBase + uint64(p.Phases[0].CodeKB)<<10
	for _, ins := range collect(p, 100000) {
		if ins.PC < lo || ins.PC >= hi+isa.InstrBytes {
			t.Fatalf("PC %#x outside region [%#x, %#x)", ins.PC, lo, hi)
		}
	}
}

func TestMemAddrsStayInDataSegment(t *testing.T) {
	p := simpleProgram()
	for _, ins := range collect(p, 100000) {
		if !ins.Class.IsMem() {
			continue
		}
		if ins.MemAddr < dataBase || ins.MemAddr >= dataBase+dataPhaseStride {
			t.Fatalf("data address %#x outside segment", ins.MemAddr)
		}
	}
}

func TestInstructionMixRoughlyMatchesPhase(t *testing.T) {
	p := simpleProgram()
	var loads, stores, fps, branches, total float64
	for _, ins := range collect(p, 200000) {
		total++
		switch {
		case ins.Class == isa.Load:
			loads++
		case ins.Class == isa.Store:
			stores++
		case ins.Class == isa.FPAdd || ins.Class == isa.FPMul || ins.Class == isa.FPDiv:
			fps++
		case ins.Class == isa.Branch:
			branches++
		}
	}
	// Branch slots are carved out first (1/CondEvery plus loop-backs), so
	// the mix applies to the remainder; allow generous tolerances.
	if r := loads / total; r < 0.15 || r > 0.35 {
		t.Errorf("load fraction = %v", r)
	}
	if r := stores / total; r < 0.04 || r > 0.18 {
		t.Errorf("store fraction = %v", r)
	}
	if r := branches / total; r < 0.10 || r > 0.30 {
		t.Errorf("branch fraction = %v", r)
	}
	if fps == 0 {
		t.Error("no FP instructions despite FPFrac > 0")
	}
}

func TestCallsAndReturnsBalance(t *testing.T) {
	p := simpleProgram()
	p.Phases[0].CallFrac = 0.5
	calls, rets := 0, 0
	for _, ins := range collect(p, 200000) {
		switch ins.Class {
		case isa.Call:
			calls++
		case isa.Ret:
			rets++
		}
	}
	if calls == 0 {
		t.Fatal("no calls generated with CallFrac=0.5")
	}
	if diff := calls - rets; diff < 0 || diff > 1 {
		t.Fatalf("calls %d and returns %d unbalanced", calls, rets)
	}
}

func TestLoopBackBranchesAreBackward(t *testing.T) {
	for _, ins := range collect(simpleProgram(), 50000) {
		if ins.Class == isa.Branch && ins.Taken && ins.Target < ins.PC {
			return // found at least one backward taken branch
		}
	}
	t.Fatal("no backward taken loop branches found")
}

func TestPhaseScheduleRespectsFractions(t *testing.T) {
	p := Program{
		Name: "twophase", Class: ClassPhased, Seed: 3, Repeat: 1,
		Phases: []Phase{
			{Name: "a", Fraction: 0.25, CodeKB: 4, CodeOffsetKB: 0, LoopBody: 20,
				LoopTrip: 5, CondEvery: 6, LoadFrac: 0.2, StoreFrac: 0.1,
				DataKB: 64, DataStreamFrac: 1},
			{Name: "b", Fraction: 0.75, CodeKB: 4, CodeOffsetKB: 512, LoopBody: 20,
				LoopTrip: 5, CondEvery: 6, LoadFrac: 0.2, StoreFrac: 0.1,
				DataKB: 64, DataStreamFrac: 1},
		},
	}
	const n = 400000
	inB := 0
	boundary := codeBase + 512<<10
	for _, ins := range collect(p, n) {
		if ins.PC >= boundary {
			inB++
		}
	}
	if frac := float64(inB) / n; frac < 0.70 || frac > 0.80 {
		t.Fatalf("phase-b share = %v, want ~0.75", frac)
	}
}

func TestRepeatCyclesPhases(t *testing.T) {
	p := Program{
		Name: "iter", Class: ClassPhased, Seed: 4, Repeat: 3,
		Phases: []Phase{
			{Name: "a", Fraction: 0.5, CodeKB: 4, LoopBody: 20, LoopTrip: 5,
				CondEvery: 6, LoadFrac: 0.2, StoreFrac: 0.1, DataKB: 64, DataStreamFrac: 1},
			{Name: "b", Fraction: 0.5, CodeKB: 4, CodeOffsetKB: 512, LoopBody: 20,
				LoopTrip: 5, CondEvery: 6, LoadFrac: 0.2, StoreFrac: 0.1,
				DataKB: 64, DataStreamFrac: 1},
		},
	}
	// Count transitions between the two regions: with 3 repeats there must
	// be at least 5 boundary crossings (a→b→a→b→a→b).
	boundary := codeBase + 512<<10
	var last bool
	transitions := 0
	first := true
	for _, ins := range collect(p, 300000) {
		cur := ins.PC >= boundary
		if first {
			last, first = cur, false
			continue
		}
		if cur != last {
			transitions++
			last = cur
		}
	}
	if transitions < 5 {
		t.Fatalf("phase transitions = %d, want >= 5 for 3 repeats", transitions)
	}
}

// driMissRate runs the PC stream of a program through a fixed-size
// direct-mapped i-cache and returns misses per block access.
func driMissRate(p Program, sizeBytes int, n uint64) float64 {
	c := dri.New(dri.Config{SizeBytes: sizeBytes, BlockBytes: 32, Assoc: 1, AddrBits: 32})
	s := p.Stream(n)
	var ins isa.Instr
	last := ^uint64(0)
	for s.Next(&ins) {
		if b := ins.PC >> 5; b != last {
			last = b
			c.AccessBlock(b)
		}
	}
	return c.Stats().MissRate()
}

// TestConventionalMissRatesUnderOnePercent pins the paper's baseline: "the
// conventional i-cache miss rate is less than 1% for all the benchmarks
// (highest being 0.7% for perl)".
func TestConventionalMissRatesUnderOnePercent(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration sweep is slow")
	}
	for _, b := range Benchmarks() {
		rate := driMissRate(b, 64<<10, 2_000_000)
		if rate >= 0.011 {
			t.Errorf("%s: conventional 64K miss rate %.4f, want < ~0.01", b.Name, rate)
		}
	}
}

// TestClassFootprints verifies each class's defining i-cache behaviour.
func TestClassFootprints(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration sweep is slow")
	}
	const n = 1_500_000
	for _, b := range ByClass(ClassSmall) {
		// Class 1 fits in 8K: the miss rate there must already be small.
		if rate := driMissRate(b, 8<<10, n); rate > 0.04 {
			t.Errorf("%s (class 1): 8K miss rate %.4f too high", b.Name, rate)
		}
	}
	for _, b := range ByClass(ClassLarge) {
		// Class 2 must pay substantially for an eighth of the cache: at 8K
		// the miss rate must sit well above the 64K rate in absolute terms
		// (the 64K rate at this short run length is mostly cold misses).
		r8 := driMissRate(b, 8<<10, n)
		r64 := driMissRate(b, 64<<10, n)
		if r8-r64 < 0.005 {
			t.Errorf("%s (class 2): 8K rate %.4f not >> 64K rate %.4f", b.Name, r8, r64)
		}
	}
}

// TestFppppNeedsFullCache pins fpppp's special role: "fpppp requires the
// full-sized i-cache, so reducing the size dramatically increases the miss
// rate".
func TestFppppNeedsFullCache(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration sweep is slow")
	}
	fpppp, err := ByName("fpppp")
	if err != nil {
		t.Fatal(err)
	}
	r32 := driMissRate(fpppp, 32<<10, 1_000_000)
	r64 := driMissRate(fpppp, 64<<10, 1_000_000)
	if r32 < 0.5 {
		t.Fatalf("fpppp at 32K should thrash: miss rate %.4f", r32)
	}
	if r64 > 0.02 {
		t.Fatalf("fpppp at 64K should fit: miss rate %.4f", r64)
	}
}

func TestBenchmarkRegistry(t *testing.T) {
	bs := Benchmarks()
	if len(bs) != 15 {
		t.Fatalf("benchmark count = %d, want 15 (SPEC95 minus three)", len(bs))
	}
	for _, c := range []SPECClass{ClassSmall, ClassLarge, ClassPhased} {
		if got := len(ByClass(c)); got != 5 {
			t.Errorf("%v has %d benchmarks, want 5", c, got)
		}
	}
	if _, err := ByName("fpppp"); err != nil {
		t.Error(err)
	}
	if _, err := ByName("doom"); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if len(Names()) != 15 || len(SortedNames()) != 15 {
		t.Error("name listings wrong")
	}
	seen := map[uint64]bool{}
	for _, b := range bs {
		if seen[b.Seed] {
			t.Errorf("duplicate seed %d", b.Seed)
		}
		seen[b.Seed] = true
	}
}

// TestByNameReturnsACopy: the benchmark table is built once, and what a
// lookup returns is the caller's own — changing a returned Program, its
// phases included, or a Benchmarks list changes no later lookup.
func TestByNameReturnsACopy(t *testing.T) {
	want, err := ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	want = want.clone()
	p, _ := ByName("gcc")
	p.Name, p.Seed = "mutated", 1
	p.Phases[0].Fraction, p.Phases[0].CodeKB = 0.5, 1
	p.Phases = append(p.Phases[:1], Phase{Name: "extra"})
	bs := Benchmarks()
	for i := range bs {
		bs[i].Phases[0].LoopTrip = -1
	}
	got, err := ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ByName after mutation = %+v, want %+v", got, want)
	}
	if again := Benchmarks(); !reflect.DeepEqual(again[0], benchTable[0]) || again[0].Phases[0].LoopTrip == -1 {
		t.Fatal("mutating a Benchmarks list changed the table")
	}
	if n := testing.AllocsPerRun(100, func() { ByName("gcc") }); n > 1 {
		t.Errorf("ByName allocates %v times per call, want at most 1 (its phase list)", n)
	}
}

func TestSPECClassString(t *testing.T) {
	if ClassSmall.String() != "class1-small" ||
		ClassLarge.String() != "class2-large" ||
		ClassPhased.String() != "class3-phased" {
		t.Fatal("class names wrong")
	}
	if SPECClass(9).String() != "SPECClass(9)" {
		t.Fatal("unknown class formatting")
	}
}

// TestStreamQuick property-checks arbitrary valid programs: exact budgets,
// PCs word-aligned, register operands in range.
func TestStreamQuick(t *testing.T) {
	f := func(seed uint64, codeExp, bodySeed, tripSeed uint8) bool {
		p := Program{
			Name: "q", Class: ClassSmall, Seed: seed, Repeat: 1,
			Phases: []Phase{{
				Name: "q", Fraction: 1,
				CodeKB:    1 << (codeExp % 7), // 1..64K
				LoopBody:  4 + int(bodySeed)%200,
				LoopTrip:  1 + float64(tripSeed%50),
				CondEvery: 5, LoadFrac: 0.3, StoreFrac: 0.1,
				DataKB: 128, DataStreamFrac: 0.5,
			}},
		}
		n := uint64(2000)
		got := collect(p, n)
		if uint64(len(got)) != n {
			return false
		}
		for _, ins := range got {
			if ins.PC%isa.InstrBytes != 0 {
				return false
			}
			for _, r := range []uint8{ins.Src1, ins.Src2, ins.Dst} {
				if r != isa.NoReg && r >= isa.RegCount {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
