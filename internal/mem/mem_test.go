package mem

import (
	"testing"

	"dricache/internal/dri"
	"dricache/internal/policy"
)

func conv64K() dri.Config {
	return dri.Config{SizeBytes: 64 << 10, BlockBytes: 32, Assoc: 1, AddrBits: 32}
}

func newH(t *testing.T) *Hierarchy {
	t.Helper()
	return New(DefaultConfig(conv64K()))
}

func TestConfigCheck(t *testing.T) {
	cfg := DefaultConfig(conv64K())
	if err := cfg.Check(); err != nil {
		t.Fatal(err)
	}
	cfg.L2.BlockBytes = 16 // smaller than L1 blocks
	if cfg.Check() == nil {
		t.Fatal("accepted L2 block smaller than L1 block")
	}
}

func TestFetchLatencies(t *testing.T) {
	h := newH(t)
	// Cold fetch: L1I miss, L2 miss → 12 + 80 + 4×(64/8) = 124.
	if lat := h.FetchBlock(100); lat != 124 {
		t.Fatalf("cold fetch latency = %d, want 124", lat)
	}
	// Warm fetch: L1I hit → 0.
	if lat := h.FetchBlock(100); lat != 0 {
		t.Fatalf("warm fetch latency = %d, want 0", lat)
	}
	// Adjacent L1I block sharing the L2 block: L1I miss, L2 hit → 12.
	if lat := h.FetchBlock(101); lat != 12 {
		t.Fatalf("L2-hit fetch latency = %d, want 12", lat)
	}
	s := h.Stats()
	if s.L2AccessesFromI != 2 || s.MemAccesses != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestLoadLatencies(t *testing.T) {
	h := newH(t)
	if lat := h.Load(0x10000); lat != 124 {
		t.Fatalf("cold load latency = %d, want 124", lat)
	}
	if lat := h.Load(0x10000); lat != 0 {
		t.Fatalf("warm load latency = %d, want 0", lat)
	}
	// Same 64-byte L2 block, different 32-byte L1D block → L2 hit → 12.
	if lat := h.Load(0x10020); lat != 12 {
		t.Fatalf("L2-hit load latency = %d, want 12", lat)
	}
	if s := h.Stats(); s.L2AccessesFromD != 2 {
		t.Fatalf("L2-from-D accesses = %d, want 2", s.L2AccessesFromD)
	}
}

func TestStoreWritebackPath(t *testing.T) {
	h := newH(t)
	// Dirty a block, then evict it with conflicting fills: the writeback
	// must appear as an extra L2 access.
	h.Store(0)
	base := h.Stats().L2AccessesFromD
	// L1D is 64K 2-way with 32B blocks → 1024 sets; addresses 64K and 128K
	// apart conflict with set 0.
	h.Load(64 << 10)
	h.Load(128 << 10) // evicts the dirty block at address 0
	s := h.Stats()
	extra := s.L2AccessesFromD - base
	// Two demand fills plus one writeback.
	if extra != 3 {
		t.Fatalf("L2 accesses after dirty eviction = %d, want 3", extra)
	}
	if h.DCache().DataStats().Writebacks != 1 {
		t.Fatalf("writebacks = %d, want 1", h.DCache().DataStats().Writebacks)
	}
}

// TestDirtyWritebackWakeupNotCharged: a load whose L1D fill evicts a dirty
// victim into a drowsy L2 line pays only its own demand latency. The store
// buffer hides the writeback, wakeup included.
func TestDirtyWritebackWakeupNotCharged(t *testing.T) {
	cfg := DefaultConfig(conv64K())
	cfg.L2Policy = policy.Config{
		Kind: policy.Drowsy, IntervalInstructions: 100,
		WakeupCycles: 7, DrowsyLeakFraction: 0.15,
	}
	h := New(cfg)
	h.Store(0)          // dirty L1D block 0; its L2 block is filled
	h.Load(64 << 10)    // second way of L1D set 0
	h.Advance(100, 100) // every L2 line drops to low Vdd
	// Evicts dirty block 0: its writeback hits the drowsy L2 line and wakes
	// it; the demand access for 128K misses in L2.
	if lat := h.Load(128 << 10); lat != 124 {
		t.Fatalf("load latency = %d, want 124 (L2 miss, no writeback wakeup)", lat)
	}
	if w := h.L2PolicyStats().Wakeups; w != 1 {
		t.Fatalf("L2 wakeups = %d, want 1 (the writeback's)", w)
	}
}

func TestL1DColdMissThenHit(t *testing.T) {
	h := newH(t)
	if lat := h.Load(0x1000); lat == 0 {
		t.Fatal("cold load should miss")
	}
	if lat := h.Load(0x1000); lat != 0 {
		t.Fatal("second load should hit")
	}
	if lat := h.Load(0x101f); lat != 0 {
		t.Fatal("same 32-byte block should hit")
	}
	if lat := h.Load(0x1020); lat == 0 {
		t.Fatal("next block should miss")
	}
	if s := h.DCache().Stats(); s.Accesses != 4 || s.Misses != 2 {
		t.Fatalf("L1D stats = %+v, want 4 accesses 2 misses", s)
	}
}

func TestL1DConfigCheck(t *testing.T) {
	bad := []L1DConfig{
		{SizeBytes: 0, BlockBytes: 32, Assoc: 1},
		{SizeBytes: 1000, BlockBytes: 32, Assoc: 1},
		{SizeBytes: 1024, BlockBytes: 0, Assoc: 1},
		{SizeBytes: 1024, BlockBytes: 48, Assoc: 1},
		{SizeBytes: 1024, BlockBytes: 32, Assoc: 0},
		{SizeBytes: 64, BlockBytes: 64, Assoc: 2},
		{SizeBytes: 1024, BlockBytes: 32, Assoc: 3},
	}
	for i, l1d := range bad {
		cfg := DefaultConfig(conv64K())
		cfg.L1D = l1d
		if err := cfg.Check(); err == nil {
			t.Errorf("case %d: accepted invalid L1D %+v", i, l1d)
		}
	}
}

func TestL1DIsConventionalDataCache(t *testing.T) {
	h := newH(t)
	got := h.DCache().Config()
	if got.Sets() != 1024 || got.BlockBytes != 32 || got.Assoc != 2 {
		t.Fatalf("L1D geometry %+v, want 1024 sets of 2 32-byte ways", got)
	}
	if got.Params.Enabled {
		t.Fatal("L1D must not resize")
	}
	h.Advance(1_000_000, 1_000_000)
	if h.DCache().Stats().Intervals != 0 || h.DCache().ActiveBytes() != 64<<10 {
		t.Fatal("L1D ran interval machinery")
	}
}

func TestStoresReturnNoLatencyButCountTraffic(t *testing.T) {
	h := newH(t)
	h.Store(0x40000)
	if s := h.Stats(); s.L2AccessesFromD != 1 {
		t.Fatalf("store miss should access L2 once, got %d", s.L2AccessesFromD)
	}
}

func TestAdvanceDrivesDRIIntervals(t *testing.T) {
	l1i := dri.Config{
		SizeBytes: 64 << 10, BlockBytes: 32, Assoc: 1, AddrBits: 32,
		Params: dri.Params{
			Enabled: true, MissBound: 1000000, SizeBoundBytes: 1 << 10,
			SenseInterval: 100, Divisibility: 2,
			ThrottleSaturation: 7, ThrottleIntervals: 10,
		},
	}
	h := New(DefaultConfig(l1i))
	h.Advance(100, 100) // one interval, zero misses → downsize
	if h.ICache().ActiveSets() != h.ICache().Config().Sets()/2 {
		t.Fatal("Advance did not reach the DRI controller")
	}
	h.Finish(200)
	if h.ICache().AverageActiveFraction() >= 1 {
		t.Fatal("Finish did not close the active-fraction span")
	}
}

func TestL2SharedBetweenIAndD(t *testing.T) {
	h := newH(t)
	// An instruction fetch warms the L2; a load of the same 64-byte block
	// should then hit in L2.
	h.FetchBlock(0x1000 >> 5)
	if lat := h.Load(0x1020); lat != 12 {
		t.Fatalf("load after fetch of same L2 block: latency %d, want 12 (L2 hit)", lat)
	}
}

func TestAccessorsExposeCaches(t *testing.T) {
	h := newH(t)
	if h.ICache() == nil || h.DCache() == nil || h.L2() == nil {
		t.Fatal("nil cache accessors")
	}
	if h.L2().Config().SizeBytes != 1<<20 {
		t.Fatal("L2 config mismatch")
	}
	if got := h.DCache().Config(); got.Assoc != 2 || got.SizeBytes != 64<<10 {
		t.Fatalf("L1D config mismatch: %+v", got)
	}
}

func l2dri(senseInterval uint64) dri.Params {
	return dri.Params{
		Enabled: true, MissBound: 1 << 40, SizeBoundBytes: 64 << 10,
		SenseInterval: senseInterval, Divisibility: 2,
		ThrottleSaturation: 7, ThrottleIntervals: 10,
	}
}

func TestL2DRIDownsizesAndFlushesDirtyBlocks(t *testing.T) {
	cfg := DefaultConfig(conv64K())
	// An unreachable miss-bound forces a downsize at every interval.
	cfg.L2.Params = l2dri(100)
	h := New(cfg)

	// Dirty one block in the upper half of the L2's 4096 sets: it is gated
	// off by the first downsize and must be flushed to memory.
	h.L2().AccessData(3000, true)
	base := h.Stats()
	h.Advance(100, 100)
	if got, want := h.L2().ActiveSets(), cfg.L2.Sets()/2; got != want {
		t.Fatalf("L2 active sets after downsize = %d, want %d", got, want)
	}
	s := h.Stats()
	if s.L2ResizeWritebacks != 1 {
		t.Fatalf("L2 resize writebacks = %d, want 1", s.L2ResizeWritebacks)
	}
	if s.MemAccesses != base.MemAccesses+1 {
		t.Fatalf("resize writeback not charged as memory traffic: %+v", s)
	}
	if h.L2().DataStats().ResizeWritebacks != 1 {
		t.Fatal("L2 cache did not record the resize writeback")
	}
}

func TestL2DRIConventionalWhenDisabled(t *testing.T) {
	h := newH(t)
	h.Advance(1_000_000, 1_000_000)
	if got := h.L2().ActiveSets(); got != h.L2().Config().Sets() {
		t.Fatalf("conventional L2 resized to %d sets", got)
	}
	h.Finish(1_000_000)
	if f := h.L2().AverageActiveFraction(); f != 1 {
		t.Fatalf("conventional L2 average active fraction = %v, want 1", f)
	}
}

func TestL2DRIRespectsSizeBound(t *testing.T) {
	cfg := DefaultConfig(conv64K())
	cfg.L2.Params = l2dri(100)
	h := New(cfg)
	// Far more intervals than needed to reach the bound.
	for i := uint64(1); i <= 40; i++ {
		h.Advance(100, i*100)
	}
	minSets := cfg.L2.Params.SizeBoundBytes / (cfg.L2.BlockBytes * cfg.L2.Assoc)
	if got := h.L2().ActiveSets(); got != minSets {
		t.Fatalf("L2 active sets = %d, want size-bound floor %d", got, minSets)
	}
	if h.L2().ActiveBytes() != cfg.L2.Params.SizeBoundBytes {
		t.Fatalf("L2 active bytes = %d, want %d", h.L2().ActiveBytes(), cfg.L2.Params.SizeBoundBytes)
	}
}

func TestStatsTotals(t *testing.T) {
	var s Stats
	s.L2AccessesFromI = 3
	s.L2AccessesFromD = 4
	if s.L2Accesses() != 7 {
		t.Fatal("L2Accesses total wrong")
	}
}

var sink uint64

func BenchmarkFetchBlockHit(b *testing.B) {
	h := New(DefaultConfig(conv64K()))
	h.FetchBlock(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += h.FetchBlock(1)
	}
}

func BenchmarkLoadHit(b *testing.B) {
	h := New(DefaultConfig(conv64K()))
	h.Load(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += h.Load(64)
	}
}
