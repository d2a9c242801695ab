package dri

import (
	"testing"
	"testing/quick"

	"dricache/internal/xrand"
)

func dcfg(interval, missBound uint64, sizeBound int) Config {
	p := DefaultParams(interval)
	p.MissBound = missBound
	p.SizeBoundBytes = sizeBound
	return Config{SizeBytes: 64 << 10, BlockBytes: 32, Assoc: 2, AddrBits: 32, Params: p}
}

func TestDataCacheReadWrite(t *testing.T) {
	d := NewData(dcfg(1000, 100, 1<<10))
	if d.AccessData(10, true) {
		t.Fatal("cold write should miss")
	}
	if !d.AccessData(10, false) {
		t.Fatal("read after write should hit")
	}
	if d.DirtyBlocks() != 1 {
		t.Fatalf("dirty blocks = %d, want 1", d.DirtyBlocks())
	}
	if !d.AccessData(10, true) {
		t.Fatal("write hit expected")
	}
	s := d.DataStats()
	if s.Writes != 2 || s.Accesses != 3 || s.Misses != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestDataCacheDemandWriteback(t *testing.T) {
	d := NewData(dcfg(1000, 100, 1<<10))
	var wbBlocks []uint64
	var wbCauses []WritebackCause
	d.SetWritebackHandler(func(b uint64, cause WritebackCause) {
		wbBlocks = append(wbBlocks, b)
		wbCauses = append(wbCauses, cause)
	})
	sets := uint64(d.Config().Sets())
	// Fill both ways of set 0 dirty, then evict with a third conflicting
	// block.
	d.AccessData(0, true)
	d.AccessData(sets, true)
	d.AccessData(2*sets, false) // evicts LRU (block 0)
	if len(wbBlocks) != 1 || wbBlocks[0] != 0 || wbCauses[0] != WBDemand {
		t.Fatalf("writebacks = %v (causes %v), want demand writeback of block 0",
			wbBlocks, wbCauses)
	}
	if d.DataStats().Writebacks != 1 {
		t.Fatalf("writeback count = %d", d.DataStats().Writebacks)
	}
}

func TestDataCacheCleanEvictionSilent(t *testing.T) {
	d := NewData(dcfg(1000, 100, 1<<10))
	called := false
	d.SetWritebackHandler(func(uint64, WritebackCause) { called = true })
	sets := uint64(d.Config().Sets())
	d.AccessData(0, false)
	d.AccessData(sets, false)
	d.AccessData(2*sets, false)
	if called || d.DataStats().Writebacks != 0 {
		t.Fatal("clean evictions must not write back")
	}
}

func TestDataCacheResizeWritebacks(t *testing.T) {
	// Dirty every set, then force a downsize: the gated half's dirty
	// blocks must be written back with the resize flag.
	cfg := dcfg(1000, 1<<20, 32<<10) // always downsize, floor 32K
	d := NewData(cfg)
	sets := d.Config().Sets() // 1024 sets, 2 ways
	for b := 0; b < sets; b++ {
		d.AccessData(uint64(b), true) // one dirty block per set
	}
	var resizeWBs int
	d.SetWritebackHandler(func(b uint64, cause WritebackCause) {
		if cause == WBResize {
			resizeWBs++
		}
	})
	d.Advance(1000, 1000) // downsize 64K -> 32K gates sets 512..1023
	if d.ActiveBytes() != 32<<10 {
		t.Fatalf("active = %d", d.ActiveBytes())
	}
	if resizeWBs != sets/2 {
		t.Fatalf("resize writebacks = %d, want %d (one per gated set)", resizeWBs, sets/2)
	}
	if got := d.DataStats().ResizeWritebacks; got != uint64(sets/2) {
		t.Fatalf("ResizeWritebacks stat = %d, want %d", got, sets/2)
	}
	// The surviving half keeps its dirty blocks.
	if d.DirtyBlocks() != sets/2 {
		t.Fatalf("dirty blocks after downsize = %d, want %d", d.DirtyBlocks(), sets/2)
	}
}

func TestDataCacheGatedSetsDropCleanly(t *testing.T) {
	cfg := dcfg(1000, 1<<20, 32<<10)
	d := NewData(cfg)
	sets := d.Config().Sets()
	// Clean blocks everywhere: a downsize must trigger no writebacks.
	for b := 0; b < sets; b++ {
		d.AccessData(uint64(b), false)
	}
	d.Advance(1000, 1000)
	if d.DataStats().ResizeWritebacks != 0 {
		t.Fatal("clean gated sets must not write back")
	}
}

func TestDataCacheWorkingSetAdaptation(t *testing.T) {
	// The mechanism works end to end: a small dirty working set lets the
	// d-cache downsize while preserving correctness of the dirty state.
	cfg := dcfg(5000, 200, 4<<10)
	d := NewData(cfg)
	rng := xrand.New(31)
	cycles := uint64(0)
	for i := 0; i < 100; i++ {
		for j := 0; j < 5000; j++ {
			block := uint64(rng.Intn(128)) // 4K working set
			d.AccessData(block, rng.Bool(0.3))
		}
		cycles += 5000
		d.Advance(5000, cycles)
	}
	d.Finish(cycles)
	if d.ActiveBytes() != 4<<10 {
		t.Fatalf("active = %d, want 4K", d.ActiveBytes())
	}
	if d.AverageActiveFraction() > 0.3 {
		t.Fatalf("avg active fraction %v too high", d.AverageActiveFraction())
	}
	// No dirty block may live in a gated set.
	for s := d.ActiveSets(); s < d.Config().Sets(); s++ {
		for w := 0; w < d.Config().Assoc; w++ {
			i := s*d.Config().Assoc + w
			if d.dirty[i] && d.valid[i] {
				t.Fatalf("dirty block alive in gated set %d", s)
			}
		}
	}
}

func TestDataCacheDeterminism(t *testing.T) {
	run := func() DataStats {
		d := NewData(dcfg(500, 60, 2<<10))
		rng := xrand.New(77)
		cycles := uint64(0)
		for i := 0; i < 30000; i++ {
			d.AccessData(uint64(rng.Intn(4096)), rng.Bool(0.25))
			if i%500 == 499 {
				cycles += 500
				d.Advance(500, cycles)
			}
		}
		return d.DataStats()
	}
	if run() != run() {
		t.Fatal("data cache must be deterministic")
	}
}

// The tests below hold DataCache, resizing off, to the conventional cache
// it also serves as (the system's L1 d-cache).

func TestNewDataPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewData should panic on an invalid config")
		}
	}()
	NewData(Config{SizeBytes: 7})
}

func TestDataCacheLRUReplacement(t *testing.T) {
	// 2-way cache: three conflicting blocks force the least recent out.
	d := NewData(conventionalData(1<<10, 2))
	sets := uint64(d.Config().Sets())
	block := func(i uint64) uint64 { return i * sets } // all in set 0
	d.AccessData(block(1), false)
	d.AccessData(block(2), false)
	d.AccessData(block(1), false) // 1 is now MRU
	d.AccessData(block(3), false) // evicts 2
	if !d.Probe(block(1)) {
		t.Fatal("block 1 (MRU) should survive")
	}
	if d.Probe(block(2)) {
		t.Fatal("block 2 (LRU) should be evicted")
	}
	if !d.Probe(block(3)) {
		t.Fatal("block 3 should be resident")
	}
}

func TestDataCacheWriteHitMarksDirty(t *testing.T) {
	d := NewData(conventionalData(64, 1)) // 2 sets, direct-mapped
	var wb []uint64
	d.SetWritebackHandler(func(b uint64, _ WritebackCause) { wb = append(wb, b) })
	d.AccessData(0, false) // clean fill
	if !d.AccessData(0, true) {
		t.Fatal("write to a resident block should hit")
	}
	d.AccessData(2, false) // conflicts with block 0 in set 0
	if len(wb) != 1 || wb[0] != 0 {
		t.Fatalf("writebacks = %v, want block 0 dirtied by the write hit", wb)
	}
}

func TestDataCacheWritebackOnDirtyEviction(t *testing.T) {
	d := NewData(conventionalData(64, 1)) // 2 sets, direct-mapped
	var wb []uint64
	d.SetWritebackHandler(func(b uint64, _ WritebackCause) { wb = append(wb, b) })
	d.AccessData(0, true) // write-allocate, dirty
	if d.AccessData(2, false) {
		t.Fatal("conflicting block should miss")
	}
	if len(wb) != 1 || wb[0] != 0 {
		t.Fatalf("writebacks = %v, want block 0", wb)
	}
	if d.DataStats().Writebacks != 1 {
		t.Fatalf("writebacks = %d, want 1", d.DataStats().Writebacks)
	}
}

func TestDataCacheCleanEvictionNoWriteback(t *testing.T) {
	d := NewData(conventionalData(64, 1))
	var wb []uint64
	d.SetWritebackHandler(func(b uint64, _ WritebackCause) { wb = append(wb, b) })
	d.AccessData(0, false)
	d.AccessData(2, false) // evicts clean block 0
	if len(wb) != 0 || d.DataStats().Writebacks != 0 {
		t.Fatal("clean victim must not write back")
	}
	if d.Probe(0) || !d.Probe(2) {
		t.Fatal("block 0 should be evicted and block 2 resident")
	}
}

func TestDataCacheConventionalDeterminism(t *testing.T) {
	run := func() DataStats {
		d := NewData(conventionalData(1<<10, 2))
		rng := xrand.New(42)
		for i := 0; i < 5000; i++ {
			d.AccessData(uint64(rng.Intn(1<<9)), rng.Bool(0.2))
		}
		return d.DataStats()
	}
	if run() != run() {
		t.Fatal("same stream must give same stats")
	}
}

func TestProbeDoesNotDisturbState(t *testing.T) {
	d := NewData(conventionalData(1<<10, 2))
	d.AccessData(2, false)
	before := d.DataStats()
	if !d.Probe(2) || d.Probe(1<<10) {
		t.Fatal("probe results wrong")
	}
	if d.DataStats() != before {
		t.Fatal("probe must not change statistics")
	}
}

func TestDataCacheWorkingSetFitsAfterWarmup(t *testing.T) {
	// A working set no larger than capacity must stop missing once warm.
	d := NewData(conventionalData(4<<10, 4))
	blocks := (4 << 10) / 32
	for pass := 0; pass < 3; pass++ {
		for i := 0; i < blocks; i++ {
			d.AccessData(uint64(i), pass == 1)
		}
	}
	if s := d.DataStats(); s.Misses != uint64(blocks) || s.Writebacks != 0 {
		t.Fatalf("stats = %+v, want %d cold misses and no writebacks", s, blocks)
	}
}

// pingPong alternates two blocks that share a set and returns the misses.
func pingPong(assoc int) uint64 {
	d := NewData(conventionalData(1<<10, assoc))
	a, b := uint64(0), uint64(d.Config().Sets())
	for i := 0; i < 10; i++ {
		d.AccessData(a, false)
		d.AccessData(b, false)
	}
	return d.Stats().Misses
}

func TestDataCacheThrashingDirectMapped(t *testing.T) {
	if m := pingPong(1); m != 20 {
		t.Fatalf("direct-mapped ping-pong misses = %d, want all 20", m)
	}
}

func TestDataCacheAssociativityAbsorbsConflicts(t *testing.T) {
	if m := pingPong(2); m != 2 {
		t.Fatalf("2-way ping-pong misses = %d, want 2 cold misses", m)
	}
}

// TestDataCacheOccupancyInvariantQuick drives random accesses and checks
// the structural invariants: every access is counted, every miss fills,
// occupancy never exceeds capacity, and dirty blocks are resident.
func TestDataCacheOccupancyInvariantQuick(t *testing.T) {
	f := func(seed uint64, sizeExp, assocExp uint8) bool {
		size := 1 << (8 + sizeExp%6) // 256B..8K
		assoc := 1 << (assocExp % 3) // 1..4
		d := NewData(conventionalData(size, assoc))
		rng := xrand.New(seed)
		for i := 0; i < 2000; i++ {
			d.AccessData(uint64(rng.Intn(1<<11)), rng.Bool(0.3))
		}
		s := d.DataStats()
		if s.Accesses != 2000 || s.Fills != s.Misses {
			return false
		}
		resident := 0
		for _, v := range d.valid {
			if v {
				resident++
			}
		}
		return resident <= size/32 && d.DirtyBlocks() <= resident
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
