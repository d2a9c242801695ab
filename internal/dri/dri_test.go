package dri

import (
	"testing"
	"testing/quick"

	"dricache/internal/xrand"
)

// cfg64K returns the paper's base DRI configuration: 64K direct-mapped,
// 32-byte blocks, 1K size-bound, divisibility 2, with a test-scaled sense
// interval.
func cfg64K(interval uint64, missBound uint64) Config {
	p := DefaultParams(interval)
	p.MissBound = missBound
	return Config{
		SizeBytes:  64 << 10,
		BlockBytes: 32,
		Assoc:      1,
		AddrBits:   32,
		Params:     p,
	}
}

func conventional64K() Config {
	return Config{SizeBytes: 64 << 10, BlockBytes: 32, Assoc: 1, AddrBits: 32}
}

// loop emits `n` sequential block accesses covering `footprint` bytes,
// wrapping around — a tight loop over a code region.
func loop(c *Cache, footprint int, n int) {
	blocks := uint64(footprint / c.cfg.BlockBytes)
	for i := 0; i < n; i++ {
		c.AccessBlock(uint64(i) % blocks)
	}
}

func TestConfigCheck(t *testing.T) {
	if err := cfg64K(1000, 10).Check(); err != nil {
		t.Fatal(err)
	}
	if err := conventional64K().Check(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{SizeBytes: 0, BlockBytes: 32, Assoc: 1},
		{SizeBytes: 1 << 16, BlockBytes: 32, Assoc: 1,
			Params: Params{Enabled: true, SizeBoundBytes: 3 << 10, SenseInterval: 100, Divisibility: 2}},
		{SizeBytes: 1 << 16, BlockBytes: 32, Assoc: 1,
			Params: Params{Enabled: true, SizeBoundBytes: 128 << 10, SenseInterval: 100, Divisibility: 2}},
		{SizeBytes: 1 << 16, BlockBytes: 32, Assoc: 1,
			Params: Params{Enabled: true, SizeBoundBytes: 1 << 10, SenseInterval: 0, Divisibility: 2}},
		{SizeBytes: 1 << 16, BlockBytes: 32, Assoc: 1,
			Params: Params{Enabled: true, SizeBoundBytes: 1 << 10, SenseInterval: 100, Divisibility: 3}},
		{SizeBytes: 1 << 16, BlockBytes: 32, Assoc: 1,
			Params: Params{Enabled: true, SizeBoundBytes: 16, SenseInterval: 100, Divisibility: 2}},
	}
	for i, cfg := range bad {
		if err := cfg.Check(); err == nil {
			t.Errorf("case %d: accepted invalid config", i)
		}
	}
}

func TestResizingTagBitsPaperExample(t *testing.T) {
	// Paper §2.1: 64K cache with 1K size-bound needs 6 resizing tag bits.
	cfg := cfg64K(1000, 10)
	if got := cfg.ResizingTagBits(); got != 6 {
		t.Fatalf("resizing tag bits = %d, paper says 6", got)
	}
	if got := conventional64K().ResizingTagBits(); got != 0 {
		t.Fatalf("conventional cache resizing bits = %d, want 0", got)
	}
	cfg.Params.SizeBoundBytes = 64 << 10 // fpppp's setting: no downsizing
	if got := cfg.ResizingTagBits(); got != 0 {
		t.Fatalf("size-bound=size resizing bits = %d, want 0", got)
	}
}

func TestSmallWorkingSetDownsizesToSizeBound(t *testing.T) {
	// A 2K loop under a 64K DRI cache must walk down to the 1K... no:
	// 2K working set needs 2K; downsizing stops when misses exceed bound.
	cfg := cfg64K(10000, 20)
	cfg.Params.SizeBoundBytes = 2 << 10
	c := New(cfg)
	cycles := uint64(0)
	for i := 0; i < 200; i++ {
		loop(c, 2<<10, 10000)
		cycles += 10000
		c.Advance(10000, cycles)
	}
	c.Finish(cycles)
	if c.ActiveBytes() != 2<<10 {
		t.Fatalf("active size = %d, want 2K (the working set)", c.ActiveBytes())
	}
	if c.Stats().Downsizes < 5 {
		t.Fatalf("expected ~5 downsizes (64K→2K), got %d", c.Stats().Downsizes)
	}
	if f := c.AverageActiveFraction(); f > 0.25 {
		t.Fatalf("average active fraction %v too high for a 2K loop", f)
	}
}

func TestLargeWorkingSetStaysLarge(t *testing.T) {
	// fpppp-like: the working set equals the full cache; the miss counter
	// keeps the cache from shrinking much below it.
	cfg := cfg64K(10000, 20)
	c := New(cfg)
	cycles := uint64(0)
	for i := 0; i < 100; i++ {
		// Walk the full 64K: fits exactly at full size.
		loop(c, 64<<10, 10000)
		cycles += 10000
		c.Advance(10000, cycles)
	}
	c.Finish(cycles)
	// The cache may try a downsize, thrash, and bounce back up; on average
	// it must stay predominantly large.
	if f := c.AverageActiveFraction(); f < 0.5 {
		t.Fatalf("average active fraction %v too low for a 64K working set", f)
	}
}

func TestDownsizeGatesOffUpperSets(t *testing.T) {
	cfg := cfg64K(100, 1000000) // huge miss bound: always downsize
	c := New(cfg)
	// Fill every set at full size.
	for b := uint64(0); b < uint64(c.totalSets); b++ {
		c.AccessBlock(b)
	}
	c.Advance(100, 100) // one interval → downsize by 2
	if c.ActiveSets() != c.totalSets/2 {
		t.Fatalf("active sets = %d, want %d", c.ActiveSets(), c.totalSets/2)
	}
	for s := c.ActiveSets(); s < c.totalSets; s++ {
		if c.valid[s*c.assoc] {
			t.Fatalf("set %d should be gated off (invalid)", s)
		}
	}
	// Lower sets survive and are still correctly indexed: block b < half
	// still maps to set b and hits.
	hit := c.AccessBlock(uint64(c.ActiveSets() / 2))
	if !hit {
		t.Fatal("surviving lower-set block should still hit after downsize")
	}
}

func TestUpsizedSetsComeUpCold(t *testing.T) {
	cfg := cfg64K(100, 50)
	c := New(cfg)
	// Force down to minimum with no accesses (0 misses < bound).
	cycles := uint64(0)
	for i := 0; i < 10; i++ {
		cycles += 100
		c.Advance(100, cycles)
	}
	if c.ActiveBytes() != cfg.Params.SizeBoundBytes {
		t.Fatalf("should be at size-bound, at %d", c.ActiveBytes())
	}
	// Now generate misses to force upsizing.
	for i := 0; i < 3; i++ {
		for b := uint64(0); b < 200; b++ {
			c.AccessBlock(b + 100000)
		}
		cycles += 100
		c.Advance(100, cycles)
	}
	if c.ActiveSets() <= cfg.MinSets() {
		t.Fatal("misses above bound should upsize")
	}
	if c.Stats().Upsizes == 0 {
		t.Fatal("upsizes not counted")
	}
}

func TestDisabledBehavesLikeConventionalCache(t *testing.T) {
	// The DRI cache with resizing disabled must match the recency-list
	// reference model access-for-access on a random stream.
	d := New(conventional64K())
	ref := newRefCache(d.Config().Sets(), d.Config().Assoc)
	rng := xrand.New(7)
	var refMisses uint64
	for i := 0; i < 200000; i++ {
		block := uint64(rng.Intn(1 << 14))
		refHit, _, _ := ref.access(block, false)
		if !refHit {
			refMisses++
		}
		if dh := d.AccessBlock(block); dh != refHit {
			t.Fatalf("access %d: dri hit=%v reference hit=%v", i, dh, refHit)
		}
	}
	if d.Stats().Misses != refMisses {
		t.Fatalf("miss counts diverge: %d vs %d", d.Stats().Misses, refMisses)
	}
}

func TestDisabledNeverResizes(t *testing.T) {
	c := New(conventional64K())
	cycles := uint64(0)
	for i := 0; i < 100; i++ {
		loop(c, 1<<10, 1000)
		cycles += 1000
		c.Advance(1000, cycles)
	}
	c.Finish(cycles)
	if c.Stats().Intervals != 0 || len(c.Events()) != 0 {
		t.Fatal("disabled cache must not run interval machinery")
	}
	if c.AverageActiveFraction() != 1 {
		t.Fatalf("conventional active fraction = %v, want 1", c.AverageActiveFraction())
	}
}

func TestSizeBoundPreventsThrashing(t *testing.T) {
	cfg := cfg64K(100, 1000000) // always downsize
	cfg.Params.SizeBoundBytes = 8 << 10
	c := New(cfg)
	cycles := uint64(0)
	for i := 0; i < 50; i++ {
		cycles += 100
		c.Advance(100, cycles)
	}
	if c.ActiveBytes() != 8<<10 {
		t.Fatalf("active = %d, want size-bound 8K", c.ActiveBytes())
	}
	if c.Stats().SizeBoundHits == 0 {
		t.Fatal("size-bound suppressions not counted")
	}
}

func TestThrottleDampsOscillation(t *testing.T) {
	// Alternate intervals of tiny and huge miss counts force up/down
	// ping-pong between two adjacent sizes; the throttle must engage and
	// block downsizes.
	mk := func(throttleIntervals int) *Cache {
		cfg := cfg64K(1000, 50)
		cfg.Params.SizeBoundBytes = 16 << 10
		cfg.Params.ThrottleIntervals = throttleIntervals
		return New(cfg)
	}
	drive := func(c *Cache) {
		cycles := uint64(0)
		fresh := uint64(1 << 20) // monotonically new blocks: guaranteed misses
		for i := 0; i < 120; i++ {
			if i%2 == 0 {
				// Quiet interval: a tiny resident loop → few misses.
				loop(c, 1<<10, 1000)
			} else {
				// Miss storm: 1000 never-seen blocks → 1000 misses.
				for j := 0; j < 1000; j++ {
					c.AccessBlock(fresh)
					fresh++
				}
			}
			cycles += 1000
			c.Advance(1000, cycles)
		}
		c.Finish(cycles)
	}
	throttled := mk(10)
	unthrottled := mk(0)
	drive(throttled)
	drive(unthrottled)
	if throttled.Stats().ThrottleTrips == 0 {
		t.Fatal("oscillating workload should trip the throttle")
	}
	if throttled.Stats().BlockedDownsizes == 0 {
		t.Fatal("throttle should have blocked downsizes")
	}
	if throttled.Stats().Downsizes >= unthrottled.Stats().Downsizes {
		t.Fatalf("throttle should reduce resize churn: %d vs %d",
			throttled.Stats().Downsizes, unthrottled.Stats().Downsizes)
	}
}

func TestResizeEventsAreConsistent(t *testing.T) {
	cfg := cfg64K(1000, 20)
	c := New(cfg)
	cycles := uint64(0)
	rng := xrand.New(11)
	for i := 0; i < 300; i++ {
		if i%37 < 20 {
			loop(c, 2<<10, 1000)
		} else {
			for j := 0; j < 1000; j++ {
				c.AccessBlock(uint64(rng.Intn(1 << 12)))
			}
		}
		cycles += 1000
		c.Advance(1000, cycles)
	}
	c.Finish(cycles)
	prevSets := cfg.Sets()
	for i, ev := range c.Events() {
		if ev.FromSets != prevSets {
			t.Fatalf("event %d: FromSets=%d, previous size %d", i, ev.FromSets, prevSets)
		}
		switch ev.Direction {
		case Downsize:
			if ev.ToSets >= ev.FromSets {
				t.Fatalf("event %d: downsize grows: %+v", i, ev)
			}
		case Upsize:
			if ev.ToSets <= ev.FromSets {
				t.Fatalf("event %d: upsize shrinks: %+v", i, ev)
			}
		}
		if ev.ToSets < cfg.MinSets() || ev.ToSets > cfg.Sets() {
			t.Fatalf("event %d: size %d out of bounds", i, ev.ToSets)
		}
		prevSets = ev.ToSets
	}
	if got := c.Stats().Upsizes + c.Stats().Downsizes; got != uint64(len(c.Events())) {
		t.Fatalf("event log length %d != resize count %d", len(c.Events()), got)
	}
}

func TestDivisibilityFour(t *testing.T) {
	cfg := cfg64K(100, 1000000)
	cfg.Params.Divisibility = 4
	c := New(cfg)
	c.Advance(100, 100)
	if c.ActiveSets() != cfg.Sets()/4 {
		t.Fatalf("divisibility 4: active sets %d, want %d", c.ActiveSets(), cfg.Sets()/4)
	}
}

func TestActiveFractionIntegration(t *testing.T) {
	cfg := cfg64K(100, 1000000) // always downsize
	cfg.Params.SizeBoundBytes = 32 << 10
	c := New(cfg)
	// 100 cycles at full size, then downsize to half, then 300 cycles.
	c.Advance(100, 100)
	c.Finish(400)
	// Average = (1.0×100 + 0.5×300)/400 = 0.625.
	if got := c.AverageActiveFraction(); got < 0.62 || got > 0.63 {
		t.Fatalf("average active fraction = %v, want 0.625", got)
	}
	res := c.SizeResidency()
	if res[64<<10] != 100 || res[32<<10] != 300 {
		t.Fatalf("size residency = %v", res)
	}
}

func TestSizeResidencyIsACopy(t *testing.T) {
	c := New(cfg64K(100, 1000000))
	c.Advance(100, 100)
	c.Finish(200)
	m := c.SizeResidency()
	for k := range m {
		m[k] = 0
	}
	if got := c.SizeResidency(); len(got) > 0 {
		for _, v := range got {
			if v == 0 {
				t.Fatal("SizeResidency must return a copy")
			}
		}
	}
}

func TestHitsNeverFalse(t *testing.T) {
	// Across random resizes, a reported hit must always be a block that was
	// filled earlier (full tags cannot produce false hits). We track fills
	// in a shadow map and check every hit.
	cfg := cfg64K(500, 30)
	cfg.Params.SizeBoundBytes = 2 << 10
	c := New(cfg)
	filled := map[uint64]bool{}
	rng := xrand.New(99)
	cycles := uint64(0)
	for i := 0; i < 50000; i++ {
		b := uint64(rng.Intn(1 << 12))
		hit := c.AccessBlock(b)
		if hit && !filled[b] {
			t.Fatalf("false hit on block %#x", b)
		}
		filled[b] = true
		if i%500 == 0 {
			cycles += 500
			c.Advance(500, cycles)
		}
	}
}

func TestEffectiveMissRateVsBound(t *testing.T) {
	// A well-chosen configuration (size-bound matching the working set, as
	// the paper's best-case searches find) keeps the effective miss rate at
	// or below the bound: §5.3 reports a largest overshoot of 0.004 (gcc).
	cfg := cfg64K(10000, 100)
	cfg.Params.SizeBoundBytes = 4 << 10
	c := New(cfg)
	cycles := uint64(0)
	for i := 0; i < 100; i++ {
		loop(c, 4<<10, 10000)
		cycles += 10000
		c.Advance(10000, cycles)
	}
	c.Finish(cycles)
	target := float64(cfg.Params.MissBound) / float64(cfg.Params.SenseInterval)
	if rate := c.Stats().MissRate(); rate > target+0.004 {
		t.Fatalf("miss rate %v overshoots bound %v by more than 0.004", rate, target)
	}
	if gap := c.EffectiveMissRateVsBound(); gap > target+0.004 {
		t.Fatalf("tracking gap %v too large", gap)
	}
	if c.ActiveBytes() != 4<<10 {
		t.Fatalf("cache should settle at the 4K working set, at %d", c.ActiveBytes())
	}
}

// TestInvariantsQuick drives random workloads through random configurations
// and verifies the structural invariants the design promises.
func TestInvariantsQuick(t *testing.T) {
	f := func(seed uint64, boundExp, missBoundSeed uint8) bool {
		sizeBound := 1 << (10 + boundExp%6) // 1K..32K
		cfg := cfg64K(200, uint64(missBoundSeed)+1)
		cfg.Params.SizeBoundBytes = sizeBound
		c := New(cfg)
		rng := xrand.New(seed)
		cycles := uint64(0)
		for i := 0; i < 200; i++ {
			n := 100 + rng.Intn(300)
			for j := 0; j < n; j++ {
				c.AccessBlock(uint64(rng.Intn(1 << 13)))
			}
			cycles += uint64(n)
			c.Advance(uint64(n), cycles)

			// Invariant: active sets is a power of two within bounds.
			a := c.ActiveSets()
			if a&(a-1) != 0 || a < cfg.MinSets() || a > cfg.Sets() {
				return false
			}
			// Invariant: all gated sets are invalid.
			for s := a; s < cfg.Sets(); s++ {
				for w := 0; w < cfg.Assoc; w++ {
					if c.valid[s*cfg.Assoc+w] {
						return false
					}
				}
			}
		}
		c.Finish(cycles)
		// Invariant: fraction in (0, 1]; accesses = hits + misses implied
		// by construction; average within [min/total, 1].
		f := c.AverageActiveFraction()
		min := float64(cfg.MinSets()) / float64(cfg.Sets())
		return f >= min-1e-12 && f <= 1+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestMissRate(t *testing.T) {
	var s Stats
	if s.MissRate() != 0 {
		t.Fatal("empty stats miss rate should be 0")
	}
	s = Stats{Accesses: 8, Misses: 2}
	if s.MissRate() != 0.25 {
		t.Fatalf("miss rate = %v, want 0.25", s.MissRate())
	}
}

func TestDirectionString(t *testing.T) {
	if Downsize.String() != "downsize" || Upsize.String() != "upsize" {
		t.Fatal("ResizeDirection.String mismatch")
	}
}

func TestSetAssociativeDRI(t *testing.T) {
	// The paper evaluates a 64K 4-way DRI i-cache (Figure 6). Resizing
	// changes sets, not ways; with 4 ways the same byte capacity has a
	// quarter the sets.
	p := DefaultParams(1000)
	p.MissBound = 100 // above the post-resize remap misses of a 2K loop
	cfg := Config{SizeBytes: 64 << 10, BlockBytes: 32, Assoc: 4, AddrBits: 32, Params: p}
	c := New(cfg)
	if c.totalSets != 512 {
		t.Fatalf("4-way 64K sets = %d, want 512", c.totalSets)
	}
	cycles := uint64(0)
	for i := 0; i < 100; i++ {
		loop(c, 2<<10, 1000)
		cycles += 1000
		c.Advance(1000, cycles)
	}
	c.Finish(cycles)
	if c.ActiveBytes() > 4<<10 {
		t.Fatalf("4-way cache should downsize for a 2K loop, at %d", c.ActiveBytes())
	}
	// Conflict absorption: ping-pong blocks that share a set index.
	hit1 := c.AccessBlock(0)
	hit2 := c.AccessBlock(uint64(c.ActiveSets()))
	hit3 := c.AccessBlock(uint64(2 * c.ActiveSets()))
	_ = hit1
	_ = hit2
	_ = hit3
	if !c.AccessBlock(0) {
		t.Fatal("4 ways should retain all three conflicting blocks")
	}
}
