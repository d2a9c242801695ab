// Package dri implements the paper's primary contribution: the Dynamically
// ResIzable instruction cache (DRI i-cache).
//
// The cache divides execution into fixed-length sense-intervals measured in
// dynamic instructions. A miss counter accumulates misses within the
// interval; at the interval boundary the cache downsizes (halves its active
// sets, with the configured divisibility) when the count is below the
// miss-bound, and upsizes when it is above, never dropping below the
// size-bound. Downsizing gates off the highest-numbered sets (their contents
// are lost and, at the circuit level, their supply is gated so they stop
// leaking); upsizing re-enables them cold.
//
// The tag array always holds enough tag bits for the smallest permitted
// size (the "resizing tag bits"), so the surviving lower sets stay valid
// across downsizes without a flush, and upsizing can at worst create
// harmless read-only aliases. A 3-bit saturating counter detects repeated
// resizing between two adjacent sizes and then blocks downsizing for a
// fixed number of intervals (throttling).
package dri

import (
	"fmt"
	"maps"
	"math"
	"slices"
)

// Params are the DRI adaptive-mechanism parameters (§2.1 of the paper).
type Params struct {
	// Enabled selects dynamic resizing; when false the cache is a
	// conventional i-cache of the full size (the paper's baseline).
	Enabled bool
	// MissBound is the per-interval miss count the controller steers to.
	MissBound uint64
	// SizeBoundBytes is the minimum size the cache may assume.
	SizeBoundBytes int
	// SenseInterval is the interval length in dynamic instructions.
	SenseInterval uint64
	// Divisibility is the resizing factor (2, 4, or 8 in the paper).
	Divisibility int
	// ThrottleSaturation is the saturating-counter ceiling that triggers
	// throttling (the paper uses a 3-bit counter, so 7).
	ThrottleSaturation int
	// ThrottleIntervals is how many intervals downsizing stays blocked
	// after the throttle trips (the paper uses 10).
	ThrottleIntervals int
	// FlushOnResize invalidates the whole cache at every resize instead of
	// relying on resizing tag bits to keep surviving sets valid. The paper
	// (§2.2) argues this is prohibitively expensive; the FlushAblation
	// experiment measures it.
	FlushOnResize bool
	// ResizeWays selects the alternative the paper rejects in §2: resizing
	// by disabling ways (Albonesi's selective ways) instead of sets. The
	// index function never changes (so no resizing tag bits are needed),
	// but each step removes associativity, is unavailable on direct-mapped
	// caches, and converts conflict pressure directly into misses. One way
	// is gated per resize step; Divisibility is ignored in this mode.
	ResizeWays bool
	// AutoMissBoundFactor, when positive, sets the miss-bound dynamically
	// instead of from MissBound — the §2.1 future work ("all the cache
	// parameters can be set either dynamically or statically"). The
	// controller keeps an exponentially weighted average of the miss
	// counts it observes while the cache is at full size (its estimate of
	// the conventional miss rate) and uses factor × that as the bound.
	// This automates the paper's observation that workable miss-bounds sit
	// one to two orders of magnitude above the conventional miss rate.
	AutoMissBoundFactor float64
}

// DefaultParams returns the paper's base adaptive parameters for a 64K
// cache, scaled to the given sense interval: the paper's examples use a
// sense interval of one million instructions with miss-bounds in the
// ten-thousands; bounds here are per-interval counts so they scale with the
// interval.
func DefaultParams(senseInterval uint64) Params {
	return Params{
		Enabled:            true,
		MissBound:          senseInterval / 100,
		SizeBoundBytes:     1 << 10,
		SenseInterval:      senseInterval,
		Divisibility:       2,
		ThrottleSaturation: 7,
		ThrottleIntervals:  10,
	}
}

// Config describes a DRI i-cache instance.
type Config struct {
	SizeBytes  int
	BlockBytes int
	Assoc      int
	AddrBits   int
	Params     Params
}

// Check validates the configuration.
func (c Config) Check() error {
	switch {
	case c.SizeBytes <= 0 || c.SizeBytes&(c.SizeBytes-1) != 0:
		return fmt.Errorf("dri: size %d not a positive power of two", c.SizeBytes)
	case c.BlockBytes <= 0 || c.BlockBytes&(c.BlockBytes-1) != 0:
		return fmt.Errorf("dri: block %d not a positive power of two", c.BlockBytes)
	case c.Assoc < 1:
		return fmt.Errorf("dri: assoc %d < 1", c.Assoc)
	case c.SizeBytes < c.BlockBytes*c.Assoc:
		return fmt.Errorf("dri: size %d below one set", c.SizeBytes)
	case c.SizeBytes%(c.BlockBytes*c.Assoc) != 0 || c.Sets()&(c.Sets()-1) != 0:
		// The index function is a mask, so the set count must be a power of
		// two; with power-of-two sizes and blocks this constrains the
		// associativity to powers of two as well.
		return fmt.Errorf("dri: %d sets (size %d / block %d / assoc %d) not a power of two",
			c.Sets(), c.SizeBytes, c.BlockBytes, c.Assoc)
	}
	if c.Params.Enabled {
		p := c.Params
		switch {
		case p.SizeBoundBytes > c.SizeBytes:
			return fmt.Errorf("dri: size-bound %d exceeds size %d", p.SizeBoundBytes, c.SizeBytes)
		case p.SenseInterval == 0:
			return fmt.Errorf("dri: zero sense interval")
		case p.Divisibility < 2 || p.Divisibility&(p.Divisibility-1) != 0:
			return fmt.Errorf("dri: divisibility %d not a power of two >= 2", p.Divisibility)
		}
		if p.ResizeWays {
			// Way mode: sizes move in whole ways, not powers of two.
			if c.Assoc < 2 {
				return fmt.Errorf("dri: way-resizing requires associativity >= 2 (have %d); this is the paper's §2 argument against it", c.Assoc)
			}
			wayBytes := c.Sets() * c.BlockBytes
			if p.SizeBoundBytes < wayBytes || p.SizeBoundBytes%wayBytes != 0 {
				return fmt.Errorf("dri: way-resizing size-bound %d not a positive multiple of one way (%d bytes)", p.SizeBoundBytes, wayBytes)
			}
		} else {
			switch {
			case p.SizeBoundBytes <= 0 || p.SizeBoundBytes&(p.SizeBoundBytes-1) != 0:
				return fmt.Errorf("dri: size-bound %d not a positive power of two", p.SizeBoundBytes)
			case p.SizeBoundBytes < c.BlockBytes*c.Assoc:
				return fmt.Errorf("dri: size-bound %d below one set", p.SizeBoundBytes)
			}
		}
	}
	return nil
}

// Sets returns the total number of sets at full size.
func (c Config) Sets() int { return c.SizeBytes / (c.BlockBytes * c.Assoc) }

// MinSets returns the number of active sets at the size-bound (in
// way-resizing mode all sets stay active).
func (c Config) MinSets() int {
	if !c.Params.Enabled || c.Params.ResizeWays {
		return c.Sets()
	}
	return c.Params.SizeBoundBytes / (c.BlockBytes * c.Assoc)
}

// MinWays returns the number of active ways at the size-bound in
// way-resizing mode (Assoc otherwise).
func (c Config) MinWays() int {
	if !c.Params.Enabled || !c.Params.ResizeWays {
		return c.Assoc
	}
	return c.Params.SizeBoundBytes / (c.Sets() * c.BlockBytes)
}

// ResizingTagBits returns the number of extra tag bits the tag array
// carries to support downsizing to the size-bound: log2(size/size-bound).
// The paper's example: a 64K cache with a 1K size-bound uses 6 resizing
// bits. A disabled (conventional) cache uses none, and so does a
// way-resizing cache (its index function never changes — the one genuine
// advantage of the alternative the paper rejects).
func (c Config) ResizingTagBits() int {
	if !c.Params.Enabled || c.Params.ResizeWays {
		return 0
	}
	bits := 0
	for v := c.SizeBytes / c.Params.SizeBoundBytes; v > 1; v >>= 1 {
		bits++
	}
	return bits
}

// ResizeDirection labels a resize event.
type ResizeDirection int

const (
	// Downsize halves (or divides by divisibility) the active sets.
	Downsize ResizeDirection = iota
	// Upsize multiplies the active sets by the divisibility.
	Upsize
)

// String implements fmt.Stringer.
func (d ResizeDirection) String() string {
	if d == Downsize {
		return "downsize"
	}
	return "upsize"
}

// ResizeEvent records one resize for timelines and diagnostics. Set-mode
// resizes change FromSets/ToSets; way-mode resizes change FromWays/ToWays.
type ResizeEvent struct {
	Interval  uint64 // sense-interval ordinal (1-based)
	Direction ResizeDirection
	FromSets  int
	ToSets    int
	FromWays  int
	ToWays    int
	Misses    uint64 // misses observed in the interval that triggered it
}

// Stats accumulates DRI i-cache activity.
type Stats struct {
	Accesses  uint64
	Misses    uint64
	Fills     uint64
	Intervals uint64
	Upsizes   uint64
	Downsizes uint64
	// ThrottleTrips counts times the oscillation detector engaged.
	ThrottleTrips uint64
	// BlockedDownsizes counts downsize decisions suppressed by throttling.
	BlockedDownsizes uint64
	// SizeBoundHits counts downsize decisions suppressed by the size-bound.
	SizeBoundHits uint64
	// MemoHits counts accesses served by a way-memoization link register
	// (EnableWayMemo): the tag probe and the non-selected data ways were
	// skipped. Always zero when way memoization is off. Memo hits are
	// included in Accesses but deliberately not in Misses or Fills.
	MemoHits uint64
}

// MissRate returns Misses/Accesses, or 0 for an untouched cache.
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// Member is one configuration of a cache's lane class (SetClass): the
// configurations whose controllers have taken the same decisions so far,
// and so share one cache state. A member keeps what its rule reads that the
// others may not share — its miss-bound and its floor — and the counters
// that can differ without any state difference: a downsize suppressed at
// the member's floor or by the throttle leaves the cache as a plain hold
// does. A cache that is not a class has one member, labelled 0.
type Member struct {
	// ID is the label the member was given (SetClass).
	ID int
	// MissBound is the member's miss-bound (unused under
	// AutoMissBoundFactor, which sets one bound for every member).
	MissBound uint64
	// minSets and minWays are the member's floor: the active sets (set
	// mode) or ways (way mode) at its size-bound.
	minSets, minWays int
	// SizeBoundHits and BlockedDownsizes are the member's Stats fields of
	// the same names.
	SizeBoundHits    uint64
	BlockedDownsizes uint64
}

func memberOf(id int, cfg Config) Member {
	return Member{ID: id, MissBound: cfg.Params.MissBound, minSets: cfg.MinSets(), minWays: cfg.MinWays()}
}

// boundless is cfg without the per-member fields of its Params: two
// configurations with equal boundless forms can share one lane class.
func boundless(cfg Config) Config {
	cfg.Params.MissBound = 0
	cfg.Params.SizeBoundBytes = 0
	return cfg
}

// verdict is one member's rule outcome at a sense-interval boundary. Only
// its action — hold, upsize or downsize — moves the controller; the two
// suppressed downsizes are holds that bump one of the member's counters.
type verdict uint8

const (
	hold verdict = iota
	floorHold
	throttleHold
	upsize
	downsize
)

// action is the next controller state the verdict leads to.
func (v verdict) action() verdict {
	if v < upsize {
		return hold
	}
	return v
}

// partition is one group of a pending split: the members whose rules lead
// to the same next state, and that state.
type partition struct {
	members []Member
	act     verdict
}

// Cache is a DRI i-cache (or, with Params.Enabled=false, a conventional
// i-cache measured through the same interface). It is not safe for
// concurrent use.
type Cache struct {
	cfg       Config
	totalSets int
	assoc     int
	offBits   uint

	activeSets int
	activeWays int
	indexMask  uint64

	// members is the lane class the cache simulates (at least one; see
	// Member). parts is a pending split (Partitions, TakePartition), and
	// splitMisses and splitNow the interval miss count and cycle of the
	// boundary that split.
	members     []Member
	parts       []partition
	splitMisses uint64
	splitNow    uint64

	tags    []uint64
	valid   []bool
	lastUse []uint64
	stamp   uint64

	// Way-memoization link registers (nil unless EnableWayMemo): entry
	// e = (set index & memoMask) holds the set's most-recently-used block
	// and the frame serving it (-1 = no live link). The residency
	// invariant — a live link always names a resident block — holds
	// because links are written only on hits and fills, and the only way
	// a block leaves the cache is a fill or invalidation in its own set,
	// which overwrites or clears that set's entry.
	memoBlock []uint64
	memoFrame []int32
	memoMask  uint64

	// Interval machinery.
	intervalMisses uint64
	intervalInstrs uint64
	intervalIndex  uint64

	// Throttle state.
	throttle        int // saturating counter
	throttleBlocked int // intervals of downsize blocking remaining
	lastResize      *ResizeEvent

	// Dynamic miss-bound state (AutoMissBoundFactor > 0): EWMA of interval
	// miss counts observed at full size. The first full-size interval is
	// discarded (cold-start compulsory misses would inflate the reference
	// by orders of magnitude); no resizing happens until a reference
	// exists.
	fullSizeMissAvg  float64
	fullSizeSkipped  bool
	fullSizeRefValid bool
	resizedLastIval  bool
	lastAccessMark   uint64

	// Active-size integration over cycles (for the energy model's "active
	// fraction" and Figure 3's average cache size).
	lastCycleMark uint64
	fractionNum   float64 // Σ activeSets/totalSets × cycles
	fractionDen   float64 // Σ cycles
	sizeResidency map[int]uint64

	stats  Stats
	events []ResizeEvent

	// onInvalidate, when set, is called for every frame the resize
	// machinery is about to invalidate (before the valid bit clears), so a
	// write-back extension can flush dirty contents. fromResize is always
	// true here; demand evictions do not pass through this hook.
	onInvalidate func(frame int, fromResize bool)

	// onAccess, when set, is called once per access with the frame that
	// served it (the hit frame or the fill victim). Leakage policies
	// (internal/policy) use it for per-line bookkeeping; it must not
	// mutate the cache.
	onAccess func(frame int, hit bool)
	// policyGate is set while GateFrame invalidates, distinguishing a
	// per-line policy gating from a resize in the invalidation hook.
	policyGate bool
}

// New builds a DRI i-cache; it panics on an invalid configuration.
func New(cfg Config) *Cache {
	if err := cfg.Check(); err != nil {
		panic(err)
	}
	sets := cfg.Sets()
	n := sets * cfg.Assoc
	c := &Cache{
		cfg:           cfg,
		totalSets:     sets,
		members:       []Member{memberOf(0, cfg)},
		assoc:         cfg.Assoc,
		offBits:       offsetBits(cfg.BlockBytes),
		activeSets:    sets,
		activeWays:    cfg.Assoc,
		indexMask:     uint64(sets - 1),
		tags:          make([]uint64, n),
		valid:         make([]bool, n),
		lastUse:       make([]uint64, n),
		sizeResidency: make(map[int]uint64),
	}
	return c
}

func offsetBits(block int) uint {
	b := uint(0)
	for v := block; v > 1; v >>= 1 {
		b++
	}
	return b
}

// Config returns the configuration.
func (c *Cache) Config() Config { return c.cfg }

// Reset restores the cache to its just-constructed state while keeping its
// allocated arrays (and any registered hooks), so one instance can serve
// many runs of the same configuration without re-allocating the frame
// state. Previously returned Events slices are left untouched (the log
// starts a fresh backing array); SizeResidency snapshots are copies and are
// likewise unaffected.
func (c *Cache) Reset() {
	clear(c.tags)
	clear(c.valid)
	clear(c.lastUse)
	c.stamp = 0
	c.activeSets = c.totalSets
	c.activeWays = c.assoc
	c.indexMask = uint64(c.totalSets - 1)
	c.intervalMisses = 0
	c.intervalInstrs = 0
	c.intervalIndex = 0
	c.throttle = 0
	c.throttleBlocked = 0
	c.lastResize = nil
	c.fullSizeMissAvg = 0
	c.fullSizeSkipped = false
	c.fullSizeRefValid = false
	c.resizedLastIval = false
	c.lastAccessMark = 0
	c.lastCycleMark = 0
	c.fractionNum = 0
	c.fractionDen = 0
	clear(c.sizeResidency)
	c.stats = Stats{}
	c.events = nil
	c.members = append(c.members[:0], memberOf(0, c.cfg))
	c.parts = nil
	c.policyGate = false
	// A recycled hierarchy must not leak memoization state across runs:
	// stale links into the fresh (invalid) frames would turn into
	// phantom hits.
	c.clearMemo()
}

// EnableWayMemo activates way memoization with a link table of the given
// entry count (0 = one entry per set). The count must be a power of two —
// internal/policy validates user input; this panics on an internal misuse.
func (c *Cache) EnableWayMemo(entries int) {
	if entries <= 0 {
		entries = c.totalSets
	}
	if entries&(entries-1) != 0 {
		panic(fmt.Sprintf("dri: memo table entries %d not a power of two", entries))
	}
	c.memoBlock = make([]uint64, entries)
	c.memoFrame = make([]int32, entries)
	c.memoMask = uint64(entries - 1)
	c.clearMemo()
}

// WayMemoEnabled reports whether the link table is active.
func (c *Cache) WayMemoEnabled() bool { return c.memoBlock != nil }

func (c *Cache) clearMemo() {
	for i := range c.memoFrame {
		c.memoFrame[i] = -1
	}
}

// memoEntry returns the link-table slot for a block: sets alias onto the
// table with a mask, so a smaller table trades hits for hardware but can
// never produce a false hit (all blocks of one set share one slot, and
// fills overwrite it).
func (c *Cache) memoEntry(block uint64) uint64 {
	return (block & c.indexMask) & c.memoMask
}

// MemoHit reports whether block would be served by a live link register —
// the exact predicate of AccessBlock's memoization fast path — without
// touching statistics or replacement state. The simulator's lane uses it to
// bypass whole hierarchy lookups, flushing the skipped accounting later
// through AddMemoHits.
func (c *Cache) MemoHit(block uint64) bool {
	if c.memoBlock == nil {
		return false
	}
	e := c.memoEntry(block)
	return c.memoFrame[e] >= 0 && c.memoBlock[e] == block
}

// AddMemoHits accounts n memoized accesses in one batch: Accesses and
// MemoHits advance exactly as n AccessBlock memo hits would (no stamp,
// replacement, or hook activity — a memo hit bypasses all of it).
func (c *Cache) AddMemoHits(n uint64) {
	c.stats.Accesses += n
	c.stats.MemoHits += n
}

// unmemoFrame drops a link register that names the given frame; called
// whenever a frame is invalidated outside the fill path (policy gating,
// resize machinery), where no new link replaces it.
func (c *Cache) unmemoFrame(frame int) {
	if c.memoBlock == nil {
		return
	}
	e := uint64(frame/c.assoc) & c.memoMask
	if c.memoFrame[e] == int32(frame) {
		c.memoFrame[e] = -1
	}
}

// ActiveSets returns the number of currently powered sets.
func (c *Cache) ActiveSets() int { return c.activeSets }

// ActiveWays returns the number of currently powered ways.
func (c *Cache) ActiveWays() int { return c.activeWays }

// ActiveBytes returns the currently powered capacity.
func (c *Cache) ActiveBytes() int { return c.activeSets * c.activeWays * c.cfg.BlockBytes }

// ActiveFractionNow returns the powered fraction of the array at this
// instant (set-mode: activeSets/totalSets; way-mode: activeWays/assoc).
func (c *Cache) ActiveFractionNow() float64 {
	return float64(c.activeSets*c.activeWays) / float64(c.totalSets*c.assoc)
}

// Stats returns a copy of the statistics, as the first member sees them.
func (c *Cache) Stats() Stats { return c.MemberStats(0) }

// MemberStats returns a copy of the statistics as member j of Members sees
// them: the shared counters plus the member's own.
func (c *Cache) MemberStats(j int) Stats {
	s := c.stats
	m := &c.members[j]
	s.SizeBoundHits, s.BlockedDownsizes = m.SizeBoundHits, m.BlockedDownsizes
	return s
}

// Members returns the cache's lane class (shared slice; callers must not
// modify).
func (c *Cache) Members() []Member { return c.members }

// SetClass makes the cache a lane class of one member per configuration in
// cfgs, cfgs[j] labelled ids[j]. Every configuration must be valid and
// equal the cache's own except for Params.MissBound and
// Params.SizeBoundBytes; SetClass panics otherwise. Call it before the
// cache is used: each member then behaves exactly as a cache of its own
// configuration would, until a split (Advance) separates the members whose
// decisions differ.
func (c *Cache) SetClass(cfgs []Config, ids []int) {
	if len(cfgs) == 0 || len(ids) != len(cfgs) {
		panic("dri: SetClass needs one id per configuration, and at least one")
	}
	c.members = c.members[:0]
	for j, m := range cfgs {
		if err := m.Check(); err != nil {
			panic(err)
		}
		if boundless(m) != boundless(c.cfg) {
			panic("dri: SetClass member differs from the cache beyond its miss-bound and size-bound")
		}
		c.members = append(c.members, memberOf(ids[j], m))
	}
}

// CopyFrom makes c a deep copy of src, which must have the same
// configuration: frames, link registers, interval and throttle state, the
// active-size account, statistics, the event log (copied, never aliased),
// the lane class and any pending split. c keeps its own hooks, so they stay
// wired to whatever c was built with.
func (c *Cache) CopyFrom(src *Cache) {
	if c.cfg != src.cfg {
		panic("dri: CopyFrom between caches of different configurations")
	}
	tags, valid, lastUse := c.tags, c.valid, c.lastUse
	memoBlock, memoFrame := c.memoBlock, c.memoFrame
	residency, members := c.sizeResidency, c.members
	onInvalidate, onAccess := c.onInvalidate, c.onAccess
	*c = *src
	c.tags, c.valid, c.lastUse = tags, valid, lastUse
	copy(c.tags, src.tags)
	copy(c.valid, src.valid)
	copy(c.lastUse, src.lastUse)
	c.memoBlock, c.memoFrame = memoBlock, memoFrame
	copy(c.memoBlock, src.memoBlock)
	copy(c.memoFrame, src.memoFrame)
	if src.lastResize != nil {
		last := *src.lastResize
		c.lastResize = &last
	}
	c.sizeResidency = residency
	clear(c.sizeResidency)
	maps.Copy(c.sizeResidency, src.sizeResidency)
	c.events = slices.Clone(src.events)
	c.members = append(members[:0], src.members...)
	c.parts = make([]partition, len(src.parts))
	for i, p := range src.parts {
		c.parts[i] = partition{members: slices.Clone(p.members), act: p.act}
	}
	c.onInvalidate, c.onAccess = onInvalidate, onAccess
}

// Events returns the resize log (shared slice; callers must not modify).
func (c *Cache) Events() []ResizeEvent { return c.events }

// Block converts a byte address to a block address.
func (c *Cache) Block(addr uint64) uint64 { return addr >> c.offBits }

// AccessBlock performs an instruction fetch of the given block address and
// reports whether it hit. Misses fill the block into the set selected by
// the current size mask (timing is the caller's concern).
func (c *Cache) AccessBlock(block uint64) bool {
	if c.memoBlock != nil {
		// Way-memoization fast path: a live link to this block serves the
		// access from the memoized way alone — no tag probe, no
		// replacement-state update, no policy hook (the skipped work is
		// the point; MemoHit/AddMemoHits mirror this exactly).
		if e := c.memoEntry(block); c.memoFrame[e] >= 0 && c.memoBlock[e] == block {
			c.stats.Accesses++
			c.stats.MemoHits++
			return true
		}
	}
	c.stats.Accesses++
	c.stamp++
	set := int(block & c.indexMask)
	base := set * c.assoc
	for w := 0; w < c.activeWays; w++ {
		i := base + w
		if c.valid[i] && c.tags[i] == block {
			c.lastUse[i] = c.stamp
			if c.memoBlock != nil {
				e := c.memoEntry(block)
				c.memoBlock[e] = block
				c.memoFrame[e] = int32(i)
			}
			if c.onAccess != nil {
				c.onAccess(i, true)
			}
			return true
		}
	}
	c.stats.Misses++
	c.intervalMisses++
	victim := c.fill(base, block)
	if c.onAccess != nil {
		c.onAccess(victim, false)
	}
	return false
}

func (c *Cache) fill(base int, block uint64) int {
	c.stats.Fills++
	victim := base
	found := false
	for w := 0; w < c.activeWays; w++ {
		i := base + w
		if !c.valid[i] {
			victim = i
			found = true
			break
		}
	}
	if !found {
		oldest := c.lastUse[base]
		victim = base
		for w := 1; w < c.activeWays; w++ {
			i := base + w
			if c.lastUse[i] < oldest {
				oldest = c.lastUse[i]
				victim = i
			}
		}
	}
	c.tags[victim] = block
	c.valid[victim] = true
	c.lastUse[victim] = c.stamp
	if c.memoBlock != nil {
		// The fill both installs the set's new MRU link and — because all
		// blocks of a set share one slot — severs any link to the evicted
		// victim, preserving the residency invariant.
		e := c.memoEntry(block)
		c.memoBlock[e] = block
		c.memoFrame[e] = int32(victim)
	}
	return victim
}

// NumFrames returns the number of line frames (sets × assoc) at full size.
func (c *Cache) NumFrames() int { return len(c.valid) }

// SetAccessHook registers f to be called once per access with the frame
// that served it (the hit frame or the fill victim) and whether it hit.
// Leakage policies use it for per-line bookkeeping; f must not mutate the
// cache.
func (c *Cache) SetAccessHook(f func(frame int, hit bool)) { c.onAccess = f }

// GateFrame powers one frame off: its contents are lost (dirty data is
// flushed through the invalidation hook first) and, at the circuit level,
// its cells stop leaking until the next fill re-powers them. It is the
// per-line entry point for leakage policies (cache decay); the policyGate
// flag lets the write-back extension attribute the flush to the policy
// rather than to the resize machinery.
func (c *Cache) GateFrame(frame int) {
	c.policyGate = true
	if c.onInvalidate != nil {
		c.onInvalidate(frame, true)
	}
	c.policyGate = false
	c.valid[frame] = false
	c.unmemoFrame(frame)
}

// Probe reports whether block is present at the current size without
// touching replacement state or statistics.
func (c *Cache) Probe(block uint64) bool {
	set := int(block & c.indexMask)
	base := set * c.assoc
	for w := 0; w < c.activeWays; w++ {
		i := base + w
		if c.valid[i] && c.tags[i] == block {
			return true
		}
	}
	return false
}

// Advance reports instruction progress and the current cycle count to the
// interval machinery. The simulator calls it in batches (it need not be
// once per instruction); the cache fires the end-of-interval decision each
// time the accumulated instruction count crosses the sense-interval length.
// It reports a split: an interval boundary where the members' rules lead to
// different next states. The cache then stops at that boundary with none
// applied, and the caller resolves it with TakePartition on this cache and
// on copies of it (CopyFrom), one per partition.
func (c *Cache) Advance(instrs, nowCycles uint64) bool {
	if !c.cfg.Params.Enabled {
		return false
	}
	c.intervalInstrs += instrs
	return c.drain(nowCycles)
}

// drain ends every sense interval the accumulated instruction count
// covers, stopping at a split.
func (c *Cache) drain(nowCycles uint64) bool {
	for c.intervalInstrs >= c.cfg.Params.SenseInterval {
		c.intervalInstrs -= c.cfg.Params.SenseInterval
		if c.endInterval(nowCycles) {
			return true
		}
	}
	return false
}

// Partitions returns the number of partitions of a pending split (0 when
// none is pending).
func (c *Cache) Partitions() int { return len(c.parts) }

// TakePartition resolves a pending split for this cache: it keeps partition
// k's members only, applies their next state, and resumes the interval
// accounting of the Advance call that split. Like Advance, it reports
// whether that accounting split again.
func (c *Cache) TakePartition(k int) bool {
	p := c.parts[k]
	c.parts = nil
	c.members = p.members
	c.apply(p.act, c.splitMisses, c.splitNow)
	return c.drain(c.splitNow)
}

// endInterval ends one sense interval (Figure 1): it updates the shared
// controller state, evaluates every member's rule on the interval's miss
// count, and applies the members' common next state. When the next states
// differ it applies none, records the members grouped by next state as a
// pending split, and reports true.
func (c *Cache) endInterval(nowCycles uint64) bool {
	c.intervalIndex++
	c.stats.Intervals++
	misses := c.intervalMisses
	c.intervalMisses = 0

	if c.throttleBlocked > 0 {
		c.throttleBlocked--
	}

	p := c.cfg.Params
	var auto uint64
	if p.AutoMissBoundFactor > 0 {
		intervalAccesses := c.stats.Accesses - c.lastAccessMark
		c.lastAccessMark = c.stats.Accesses
		atFull := c.activeSets == c.totalSets && c.activeWays == c.assoc
		// Update the full-size reference only from steady intervals: skip
		// the cold-start interval and any interval right after a resize
		// (its §2.3.1 remap misses are not conventional-cache behaviour).
		if atFull && !c.resizedLastIval {
			const alpha = 0.25
			switch {
			case !c.fullSizeSkipped:
				c.fullSizeSkipped = true
			case !c.fullSizeRefValid:
				c.fullSizeMissAvg = float64(misses)
				c.fullSizeRefValid = true
			default:
				c.fullSizeMissAvg += alpha * (float64(misses) - c.fullSizeMissAvg)
			}
		}
		c.resizedLastIval = false
		if !c.fullSizeRefValid {
			return false // hold until a steady-state reference exists
		}
		auto = uint64(p.AutoMissBoundFactor * c.fullSizeMissAvg)
		// The bound is meaningless above the access count the interval can
		// produce; cap it so thrashing is always detectable.
		if ceiling := intervalAccesses / 2; auto > ceiling {
			auto = ceiling
		}
		if auto == 0 {
			auto = 1
		}
	}
	act, split := hold, false
	for i := range c.members {
		m := &c.members[i]
		v := c.rule(m, misses, auto)
		switch v {
		case floorHold:
			m.SizeBoundHits++
		case throttleHold:
			m.BlockedDownsizes++
		}
		if i == 0 {
			act = v.action()
		} else if v.action() != act {
			split = true
		}
	}
	if !split {
		c.apply(act, misses, nowCycles)
		return false
	}
	c.parts = c.parts[:0]
	for _, m := range c.members {
		a := c.rule(&m, misses, auto).action()
		k := 0
		for k < len(c.parts) && c.parts[k].act != a {
			k++
		}
		if k == len(c.parts) {
			c.parts = append(c.parts, partition{act: a})
		}
		c.parts[k].members = append(c.parts[k].members, m)
	}
	c.splitMisses, c.splitNow = misses, nowCycles
	return true
}

// rule is member m's decision at an interval boundary with the given miss
// count: above its bound (auto, under AutoMissBoundFactor) the cache
// upsizes, below it downsizes unless the member's floor or the throttle
// blocks it, and at the bound it holds. An upsize at full size is a hold.
func (c *Cache) rule(m *Member, misses, auto uint64) verdict {
	p := &c.cfg.Params
	bound := m.MissBound
	if p.AutoMissBoundFactor > 0 {
		bound = auto
	}
	switch {
	case misses > bound:
		if c.activeSets == c.totalSets && c.activeWays == c.assoc {
			return hold
		}
		return upsize
	case misses < bound:
		atFloor := c.activeSets/p.Divisibility < m.minSets
		if p.ResizeWays {
			atFloor = c.activeWays-1 < m.minWays
		}
		if atFloor {
			return floorHold
		}
		if c.throttleBlocked > 0 {
			return throttleHold
		}
		return downsize
	}
	return hold
}

// apply moves the controller to the next state act.
func (c *Cache) apply(act verdict, misses, nowCycles uint64) {
	switch act {
	case upsize:
		c.resize(Upsize, misses, nowCycles)
	case downsize:
		c.resize(Downsize, misses, nowCycles)
	}
}

// resize performs the size change, maintains the throttle detector, and
// integrates the active-fraction account. Set mode scales the active sets
// by the divisibility; way mode gates one way per step.
func (c *Cache) resize(dir ResizeDirection, misses, nowCycles uint64) {
	p := c.cfg.Params
	fromSets, fromWays := c.activeSets, c.activeWays
	toSets, toWays := fromSets, fromWays
	// The rule steps only between sizes the cache can take — it holds at
	// full size and at every member's floor — so no step needs a clamp.
	switch {
	case p.ResizeWays && dir == Downsize:
		toWays--
	case p.ResizeWays:
		toWays++
	case dir == Downsize:
		toSets /= p.Divisibility
	default:
		toSets *= p.Divisibility
	}

	c.noteSizeSpan(nowCycles)

	ev := ResizeEvent{
		Interval:  c.intervalIndex,
		Direction: dir,
		FromSets:  fromSets,
		ToSets:    toSets,
		FromWays:  fromWays,
		ToWays:    toWays,
		Misses:    misses,
	}

	// Oscillation detection: a resize that exactly reverses the previous
	// one (same two sizes, opposite direction) bumps the saturating
	// counter; anything else decays it.
	if c.lastResize != nil &&
		c.lastResize.FromSets == toSets && c.lastResize.ToSets == fromSets &&
		c.lastResize.FromWays == toWays && c.lastResize.ToWays == fromWays &&
		c.lastResize.Direction != dir {
		if c.throttle < p.ThrottleSaturation {
			c.throttle++
		}
		if c.throttle >= p.ThrottleSaturation && p.ThrottleSaturation > 0 {
			c.throttle = 0
			c.throttleBlocked = p.ThrottleIntervals
			c.stats.ThrottleTrips++
		}
	} else if c.throttle > 0 {
		c.throttle--
	}

	invalidate := func(frame int) {
		if c.onInvalidate != nil {
			c.onInvalidate(frame, true)
		}
		c.valid[frame] = false
	}
	if c.memoBlock != nil {
		// Resizing changes the index mask, so per-frame link surgery is
		// unsound; drop every link. (The waymemo policy forbids resizing —
		// this guards direct library use of both features.)
		c.clearMemo()
	}
	switch {
	case p.FlushOnResize:
		// Ablation mode: the whole cache is invalidated on every resize,
		// as a design without resizing tag bits would require.
		for i := range c.valid {
			invalidate(i)
		}
	case p.ResizeWays:
		// Gate (or cold-enable) the departing/arriving ways of every set.
		lo, hi := toWays, fromWays
		if dir == Upsize {
			lo, hi = fromWays, toWays
		}
		for set := 0; set < c.totalSets; set++ {
			base := set * c.assoc
			for w := lo; w < hi; w++ {
				invalidate(base + w)
			}
		}
	case dir == Downsize:
		// Gate off the departing sets: their cells lose state.
		for s := toSets; s < fromSets; s++ {
			base := s * c.assoc
			for w := 0; w < c.assoc; w++ {
				invalidate(base + w)
			}
		}
	default:
		// Newly powered sets come up cold.
		for s := fromSets; s < toSets; s++ {
			base := s * c.assoc
			for w := 0; w < c.assoc; w++ {
				invalidate(base + w)
			}
		}
	}
	if dir == Downsize {
		c.stats.Downsizes++
	} else {
		c.stats.Upsizes++
	}
	c.activeSets = toSets
	c.activeWays = toWays
	c.indexMask = uint64(toSets - 1)
	c.resizedLastIval = true
	last := ev
	c.lastResize = &last
	c.events = append(c.events, ev)
}

// noteSizeSpan closes the accounting span at the current size.
func (c *Cache) noteSizeSpan(nowCycles uint64) {
	if nowCycles > c.lastCycleMark {
		d := float64(nowCycles - c.lastCycleMark)
		c.fractionNum += d * c.ActiveFractionNow()
		c.fractionDen += d
		c.sizeResidency[c.ActiveBytes()] += nowCycles - c.lastCycleMark
		c.lastCycleMark = nowCycles
	}
}

// Finish closes the active-fraction integration at the end of simulation.
func (c *Cache) Finish(nowCycles uint64) {
	c.noteSizeSpan(nowCycles)
}

// AverageActiveFraction returns the cycle-weighted mean of
// activeSets/totalSets — the paper's "average cache size" as a fraction of
// the conventional cache (Figure 3, right). Before any Finish/resize it
// returns 1 for a conventional cache and the current fraction otherwise.
func (c *Cache) AverageActiveFraction() float64 {
	if c.fractionDen == 0 {
		return c.ActiveFractionNow()
	}
	return c.fractionNum / c.fractionDen
}

// SizeResidency returns cycles spent at each active size in bytes
// (the closed spans only; call Finish first for complete data).
func (c *Cache) SizeResidency() map[int]uint64 {
	out := make(map[int]uint64, len(c.sizeResidency))
	for k, v := range c.sizeResidency {
		out[k] = v
	}
	return out
}

// EffectiveMissRateVsBound returns |missrate − missbound/interval|, the
// quantity the paper uses to show the controller tracks its setpoint
// (§5.3 reports a largest gap of 0.004 for gcc).
func (c *Cache) EffectiveMissRateVsBound() float64 {
	if !c.cfg.Params.Enabled || c.stats.Accesses == 0 {
		return 0
	}
	target := float64(c.members[0].MissBound) / float64(c.cfg.Params.SenseInterval)
	return math.Abs(c.stats.MissRate() - target)
}
