// Package mem wires the cache hierarchy of the simulated system (Table 1):
// an L1 i-cache (conventional or DRI), a 64K 2-way L1 d-cache, a 1M 4-way
// unified L2, and a main memory with the paper's 80-cycles-plus-4-per-8-bytes
// latency. The pipeline (internal/cpu) runs on one Hierarchy, calling
// FetchBlock, Load, Store and Advance directly; the hierarchy accounts every
// L2 and memory access for the energy model.
//
// All three levels run on one cache core, internal/dri: the L1I is a
// dri.Cache, the L1D and L2 are dri.DataCache (write-back,
// write-allocate, first invalid way then true LRU). The L1D never resizes.
//
// The unified L2 is a DRI cache too: with
// Params.Enabled it runs its own sense-interval controller — miss-bound,
// size-bound, divisibility, throttling — gating off its highest-numbered
// sets exactly like the L1 i-cache, but with the write-back protocol a
// unified cache needs (dirty blocks of a departing set are flushed to
// memory at downsize time, and that burst is accounted as memory traffic).
// With Params zero it is the paper's conventional L2, bit-for-bit.
package mem

import (
	"fmt"

	"dricache/internal/dri"
	"dricache/internal/policy"
	"dricache/internal/timeline"
)

// Config describes the hierarchy.
type Config struct {
	L1I dri.Config
	// L1IPolicy selects the L1 i-cache leakage-control policy. The zero
	// value preserves historical behaviour (the cache follows L1I.Params);
	// decay and drowsy add per-line state machines, waygate maps onto the
	// dri controller's way-resizing mode.
	L1IPolicy policy.Config
	L1D       L1DConfig
	// L2 is the unified L2; set L2.Params.Enabled for a resizable
	// (multi-level DRI) L2.
	L2 dri.Config
	// L2Policy selects the unified L2's leakage-control policy.
	L2Policy policy.Config
	// L2HitLatency is the L1-miss/L2-hit penalty in cycles.
	L2HitLatency uint64
	// MemLatencyBase and MemLatencyPer8B define the memory access time:
	// base + per8B × (bytes/8).
	MemLatencyBase  uint64
	MemLatencyPer8B uint64
}

// L1DConfig describes the conventional L1 d-cache; it is built as a
// dri.DataCache with resizing disabled.
type L1DConfig struct {
	// Name is not used by the simulator; it keeps the L1D JSON shape (and
	// so every engine cache key and persisted result) unchanged.
	Name       string
	SizeBytes  int
	BlockBytes int
	Assoc      int
}

func (c L1DConfig) dri() dri.Config {
	return dri.Config{SizeBytes: c.SizeBytes, BlockBytes: c.BlockBytes, Assoc: c.Assoc, AddrBits: 32}
}

// DefaultConfig returns the paper's Table 1 hierarchy around the given L1
// i-cache configuration, with a conventional (non-resizing) L2.
func DefaultConfig(l1i dri.Config) Config {
	return Config{
		L1I: l1i,
		L1D: L1DConfig{Name: "L1D", SizeBytes: 64 << 10, BlockBytes: 32, Assoc: 2},
		L2:  DefaultL2(),
		// "L2 cache: 12 cycle latency", "Memory: 80 cycles + 4 cycles per
		// 8 bytes".
		L2HitLatency:    12,
		MemLatencyBase:  80,
		MemLatencyPer8B: 4,
	}
}

// DefaultL2 returns the paper's Table 1 L2 geometry: 1M 4-way with 64-byte
// blocks, non-resizing.
func DefaultL2() dri.Config {
	return dri.Config{SizeBytes: 1 << 20, BlockBytes: 64, Assoc: 4, AddrBits: 32}
}

// Check validates the configuration, including each level's policy and its
// compatibility with the cache it governs.
func (c Config) Check() error {
	l1i, l2, err := c.effectiveConfigs()
	if err != nil {
		return err
	}
	if err := l1i.Check(); err != nil {
		return err
	}
	if err := c.L1D.dri().Check(); err != nil {
		return fmt.Errorf("mem: L1D: %w", err)
	}
	if err := l2.Check(); err != nil {
		return fmt.Errorf("mem: L2: %w", err)
	}
	if c.L2.BlockBytes < c.L1I.BlockBytes || c.L2.BlockBytes < c.L1D.BlockBytes {
		return fmt.Errorf("mem: L2 block (%d) smaller than an L1 block", c.L2.BlockBytes)
	}
	return nil
}

// effectiveConfigs resolves each level's policy into the dri.Config the
// hierarchy instantiates (the waygate policy, for example, maps onto the
// dri controller's way-resizing mode).
func (c Config) effectiveConfigs() (l1i, l2 dri.Config, err error) {
	l1i, err = policy.Apply(c.L1IPolicy, c.L1I)
	if err != nil {
		return dri.Config{}, dri.Config{}, fmt.Errorf("mem: L1I: %w", err)
	}
	l2, err = policy.Apply(c.L2Policy, c.L2)
	if err != nil {
		return dri.Config{}, dri.Config{}, fmt.Errorf("mem: L2: %w", err)
	}
	return l1i, l2, nil
}

// Stats accounts hierarchy traffic below the L1s.
type Stats struct {
	// L2AccessesFromI counts L2 accesses caused by L1 i-cache misses — the
	// quantity the energy model charges 3.6 nJ each.
	L2AccessesFromI uint64
	// L2AccessesFromD counts L2 accesses from d-cache misses and writebacks.
	L2AccessesFromD uint64
	// MemAccesses counts accesses that missed in L2, plus the dirty-block
	// flushes forced by L2 downsizing.
	MemAccesses uint64
	// L2ResizeWritebacks counts dirty blocks flushed to memory because
	// their L2 set was gated off by a downsize — the write-back cost the
	// paper defers (§2) and the total-leakage model charges.
	L2ResizeWritebacks uint64
	// L2PolicyWritebacks counts dirty blocks flushed to memory because a
	// per-line leakage policy (cache decay) gated their L2 frame.
	L2PolicyWritebacks uint64
	// L1ITagProbesSkipped counts L1 i-cache accesses served by a
	// way-memoization link register (the waymemo policy): the tag probe
	// and the non-selected data ways were skipped, which the energy model
	// credits from the CACTI-lite tag/bitline split.
	L1ITagProbesSkipped uint64
	// L2TagProbesSkipped likewise for the unified L2.
	L2TagProbesSkipped uint64
}

// L2Accesses returns total L2 accesses.
func (s Stats) L2Accesses() uint64 { return s.L2AccessesFromI + s.L2AccessesFromD }

// Hierarchy is the memory system for one simulated core. Not safe for
// concurrent use.
type Hierarchy struct {
	cfg Config
	l1i *dri.Cache
	l1d *dri.DataCache
	l2  *dri.DataCache

	memLatencyL2Fill uint64 // memory time to fill one L2 block

	// countL2DemandWB gates demand-writeback accounting: only the L1D
	// dirty-victim write into L2 charges a memory access for the L2 victim
	// it displaces (matching the original single-level accounting); demand
	// fills do not.
	countL2DemandWB bool

	// Shift from an L1I block address to an L2 block address.
	iToL2Shift uint
	// Shift from a byte address to an L1D block address.
	l1dShift uint
	// Shift from an L1D block address to an L2 block address.
	dToL2Shift uint
	// Shift from a byte address to an L2 block address.
	l2Shift uint

	// Per-line leakage-policy runtimes; nil unless the level's policy is
	// decay or drowsy.
	l1iPol *policy.Engine
	l2Pol  *policy.Engine

	stats Stats
}

// New builds the hierarchy; it panics on invalid configuration.
func New(cfg Config) *Hierarchy {
	if err := cfg.Check(); err != nil {
		panic(err)
	}
	l1iCfg, l2Cfg, err := cfg.effectiveConfigs()
	if err != nil {
		panic(err)
	}
	h := &Hierarchy{
		cfg: cfg,
		l1i: dri.New(l1iCfg),
		l1d: dri.NewData(cfg.L1D.dri()),
		l2:  dri.NewData(l2Cfg),
	}
	if cfg.L1IPolicy.PerLine() {
		h.l1iPol = policy.NewEngine(cfg.L1IPolicy, h.l1i)
		h.l1i.SetAccessHook(h.l1iPol.OnAccess)
	}
	if cfg.L2Policy.PerLine() {
		h.l2Pol = policy.NewEngine(cfg.L2Policy, &h.l2.Cache)
		h.l2.SetAccessHook(h.l2Pol.OnAccess)
	}
	if cfg.L1IPolicy.Kind == policy.WayMemo {
		h.l1i.EnableWayMemo(cfg.L1IPolicy.MemoTableEntries)
	}
	if cfg.L2Policy.Kind == policy.WayMemo {
		h.l2.EnableWayMemo(cfg.L2Policy.MemoTableEntries)
	}
	h.l1d.SetWritebackHandler(func(block uint64, _ dri.WritebackCause) {
		// Dirty victim written back into L2 (write-allocate there too); a
		// dirty L2 victim it displaces goes to memory.
		h.stats.L2AccessesFromD++
		h.countL2DemandWB = true
		h.l2.AccessData(block>>h.dToL2Shift, true)
		h.countL2DemandWB = false
		if h.l2Pol != nil {
			// The store buffer hides writeback latency; clear the pending
			// wakeup so it is not charged to the following demand access.
			h.l2Pol.TakePenalty()
		}
	})
	h.l2.SetWritebackHandler(func(block uint64, cause dri.WritebackCause) {
		switch cause {
		case dri.WBResize:
			h.stats.L2ResizeWritebacks++
			h.stats.MemAccesses++
		case dri.WBPolicy:
			h.stats.L2PolicyWritebacks++
			h.stats.MemAccesses++
		default:
			if h.countL2DemandWB {
				h.stats.MemAccesses++
			}
		}
	})
	h.memLatencyL2Fill = cfg.MemLatencyBase + cfg.MemLatencyPer8B*uint64(cfg.L2.BlockBytes/8)
	h.l2Shift = log2u(cfg.L2.BlockBytes)
	h.iToL2Shift = h.l2Shift - log2u(cfg.L1I.BlockBytes)
	h.l1dShift = log2u(cfg.L1D.BlockBytes)
	h.dToL2Shift = h.l2Shift - h.l1dShift
	return h
}

func log2u(n int) uint {
	b := uint(0)
	for v := n; v > 1; v >>= 1 {
		b++
	}
	return b
}

// ICache exposes the L1 i-cache (for DRI statistics and control).
func (h *Hierarchy) ICache() *dri.Cache { return h.l1i }

// DCache exposes the L1 d-cache (a dri.DataCache that never resizes).
func (h *Hierarchy) DCache() *dri.DataCache { return h.l1d }

// L2 exposes the unified L2 (a DRI data cache; conventional when its Params
// are zero).
func (h *Hierarchy) L2() *dri.DataCache { return h.l2 }

// Stats returns a copy of the traffic counters. The tag-probes-skipped
// fields are views of the per-level memoization counters, folded in here so
// every consumer of hierarchy stats sees them without reaching into the
// caches.
func (h *Hierarchy) Stats() Stats {
	s := h.stats
	s.L1ITagProbesSkipped = h.l1i.Stats().MemoHits
	s.L2TagProbesSkipped = h.l2.Stats().MemoHits
	return s
}

// Reset restores the hierarchy to its just-constructed state while keeping
// every allocated cache array and policy line map — a hierarchy for the
// paper's Table 1 geometry carries several hundred kilobytes of frame
// state, and sweeps construct one per (configuration, benchmark) point, so
// reuse through Reset removes the dominant per-lane setup garbage. All
// hooks stay wired; behaviour after Reset is bit-identical to a fresh New
// of the same configuration.
func (h *Hierarchy) Reset() {
	h.l1i.Reset()
	h.l1d.Reset()
	h.l2.Reset()
	if h.l1iPol != nil {
		h.l1iPol.Reset()
	}
	if h.l2Pol != nil {
		h.l2Pol.Reset()
	}
	h.stats = Stats{}
	h.countL2DemandWB = false
}

// FetchBlock is an instruction fetch of the given L1I block address,
// returning the added latency in cycles. A hit costs nothing extra; a miss
// goes to L2 and possibly memory, and fills the i-cache. The policy-free hit
// path — the common case by far — is kept branch-minimal so the pipeline's
// lane pays only the tag probe; miss handling and per-line-policy penalties
// live in fetchSlow.
func (h *Hierarchy) FetchBlock(block uint64) uint64 {
	hit := h.l1i.AccessBlock(block)
	if hit && h.l1iPol == nil {
		return 0
	}
	return h.fetchSlow(block, hit)
}

// fetchSlow charges a fetch that missed in L1I or runs under a per-line
// policy. The L1I access has already happened; hit is its outcome.
func (h *Hierarchy) fetchSlow(block uint64, hit bool) uint64 {
	var lat uint64
	if h.l1iPol != nil {
		// A drowsy line pays its wakeup before the fetch can complete.
		lat = h.l1iPol.TakePenalty()
	}
	if hit {
		return lat
	}
	h.stats.L2AccessesFromI++
	lat += h.cfg.L2HitLatency
	if !h.l2.AccessData(block>>h.iToL2Shift, false) {
		h.stats.MemAccesses++
		lat += h.memLatencyL2Fill
	}
	if h.l2Pol != nil {
		lat += h.l2Pol.TakePenalty()
	}
	return lat
}

// Load is a data load: it returns the latency beyond the L1 pipeline
// cycle.
func (h *Hierarchy) Load(addr uint64) uint64 {
	if h.l1d.AccessData(addr>>h.l1dShift, false) {
		return 0
	}
	return h.l1dMissFill(addr)
}

// Store is a data store (write-allocate, write-back; the store buffer hides
// the latency, so none is returned, but all traffic is accounted).
func (h *Hierarchy) Store(addr uint64) {
	if !h.l1d.AccessData(addr>>h.l1dShift, true) {
		h.l1dMissFill(addr)
	}
}

// l1dMissFill charges the L2 (and memory) for an L1D miss and returns the
// fill latency. A dirty victim's writeback has already gone to L2 through
// the L1D's writeback handler.
func (h *Hierarchy) l1dMissFill(addr uint64) uint64 {
	h.stats.L2AccessesFromD++
	lat := h.cfg.L2HitLatency
	if !h.l2.AccessData(addr>>h.l2Shift, false) {
		h.stats.MemAccesses++
		lat += h.memLatencyL2Fill
	}
	if h.l2Pol != nil {
		lat += h.l2Pol.TakePenalty()
	}
	return lat
}

// Advance forwards the pipeline's instruction progress — instrs fetched
// since the last call, the latest at fetch cycle nowCycles — to the
// sense-interval machinery of both resizable levels.
func (h *Hierarchy) Advance(instrs, nowCycles uint64) {
	h.l1i.Advance(instrs, nowCycles)
	h.l2.Advance(instrs, nowCycles)
	if h.l1iPol != nil {
		h.l1iPol.Tick(instrs, nowCycles)
	}
	if h.l2Pol != nil {
		h.l2Pol.Tick(instrs, nowCycles)
	}
}

// Finish closes interval accounting at the end of a run.
func (h *Hierarchy) Finish(nowCycles uint64) {
	h.l1i.Finish(nowCycles)
	h.l2.Finish(nowCycles)
	if h.l1iPol != nil {
		h.l1iPol.Finish(nowCycles)
	}
	if h.l2Pol != nil {
		h.l2Pol.Finish(nowCycles)
	}
}

// L1ILeakFraction is the L1 i-cache's cycle-weighted mean effective leakage
// fraction under its policy: the per-line engine's integral for decay and
// drowsy, the DRI active fraction otherwise (1 for a conventional cache).
func (h *Hierarchy) L1ILeakFraction() float64 {
	if h.l1iPol != nil {
		return h.l1iPol.LeakFraction()
	}
	return h.l1i.AverageActiveFraction()
}

// L2LeakFraction likewise for the unified L2.
func (h *Hierarchy) L2LeakFraction() float64 {
	if h.l2Pol != nil {
		return h.l2Pol.LeakFraction()
	}
	return h.l2.AverageActiveFraction()
}

// TimelineSnapshot fills the hierarchy-owned fields of an interval
// flight-recorder sample: per-level cumulative counters and the
// instantaneous array state (live geometry, leakage fraction, per-line
// policy line counts). The caller (the pipeline lane) overlays its own
// instruction/cycle cursors and pending memo hits.
func (h *Hierarchy) TimelineSnapshot(s *timeline.Sample) {
	l1i := h.l1i.Stats()
	s.L1IAccesses = l1i.Accesses
	s.L1IMisses = l1i.Misses
	s.MemoHits = l1i.MemoHits
	l2 := h.l2.Stats()
	s.L2Accesses = l2.Accesses
	s.L2Misses = l2.Misses
	s.L2AccessesFromI = h.stats.L2AccessesFromI
	s.MemAccesses = h.stats.MemAccesses
	s.ActiveSets = h.l1i.ActiveSets()
	s.ActiveWays = h.l1i.ActiveWays()
	if h.l1iPol != nil {
		s.L1IActiveFraction = h.l1iPol.LeakFractionNow()
		s.Wakeups = h.l1iPol.Stats().Wakeups
		s.GatedLines = h.l1iPol.LiveGatedLines()
		s.DrowsyLines = h.l1iPol.LiveDrowsyLines()
	} else {
		s.L1IActiveFraction = h.l1i.ActiveFractionNow()
	}
	if h.l2Pol != nil {
		s.L2ActiveFraction = h.l2Pol.LeakFractionNow()
	} else {
		s.L2ActiveFraction = h.l2.ActiveFractionNow()
	}
}

// L1IPolicyStats returns the L1 i-cache policy counters (zero unless the
// policy is per-line).
func (h *Hierarchy) L1IPolicyStats() policy.Stats {
	if h.l1iPol == nil {
		return policy.Stats{}
	}
	return h.l1iPol.Stats()
}

// L2PolicyStats likewise for the unified L2.
func (h *Hierarchy) L2PolicyStats() policy.Stats {
	if h.l2Pol == nil {
		return policy.Stats{}
	}
	return h.l2Pol.Stats()
}
