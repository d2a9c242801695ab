package dri

// This file implements the extension the paper explicitly defers (§2:
// "Because of complications involving dirty cache blocks, studying d-cache
// designs is beyond the scope of this paper"): a DRI *data* cache.
//
// The complication is exactly the one the paper names. An i-cache can gate
// off sets and lose their contents, because instructions are clean; a
// write-back d-cache holds dirty lines, so gating a set without action
// loses data. The DataCache therefore writes back every dirty block of a
// departing set at downsize time, and reports that traffic so a timing or
// energy model can charge it (each writeback is an extra L2 access, and a
// resize stalls while the burst drains).
//
// With Params.Enabled false the type is also the conventional write-back,
// write-allocate cache: the system's L1 d-cache (internal/mem) is a
// DataCache that never resizes.

// WritebackCause labels why a dirty block left the cache.
type WritebackCause int

const (
	// WBDemand is an ordinary dirty-victim eviction.
	WBDemand WritebackCause = iota
	// WBResize is a flush forced by the resize machinery gating a set or
	// way.
	WBResize
	// WBPolicy is a flush forced by a per-line leakage policy (cache
	// decay) gating a frame.
	WBPolicy
)

// DataStats extends the i-cache statistics with write traffic.
type DataStats struct {
	Stats
	Writes uint64
	// Writebacks counts dirty evictions in normal operation.
	Writebacks uint64
	// ResizeWritebacks counts dirty blocks flushed because their set was
	// gated off by a downsize — the cost the paper worried about.
	ResizeWritebacks uint64
	// PolicyWritebacks counts dirty blocks flushed because a per-line
	// leakage policy gated their frame.
	PolicyWritebacks uint64
}

// DataCache is a DRI cache with write-back/write-allocate semantics. It
// reuses the i-cache controller (sense intervals, miss-bound, size-bound,
// throttle) by embedding Cache and adding dirty-state tracking plus the
// downsize writeback protocol. It is not safe for concurrent use.
type DataCache struct {
	Cache
	dirty  []bool
	dstats DataStats
	// onWriteback, if set, receives the block address and cause of every
	// writeback.
	onWriteback func(block uint64, cause WritebackCause)
}

// NewData builds a DRI data cache; it panics on an invalid configuration.
func NewData(cfg Config) *DataCache {
	inner := New(cfg)
	d := &DataCache{
		Cache: *inner,
		dirty: make([]bool, cfg.Sets()*cfg.Assoc),
	}
	// The embedded controller must write back dirty victims when it gates
	// frames during resizing.
	d.Cache.onInvalidate = d.noteGatedFrame
	return d
}

// Reset restores the data cache to its just-constructed state, keeping its
// allocated arrays and registered handlers (the embedded controller's
// invalidation hook stays wired to the dirty-state tracking).
func (d *DataCache) Reset() {
	d.Cache.Reset()
	clear(d.dirty)
	d.dstats = DataStats{}
}

// CopyFrom makes d a deep copy of src, which must have the same
// configuration (Cache.CopyFrom), dirty bits and write statistics included.
// d keeps its own writeback handler.
func (d *DataCache) CopyFrom(src *DataCache) {
	d.Cache.CopyFrom(&src.Cache)
	copy(d.dirty, src.dirty)
	d.dstats = src.dstats
}

// SetWritebackHandler registers a sink for writeback traffic (e.g. the L2).
func (d *DataCache) SetWritebackHandler(h func(block uint64, cause WritebackCause)) {
	d.onWriteback = h
}

// DataStats returns a copy of the extended statistics.
func (d *DataCache) DataStats() DataStats {
	s := d.dstats
	s.Stats = d.Cache.Stats()
	return s
}

// noteGatedFrame is called by the resize machinery (and GateFrame) for
// every frame it invalidates; dirty frames must be written back first.
func (d *DataCache) noteGatedFrame(frame int, fromResize bool) {
	if !d.dirty[frame] {
		return
	}
	d.dirty[frame] = false
	if !d.Cache.valid[frame] {
		return
	}
	cause := WBDemand
	switch {
	case d.Cache.policyGate:
		cause = WBPolicy
		d.dstats.PolicyWritebacks++
	case fromResize:
		cause = WBResize
		d.dstats.ResizeWritebacks++
	default:
		d.dstats.Writebacks++
	}
	if d.onWriteback != nil {
		d.onWriteback(d.Cache.tags[frame], cause)
	}
}

// AccessData performs a read (write=false) or write (write=true) of the
// given block address with write-allocate semantics and reports a hit. A
// dirty victim goes to the writeback handler.
func (d *DataCache) AccessData(block uint64, write bool) bool {
	hit, wb, dirty := d.AccessDataWB(block, write)
	if dirty && d.onWriteback != nil {
		d.onWriteback(wb, WBDemand)
	}
	return hit
}

// AccessDataWB is AccessData that returns the demand writeback instead of
// calling the handler: on a miss that evicts a dirty block, dirty is set and
// wb is that block's address. The caller owns the writeback; it is counted
// in Writebacks all the same.
func (d *DataCache) AccessDataWB(block uint64, write bool) (hit bool, wb uint64, dirty bool) {
	if write {
		d.dstats.Writes++
	}
	c := &d.Cache
	if c.memoBlock != nil {
		// Way-memoization fast path (see Cache.AccessBlock). The link
		// names the serving frame, so a memoized write can still set its
		// dirty bit without a tag probe.
		if e := c.memoEntry(block); c.memoFrame[e] >= 0 && c.memoBlock[e] == block {
			c.stats.Accesses++
			c.stats.MemoHits++
			if write {
				d.dirty[c.memoFrame[e]] = true
			}
			return true, 0, false
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
			if write {
				d.dirty[i] = true
			}
			if c.memoBlock != nil {
				e := c.memoEntry(block)
				c.memoBlock[e] = block
				c.memoFrame[e] = int32(i)
			}
			if c.onAccess != nil {
				c.onAccess(i, true)
			}
			return true, 0, false
		}
	}
	c.stats.Misses++
	c.intervalMisses++
	victim := d.fillVictim(base)
	if c.valid[victim] && d.dirty[victim] {
		d.dstats.Writebacks++
		wb, dirty = c.tags[victim], true
	}
	c.stats.Fills++
	c.tags[victim] = block
	c.valid[victim] = true
	c.lastUse[victim] = c.stamp
	d.dirty[victim] = write
	if c.memoBlock != nil {
		e := c.memoEntry(block)
		c.memoBlock[e] = block
		c.memoFrame[e] = int32(victim)
	}
	if c.onAccess != nil {
		c.onAccess(victim, false)
	}
	return false, wb, dirty
}

// fillVictim picks the fill frame (first invalid way, else LRU) without
// installing anything.
func (d *DataCache) fillVictim(base int) int {
	c := &d.Cache
	for w := 0; w < c.activeWays; w++ {
		i := base + w
		if !c.valid[i] {
			return i
		}
	}
	victim := base
	oldest := c.lastUse[base]
	for w := 1; w < c.activeWays; w++ {
		i := base + w
		if c.lastUse[i] < oldest {
			oldest = c.lastUse[i]
			victim = i
		}
	}
	return victim
}

// DirtyBlocks counts currently dirty resident blocks (diagnostics/tests).
func (d *DataCache) DirtyBlocks() int {
	n := 0
	for i, dt := range d.dirty {
		if dt && d.Cache.valid[i] {
			n++
		}
	}
	return n
}
