package dri

// A reference model of the conventional cache core: per-set recency lists
// in plain slices, with a dirty flag per resident block. With resizing
// disabled, Cache and DataCache must agree with it access for access — the
// same hits and misses, the same dirty victims written back, the same
// dirty blocks left resident.
//
// Run the differential fuzzer with:
//   go test ./internal/dri -fuzz FuzzDataCacheMatchesReference
// Without -fuzz, its seed corpus runs as a regular (fast) unit test.

import (
	"testing"
	"testing/quick"

	"dricache/internal/xrand"
)

// refLine is one resident block of the reference model.
type refLine struct {
	block uint64
	dirty bool
}

// refCache is a write-back, write-allocate, true-LRU set-associative cache
// kept as one recency list per set, least recent first.
type refCache struct {
	sets  [][]refLine
	assoc int
	mask  uint64
}

func newRefCache(sets, assoc int) *refCache {
	return &refCache{sets: make([][]refLine, sets), assoc: assoc, mask: uint64(sets - 1)}
}

// access reads or writes block. It reports a hit and, when the fill evicts
// a dirty block, that block's address with wb set.
func (r *refCache) access(block uint64, write bool) (hit bool, wbBlock uint64, wb bool) {
	set := r.sets[block&r.mask]
	for j, l := range set {
		if l.block == block {
			l.dirty = l.dirty || write
			set = append(set[:j], set[j+1:]...)
			r.sets[block&r.mask] = append(set, l)
			return true, 0, false
		}
	}
	if len(set) == r.assoc {
		victim := set[0]
		set = append(set[:0], set[1:]...)
		wbBlock, wb = victim.block, victim.dirty
	}
	r.sets[block&r.mask] = append(set, refLine{block: block, dirty: write})
	return false, wbBlock, wb
}

// dirtyBlocks counts dirty resident blocks.
func (r *refCache) dirtyBlocks() int {
	n := 0
	for _, set := range r.sets {
		for _, l := range set {
			if l.dirty {
				n++
			}
		}
	}
	return n
}

// conventionalData returns a non-resizing DataCache geometry.
func conventionalData(sizeBytes, assoc int) Config {
	return Config{SizeBytes: sizeBytes, BlockBytes: 32, Assoc: assoc, AddrBits: 32}
}

// TestLRUMatchesReferenceModel cross-checks the array-based LRU against the
// recency-list reference on random read/write streams.
func TestLRUMatchesReferenceModel(t *testing.T) {
	f := func(seed uint64) bool {
		cfg := conventionalData(1<<10, 4)
		d := NewData(cfg)
		ref := newRefCache(cfg.Sets(), cfg.Assoc)
		rng := xrand.New(seed)
		for i := 0; i < 3000; i++ {
			block := uint64(rng.Intn(256))
			write := rng.Bool(0.3)
			refHit, _, _ := ref.access(block, write)
			if d.AccessData(block, write) != refHit {
				return false
			}
		}
		return d.DirtyBlocks() == ref.dirtyBlocks()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestWritebackConservation: every dirty residency ends in exactly one
// writeback of that block, or is still resident and dirty at the end.
func TestWritebackConservation(t *testing.T) {
	d := NewData(conventionalData(512, 2))
	dirty := map[uint64]bool{} // blocks with an open dirty residency
	var writebacks, writes uint64
	d.SetWritebackHandler(func(b uint64, cause WritebackCause) {
		if cause != WBDemand {
			t.Fatalf("writeback cause %v from a non-resizing cache", cause)
		}
		if !dirty[b] {
			t.Fatalf("writeback of block %d with no dirty residency", b)
		}
		delete(dirty, b)
		writebacks++
	})
	rng := xrand.New(5)
	for i := 0; i < 20000; i++ {
		block := uint64(rng.Intn(64))
		write := rng.Bool(0.4)
		d.AccessData(block, write)
		if write {
			writes++
			dirty[block] = true
		}
	}
	s := d.DataStats()
	if s.Writebacks != writebacks || writebacks > writes || writebacks > s.Misses {
		t.Fatalf("writebacks %d (stat %d) against %d writes and %d misses",
			writebacks, s.Writebacks, writes, s.Misses)
	}
	if d.DirtyBlocks() != len(dirty) {
		t.Fatalf("dirty resident blocks = %d, open dirty residencies = %d", d.DirtyBlocks(), len(dirty))
	}
}

// FuzzDataCacheMatchesReference draws a geometry and a read/write block
// stream from the fuzz bytes and drives a non-resizing DataCache and the
// reference model with it: every hit or miss, every writeback block, and
// the final dirty count must match.
func FuzzDataCacheMatchesReference(f *testing.F) {
	f.Add(uint8(0), uint8(0), []byte{1, 0x81, 1, 2, 0x82, 1})
	f.Add(uint8(2), uint8(1), []byte{0x80, 4, 8, 0x8c, 0, 4, 8, 12, 16, 0x90, 0})
	f.Add(uint8(4), uint8(2), []byte{0, 16, 32, 48, 64, 0x80, 0x90, 0xa0, 0xb0, 0xc0, 0, 16})
	f.Add(uint8(3), uint8(3), []byte("a write-heavy stream of printable blocks"))
	f.Fuzz(func(t *testing.T, setsLog, assocLog uint8, stream []byte) {
		sets, assoc := 1<<(setsLog%6), 1<<(assocLog%4) // 1..32 sets, 1..8 ways
		cfg := conventionalData(sets*assoc*32, assoc)
		d := NewData(cfg)
		ref := newRefCache(sets, assoc)
		var got []uint64
		d.SetWritebackHandler(func(b uint64, _ WritebackCause) { got = append(got, b) })
		for i, b := range stream {
			// The top bit selects a write; the low seven bits pick one of
			// 128 blocks, enough to overflow every drawn geometry.
			block, write := uint64(b&0x7f), b&0x80 != 0
			got = got[:0]
			refHit, wbBlock, wb := ref.access(block, write)
			if hit := d.AccessData(block, write); hit != refHit {
				t.Fatalf("access %d (block %d, write %v): hit=%v, reference %v", i, block, write, hit, refHit)
			}
			switch {
			case wb && (len(got) != 1 || got[0] != wbBlock):
				t.Fatalf("access %d: writebacks %v, reference block %d", i, got, wbBlock)
			case !wb && len(got) != 0:
				t.Fatalf("access %d: writebacks %v, reference none", i, got)
			}
		}
		if d.DirtyBlocks() != ref.dirtyBlocks() {
			t.Fatalf("dirty blocks = %d, reference %d", d.DirtyBlocks(), ref.dirtyBlocks())
		}
	})
}
