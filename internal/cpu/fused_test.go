package cpu

import (
	"context"
	"testing"

	"dricache/internal/bpred"
	"dricache/internal/dri"
	"dricache/internal/isa"
	"dricache/internal/mem"
	"dricache/internal/policy"
	"dricache/internal/trace"
)

// TestFusedMatchesGeneric pins the lane executor, which runs every
// whole-system simulation, to the generic interface loop kept for foreign
// memory models: the same stream through the same system configuration
// must yield bit-identical results whichever loop runs, and whether the
// lane reads a replay cursor or the generator directly. Exercised across
// port counts and with/without DRI ticking.
func TestFusedMatchesGeneric(t *testing.T) {
	prog, err := trace.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	const n = 150_000
	rep, exact := isa.RecordStream(prog.Stream(n), n)
	if !exact {
		t.Fatal("recording inexact")
	}

	l1iConv := dri.Config{SizeBytes: 64 << 10, BlockBytes: 32, Assoc: 1, AddrBits: 32}
	l1iDRI := l1iConv
	l1iDRI.Params = dri.Params{
		Enabled: true, MissBound: 100, SizeBoundBytes: 1 << 10,
		SenseInterval: 10_000, Divisibility: 2,
		ThrottleSaturation: 7, ThrottleIntervals: 10,
	}

	cases := []struct {
		name string
		l1i  dri.Config
		mut  func(*Config)
	}{
		{"conventional", l1iConv, nil},
		{"dri", l1iDRI, nil},
		{"single-port", l1iDRI, func(c *Config) { c.MemPorts = 1 }},
		{"quad-port", l1iConv, func(c *Config) { c.MemPorts = 4 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			if tc.mut != nil {
				tc.mut(&cfg)
			}
			cur := rep.Cursor()
			fusedRes, fusedMem, fusedIC := runWith(cfg, mem.DefaultConfig(tc.l1i), &cur, false)
			genRes, genMem, genIC := runWith(cfg, mem.DefaultConfig(tc.l1i), prog.Stream(n), true)
			laneGenRes, laneGenMem, laneGenIC := runWith(cfg, mem.DefaultConfig(tc.l1i), prog.Stream(n), false)

			if fusedRes != genRes || fusedRes != laneGenRes {
				t.Errorf("cpu.Result diverged:\n  replay lane    %+v\n  generic        %+v\n  generator lane %+v",
					fusedRes, genRes, laneGenRes)
			}
			if fusedMem != genMem || fusedMem != laneGenMem {
				t.Errorf("mem.Stats diverged:\n  replay lane    %+v\n  generic        %+v\n  generator lane %+v",
					fusedMem, genMem, laneGenMem)
			}
			if fusedIC != genIC || fusedIC != laneGenIC {
				t.Errorf("dri.Stats diverged:\n  replay lane    %+v\n  generic        %+v\n  generator lane %+v",
					fusedIC, genIC, laneGenIC)
			}
		})
	}
}

// runWith simulates stream on a fresh whole-system hierarchy, through the
// lane executor (Run) or, with generic set, through runGeneric directly.
func runWith(cfg Config, memCfg mem.Config, stream isa.Stream, generic bool) (Result, mem.Stats, dri.Stats) {
	h := mem.New(memCfg)
	p := New(cfg, h, h, bpred.New(bpred.DefaultConfig()), h)
	var r Result
	if generic {
		r, _ = p.runGeneric(context.Background(), stream)
	} else {
		r = p.Run(stream)
	}
	h.Finish(r.Cycles)
	return r, h.Stats(), h.ICache().Stats()
}

// TestFusedMemoMatchesGeneric pins the memoized fused loop — the lane fast
// path that probes the way-memoization link table and skips FetchBlock, plus
// the SeqPC same-block shortcut — to the generic interface loop, across all
// benchmarks. Way memoization must be a pure accelerator: identical cycles,
// identical cache statistics (including the memo-hit counts themselves),
// identical energy inputs.
func TestFusedMemoMatchesGeneric(t *testing.T) {
	benches := trace.Benchmarks()
	if testing.Short() {
		benches = benches[:3]
	}
	const n = 150_000
	l1i := dri.Config{SizeBytes: 64 << 10, BlockBytes: 32, Assoc: 4, AddrBits: 32}
	memCfg := mem.DefaultConfig(l1i)
	memCfg.L1IPolicy = policy.DefaultWayMemo(50_000)
	memCfg.L2Policy = policy.DefaultWayMemo(50_000)
	var totalMemoHits uint64
	for _, b := range benches {
		t.Run(b.Name, func(t *testing.T) {
			rep, exact := isa.RecordStream(b.Stream(n), n)
			if !exact {
				t.Fatal("recording inexact")
			}
			cur := rep.Cursor()
			fusedRes, fusedMem, fusedIC := runWith(DefaultConfig(), memCfg, &cur, false)
			totalMemoHits += fusedIC.MemoHits
			genRes, genMem, genIC := runWith(DefaultConfig(), memCfg, b.Stream(n), true)

			if fusedRes != genRes {
				t.Errorf("cpu.Result diverged:\n  fused   %+v\n  generic %+v", fusedRes, genRes)
			}
			if fusedMem != genMem {
				t.Errorf("mem.Stats diverged:\n  fused   %+v\n  generic %+v", fusedMem, genMem)
			}
			if fusedIC != genIC {
				t.Errorf("dri.Stats diverged:\n  fused   %+v\n  generic %+v", fusedIC, genIC)
			}
		})
	}
	if totalMemoHits == 0 {
		t.Error("no benchmark recorded a memo hit on the fused path; the fast path is not engaged")
	}
}

// TestFusedPathTaken asserts the dispatch logic actually selects the fused
// loop for the whole-system shape and the generic loop otherwise (guarding
// against silent de-optimization).
func TestFusedPathTaken(t *testing.T) {
	l1i := dri.Config{SizeBytes: 64 << 10, BlockBytes: 32, Assoc: 1, AddrBits: 32}
	h := mem.New(mem.DefaultConfig(l1i))
	p := New(DefaultConfig(), h, h, nil, h)
	rep, _ := isa.RecordStream(&isa.SliceStream{}, 0)
	cur := rep.Cursor()
	if !(p.tickIs(h) && p.dmemIs(h)) {
		t.Fatal("whole-system shape not recognized as fusable")
	}
	_ = cur

	// Foreign dmem defeats fusing.
	p2 := New(DefaultConfig(), h, &perfectDMem{}, nil, h)
	if p2.dmemIs(h) {
		t.Fatal("foreign dmem reported as fusable")
	}
	// A foreign ticker defeats fusing; a nil one does not.
	p3 := New(DefaultConfig(), h, h, nil, &countTicker{})
	if p3.tickIs(h) {
		t.Fatal("foreign ticker reported as fusable")
	}
	p4 := New(DefaultConfig(), h, h, nil, nil)
	if !p4.tickIs(h) {
		t.Fatal("nil ticker should be fusable")
	}
}
