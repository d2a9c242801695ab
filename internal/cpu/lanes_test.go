package cpu

import (
	"testing"

	"dricache/internal/bpred"
	"dricache/internal/dri"
	"dricache/internal/isa"
	"dricache/internal/mem"
	"dricache/internal/policy"
	"dricache/internal/trace"
)

// l1iConfigs returns the 64K direct-mapped L1 i-cache, conventional and
// under a DRI controller that resizes often.
func l1iConfigs() (conv, resizing dri.Config) {
	conv = dri.Config{SizeBytes: 64 << 10, BlockBytes: 32, Assoc: 1, AddrBits: 32}
	resizing = conv
	resizing.Params = dri.Params{
		Enabled: true, MissBound: 100, SizeBoundBytes: 1 << 10,
		SenseInterval: 10_000, Divisibility: 2,
		ThrottleSaturation: 7, ThrottleIntervals: 10,
	}
	return conv, resizing
}

// TestRunLanesMatchesSoloPipelines pins the lane executor to the solo
// pipeline: N lanes advanced lock-step over one decode — including lanes
// with different branch-predictor configurations, which form separate
// predictor groups — must each produce the cpu.Result and memory traffic of
// running that pipeline alone over the same stream.
func TestRunLanesMatchesSoloPipelines(t *testing.T) {
	prog, err := trace.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	const n = 120_000
	rep, exact := isa.RecordStream(prog.Stream(n), n)
	if !exact {
		t.Fatal("recording inexact")
	}

	l1iConv, l1iDRI := l1iConfigs()
	bpBig := bpred.DefaultConfig()
	bpSmall := bpBig
	bpSmall.BTBEntries = 256
	bpSmall.HistoryBits = 8

	cases := []struct {
		name string
		l1i  dri.Config
		bp   bpred.Config
	}{
		{"conv/defaultBP", l1iConv, bpBig},
		{"dri/defaultBP", l1iDRI, bpBig},
		{"conv/smallBP", l1iConv, bpSmall},
		{"dri/smallBP", l1iDRI, bpSmall},
	}

	solo := make([]Result, len(cases))
	soloMem := make([]mem.Stats, len(cases))
	for i, c := range cases {
		h := mem.New(mem.DefaultConfig(c.l1i))
		p := New(DefaultConfig(), h, h, bpred.New(c.bp), h)
		cur := rep.Cursor()
		solo[i] = p.Run(&cur)
		h.Finish(solo[i].Cycles)
		soloMem[i] = h.Stats()
	}

	hs := make([]*mem.Hierarchy, len(cases))
	pipes := make([]*Pipeline, len(cases))
	for i, c := range cases {
		hs[i] = mem.New(mem.DefaultConfig(c.l1i))
		pipes[i] = New(DefaultConfig(), hs[i], hs[i], bpred.New(c.bp), hs[i])
	}
	cur := rep.Cursor()
	got := RunLanes(&cur, pipes)
	for i, c := range cases {
		hs[i].Finish(got[i].Cycles)
		if got[i] != solo[i] {
			t.Errorf("%s: cpu.Result diverged:\n  lane %+v\n  solo %+v", c.name, got[i], solo[i])
		}
		if hs[i].Stats() != soloMem[i] {
			t.Errorf("%s: mem.Stats diverged:\n  lane %+v\n  solo %+v", c.name, hs[i].Stats(), soloMem[i])
		}
	}
}

// TestReplayMatchesChunkedStream pins the lane's same-block shortcut (a
// replay cursor sets DecodedInstr.Seq) to the plain block compare (an
// isa.SliceStream read through isa.Chunked leaves Seq false) and to the
// generator's own chunk source: the same stream through the same system
// configuration must yield bit-identical results whichever source feeds
// the lane. Exercised across port counts and with/without DRI ticking.
func TestReplayMatchesChunkedStream(t *testing.T) {
	prog, err := trace.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	const n = 150_000
	rep, exact := isa.RecordStream(prog.Stream(n), n)
	if !exact {
		t.Fatal("recording inexact")
	}
	slice := &isa.SliceStream{}
	var ins isa.Instr
	for s := prog.Stream(n); s.Next(&ins); {
		slice.Instrs = append(slice.Instrs, ins)
	}
	walk := rep.Cursor()
	if seqs, plain := countSeq(&walk), countSeq(isa.Chunked(slice)); seqs == 0 || plain != 0 {
		t.Fatalf("Seq set on %d replayed and %d sliced instructions; want some and none", seqs, plain)
	}

	l1iConv, l1iDRI := l1iConfigs()

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
			memCfg := mem.DefaultConfig(tc.l1i)
			cur := rep.Cursor()
			replayRes, replayMem, replayIC := runWith(cfg, memCfg, &cur)
			slice.Reset()
			sliceRes, sliceMem, sliceIC := runWith(cfg, memCfg, slice)
			genRes, genMem, genIC := runWith(cfg, memCfg, prog.Stream(n))

			if replayRes != sliceRes || replayRes != genRes {
				t.Errorf("cpu.Result diverged:\n  replay    %+v\n  slice     %+v\n  generator %+v",
					replayRes, sliceRes, genRes)
			}
			if replayMem != sliceMem || replayMem != genMem {
				t.Errorf("mem.Stats diverged:\n  replay    %+v\n  slice     %+v\n  generator %+v",
					replayMem, sliceMem, genMem)
			}
			if replayIC != sliceIC || replayIC != genIC {
				t.Errorf("dri.Stats diverged:\n  replay    %+v\n  slice     %+v\n  generator %+v",
					replayIC, sliceIC, genIC)
			}
		})
	}
}

// countSeq drains src and counts the instructions it marks Seq.
func countSeq(src isa.ChunkSource) int {
	var buf [laneChunk]isa.DecodedInstr
	seqs := 0
	for n := src.NextChunk(buf[:]); n > 0; n = src.NextChunk(buf[:]) {
		for _, e := range buf[:n] {
			if e.Seq {
				seqs++
			}
		}
	}
	return seqs
}

// runWith simulates stream on a fresh hierarchy over memCfg.
func runWith(cfg Config, memCfg mem.Config, stream isa.Stream) (Result, mem.Stats, dri.Stats) {
	h := mem.New(memCfg)
	r := New(cfg, h, h, bpred.New(bpred.DefaultConfig()), h).Run(stream)
	h.Finish(r.Cycles)
	return r, h.Stats(), h.ICache().Stats()
}

// wayMemoConfig is a 4-way hierarchy with way memoization at the L1
// i-cache and the L2 when memo is set, and the same geometry without it
// otherwise.
func wayMemoConfig(memo bool) mem.Config {
	c := mem.DefaultConfig(dri.Config{SizeBytes: 64 << 10, BlockBytes: 32, Assoc: 4, AddrBits: 32})
	if memo {
		c.L1IPolicy = policy.DefaultWayMemo(50_000)
		c.L2Policy = policy.DefaultWayMemo(50_000)
	}
	return c
}

// memoBenches returns the benchmarks the way-memo tests cover: all of
// them, or the first three under -short.
func memoBenches() []trace.Program {
	benches := trace.Benchmarks()
	if testing.Short() {
		benches = benches[:3]
	}
	return benches
}

// TestWayMemoTransparent checks Ishihara & Fallah's transparency claim
// (arXiv 0710.4703) on every benchmark: way memoization skips tag probes
// but changes no hit or miss. With memoization on and off the cpu.Result
// is identical, and the memory and i-cache statistics differ only in the
// memo counters themselves.
func TestWayMemoTransparent(t *testing.T) {
	const n = 150_000
	var totalMemoHits uint64
	for _, b := range memoBenches() {
		t.Run(b.Name, func(t *testing.T) {
			rep, exact := isa.RecordStream(b.Stream(n), n)
			if !exact {
				t.Fatal("recording inexact")
			}
			cur := rep.Cursor()
			onRes, onMem, onIC := runWith(DefaultConfig(), wayMemoConfig(true), &cur)
			cur = rep.Cursor()
			offRes, offMem, offIC := runWith(DefaultConfig(), wayMemoConfig(false), &cur)
			totalMemoHits += onIC.MemoHits

			if onRes != offRes {
				t.Errorf("cpu.Result diverged:\n  memo on  %+v\n  memo off %+v", onRes, offRes)
			}
			onMem.L1ITagProbesSkipped, onMem.L2TagProbesSkipped = 0, 0
			if onMem != offMem {
				t.Errorf("mem.Stats diverged beyond the skipped tag probes:\n  memo on  %+v\n  memo off %+v", onMem, offMem)
			}
			onIC.MemoHits = 0
			if onIC != offIC {
				t.Errorf("dri.Stats diverged beyond MemoHits:\n  memo on  %+v\n  memo off %+v", onIC, offIC)
			}
		})
	}
	if totalMemoHits == 0 {
		t.Error("no benchmark recorded a memo hit; the memoized fetch path is not engaged")
	}
}

// TestMemoLaneMatchesFetchBlock pins the lane's memoized fetch — a link
// table probe that skips mem.Hierarchy.FetchBlock — to FetchBlock itself:
// the lane's L1 i-cache statistics, memo hits included, must equal those
// of a fresh hierarchy driven by FetchBlock over the stream's sequence of
// fetch-block transitions.
func TestMemoLaneMatchesFetchBlock(t *testing.T) {
	const n = 150_000
	shift := DefaultConfig().BlockShift
	var totalMemoHits uint64
	for _, b := range memoBenches() {
		t.Run(b.Name, func(t *testing.T) {
			_, _, laneIC := runWith(DefaultConfig(), wayMemoConfig(true), b.Stream(n))

			h := mem.New(wayMemoConfig(true))
			cur := ^uint64(0)
			var ins isa.Instr
			for s := b.Stream(n); s.Next(&ins); {
				if block := ins.PC >> shift; block != cur {
					cur = block
					h.FetchBlock(block)
				}
			}
			if got := h.ICache().Stats(); laneIC != got {
				t.Errorf("L1I stats diverged:\n  lane       %+v\n  FetchBlock %+v", laneIC, got)
			}
			totalMemoHits += laneIC.MemoHits
		})
	}
	if totalMemoHits == 0 {
		t.Error("no benchmark recorded a memo hit; the memoized fetch path is not engaged")
	}
}

// TestNewRequiresOneHierarchy: a pipeline runs on one hierarchy, passed
// once per role; anything else is a programming error reported by New.
func TestNewRequiresOneHierarchy(t *testing.T) {
	a, b := perfect(), perfect()
	cases := []struct {
		name             string
		imem, dmem, tick *mem.Hierarchy
	}{
		{"all nil", nil, nil, nil},
		{"nil fetch", nil, a, a},
		{"nil data", a, nil, a},
		{"nil ticks", a, a, nil},
		{"foreign data", a, b, a},
		{"foreign ticks", a, a, b},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("New did not panic")
				}
			}()
			New(DefaultConfig(), tc.imem, tc.dmem, nil, tc.tick)
		})
	}
	New(DefaultConfig(), a, a, nil, a) // the one accepted shape
}
