package exp

// Golden-results regression tests: the paper-reproduction outputs (Table 2
// rows, quick-scale Figure 3–6 series, and per-benchmark run observables)
// are snapshotted into testdata/ and compared on every test run, so future
// refactors cannot silently shift the numbers. Integer observables (cycles,
// misses, traffic counters) must match bit-for-bit; floating-point outputs
// are compared with a tight relative tolerance to absorb cross-platform FP
// differences only.
//
// To regenerate after an intentional behaviour change:
//
//	go test ./internal/exp -run Golden -update
//
// and review the testdata/ diff like any other code change.

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"dricache/internal/circuit"
	"dricache/internal/dri"
	"dricache/internal/engine"
	"dricache/internal/sim"
	"dricache/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files in testdata/")

// goldenTolerance is the relative tolerance for floating-point golden
// comparisons. The simulations are deterministic, so this only absorbs
// FP-ordering differences across platforms.
const goldenTolerance = 1e-9

func goldenPath(name string) string { return filepath.Join("testdata", name) }

func writeGolden(t *testing.T, name string, v any) {
	t.Helper()
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenPath(name), append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", goldenPath(name))
}

func readGolden(t *testing.T, name string, v any) {
	t.Helper()
	data, err := os.ReadFile(goldenPath(name))
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatalf("corrupt golden file %s: %v", name, err)
	}
}

func closeTo(a, b float64) bool {
	if a == b {
		return true
	}
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return math.Abs(a-b) <= goldenTolerance*scale
}

func checkFloat(t *testing.T, ctx string, got, want float64) {
	t.Helper()
	if !closeTo(got, want) {
		t.Errorf("%s = %v, want %v (golden)", ctx, got, want)
	}
}

func checkUint(t *testing.T, ctx string, got, want uint64) {
	t.Helper()
	if got != want {
		t.Errorf("%s = %d, want %d (golden, bit-for-bit)", ctx, got, want)
	}
}

// goldenRun is the snapshot of one simulation's integer observables (all
// compared bit-for-bit) plus the active-fraction float.
type goldenRun struct {
	Cycles            uint64
	Instructions      uint64
	ICacheAccesses    uint64
	ICacheMisses      uint64
	L2AccessesFromI   uint64
	L2AccessesFromD   uint64
	MemAccesses       uint64
	Upsizes           uint64
	Downsizes         uint64
	AvgActiveFraction float64
}

func snapshotRun(res sim.Result) goldenRun {
	return goldenRun{
		Cycles:            res.CPU.Cycles,
		Instructions:      res.CPU.Instructions,
		ICacheAccesses:    res.ICache.Accesses,
		ICacheMisses:      res.ICache.Misses,
		L2AccessesFromI:   res.Mem.L2AccessesFromI,
		L2AccessesFromD:   res.Mem.L2AccessesFromD,
		MemAccesses:       res.Mem.MemAccesses,
		Upsizes:           res.ICache.Upsizes,
		Downsizes:         res.ICache.Downsizes,
		AvgActiveFraction: res.AvgActiveFraction,
	}
}

func checkRun(t *testing.T, ctx string, got, want goldenRun) {
	t.Helper()
	checkUint(t, ctx+".Cycles", got.Cycles, want.Cycles)
	checkUint(t, ctx+".Instructions", got.Instructions, want.Instructions)
	checkUint(t, ctx+".ICacheAccesses", got.ICacheAccesses, want.ICacheAccesses)
	checkUint(t, ctx+".ICacheMisses", got.ICacheMisses, want.ICacheMisses)
	checkUint(t, ctx+".L2AccessesFromI", got.L2AccessesFromI, want.L2AccessesFromI)
	checkUint(t, ctx+".L2AccessesFromD", got.L2AccessesFromD, want.L2AccessesFromD)
	checkUint(t, ctx+".MemAccesses", got.MemAccesses, want.MemAccesses)
	checkUint(t, ctx+".Upsizes", got.Upsizes, want.Upsizes)
	checkUint(t, ctx+".Downsizes", got.Downsizes, want.Downsizes)
	checkFloat(t, ctx+".AvgActiveFraction", got.AvgActiveFraction, want.AvgActiveFraction)
}

// TestGoldenRuns pins the raw simulation observables of every benchmark at
// quick scale, conventional and DRI, bit-for-bit. This is the guard that a
// hierarchy refactor (e.g. generalizing the L2 model) reproduces the seed's
// numbers exactly when the new features are disabled.
func TestGoldenRuns(t *testing.T) {
	scale := QuickScale()
	eng := engine.New(0)

	var reqs []engine.Request
	var labels []string
	for _, b := range trace.Benchmarks() {
		conv := sim.Default(sim.Conventional64K(), scale.Instructions)
		driCfg := sim.Default(sim.DRI64K(dri.DefaultParams(scale.SenseInterval)), scale.Instructions)
		reqs = append(reqs, engine.Request{Config: conv, Prog: b},
			engine.Request{Config: driCfg, Prog: b})
		labels = append(labels, b.Name+"/conventional", b.Name+"/dri")
	}
	results, err := eng.RunManyCtx(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}

	got := make(map[string]goldenRun, len(results))
	for i, res := range results {
		got[labels[i]] = snapshotRun(res)
	}

	if *updateGolden {
		writeGolden(t, "golden_runs.json", got)
		return
	}
	var want map[string]goldenRun
	readGolden(t, "golden_runs.json", &want)
	if len(got) != len(want) {
		t.Fatalf("run count = %d, golden has %d", len(got), len(want))
	}
	for label, w := range want {
		g, ok := got[label]
		if !ok {
			t.Errorf("missing run %s", label)
			continue
		}
		checkRun(t, label, g, w)
	}
}

// goldenPick snapshots one chosen parameter point of a figure series.
type goldenPick struct {
	MissBound   uint64
	SizeBound   int
	RelativeED  float64
	AvgSize     float64
	SlowdownPct float64
}

func snapshotPick(p Pick) goldenPick {
	return goldenPick{
		MissBound:   p.MissBound,
		SizeBound:   p.SizeBound,
		RelativeED:  p.Cmp.RelativeED,
		AvgSize:     p.Cmp.DRI.AvgActiveFraction,
		SlowdownPct: p.Cmp.SlowdownPct,
	}
}

func checkPick(t *testing.T, ctx string, got, want goldenPick) {
	t.Helper()
	checkUint(t, ctx+".MissBound", got.MissBound, want.MissBound)
	if got.SizeBound != want.SizeBound {
		t.Errorf("%s.SizeBound = %d, want %d", ctx, got.SizeBound, want.SizeBound)
	}
	checkFloat(t, ctx+".RelativeED", got.RelativeED, want.RelativeED)
	checkFloat(t, ctx+".AvgSize", got.AvgSize, want.AvgSize)
	checkFloat(t, ctx+".SlowdownPct", got.SlowdownPct, want.SlowdownPct)
}

// goldenFigures snapshots the quick-scale Figure 3–6 series for one
// benchmark per paper class plus one extra phased program.
type goldenFigures struct {
	Fig3 map[string]struct {
		Constrained   goldenPick
		Unconstrained goldenPick
	}
	// Fig4–Fig6: per benchmark, the labelled variant series.
	Fig4 map[string][]goldenVariant
	Fig5 map[string][]goldenVariant
	Fig6 map[string][]goldenVariant
}

type goldenVariant struct {
	Label       string
	RelativeED  float64
	AvgSize     float64
	SlowdownPct float64
}

func snapshotVariants(rows []VariationRow) map[string][]goldenVariant {
	out := make(map[string][]goldenVariant, len(rows))
	for _, r := range rows {
		var vs []goldenVariant
		for i, v := range r.Variants {
			vs = append(vs, goldenVariant{
				Label:       r.Labels[i],
				RelativeED:  v.Cmp.RelativeED,
				AvgSize:     v.Cmp.DRI.AvgActiveFraction,
				SlowdownPct: v.Cmp.SlowdownPct,
			})
		}
		out[r.Bench] = vs
	}
	return out
}

func checkVariants(t *testing.T, fig string, got, want map[string][]goldenVariant) {
	t.Helper()
	for bench, ws := range want {
		gs, ok := got[bench]
		if !ok || len(gs) != len(ws) {
			t.Errorf("%s[%s]: got %d variants, want %d", fig, bench, len(gs), len(ws))
			continue
		}
		for i, w := range ws {
			ctx := fmt.Sprintf("%s[%s][%s]", fig, bench, w.Label)
			if gs[i].Label != w.Label {
				t.Errorf("%s: label = %q, want %q", ctx, gs[i].Label, w.Label)
				continue
			}
			checkFloat(t, ctx+".RelativeED", gs[i].RelativeED, w.RelativeED)
			checkFloat(t, ctx+".AvgSize", gs[i].AvgSize, w.AvgSize)
			checkFloat(t, ctx+".SlowdownPct", gs[i].SlowdownPct, w.SlowdownPct)
		}
	}
}

// TestGoldenFigures pins the quick-scale Figure 3 best-case search and the
// Figure 4/5/6 variation series built on it, for one benchmark from each of
// the paper's three classes plus a second phased program.
func TestGoldenFigures(t *testing.T) {
	r := quickRunner()
	space := QuickSpace(r.Scale)
	benches := picks(t, "applu", "m88ksim", "gcc", "tomcatv")

	base := r.Figure3(space, benches)
	got := goldenFigures{
		Fig3: make(map[string]struct {
			Constrained   goldenPick
			Unconstrained goldenPick
		}, len(base)),
		Fig4: snapshotVariants(r.Figure4(base)),
		Fig5: snapshotVariants(r.Figure5(base)),
		Fig6: snapshotVariants(r.Figure6(base)),
	}
	for _, row := range base {
		got.Fig3[row.Bench] = struct {
			Constrained   goldenPick
			Unconstrained goldenPick
		}{snapshotPick(row.Constrained), snapshotPick(row.Unconstrained)}
	}

	if *updateGolden {
		writeGolden(t, "golden_figures.json", got)
		return
	}
	var want goldenFigures
	readGolden(t, "golden_figures.json", &want)
	for bench, w := range want.Fig3 {
		g, ok := got.Fig3[bench]
		if !ok {
			t.Errorf("Fig3 missing %s", bench)
			continue
		}
		checkPick(t, "Fig3["+bench+"].Constrained", g.Constrained, w.Constrained)
		checkPick(t, "Fig3["+bench+"].Unconstrained", g.Unconstrained, w.Unconstrained)
	}
	checkVariants(t, "Fig4", got.Fig4, want.Fig4)
	checkVariants(t, "Fig5", got.Fig5, want.Fig5)
	checkVariants(t, "Fig6", got.Fig6, want.Fig6)
}

// TestGoldenTable2 pins the circuit-level Table 2 rows (gated-Vdd cell
// trade-offs) with the standard float tolerance.
func TestGoldenTable2(t *testing.T) {
	rows := circuit.Table2(circuit.Default018())

	if *updateGolden {
		writeGolden(t, "golden_table2.json", rows)
		return
	}
	var want []circuit.Table2Row
	readGolden(t, "golden_table2.json", &want)
	if len(rows) != len(want) {
		t.Fatalf("Table2 rows = %d, golden has %d", len(rows), len(want))
	}
	for i, w := range want {
		g := rows[i]
		ctx := "Table2[" + w.Technique + "]"
		if g.Technique != w.Technique {
			t.Errorf("%s: technique = %q", ctx, g.Technique)
			continue
		}
		checkFloat(t, ctx+".GateVt", g.GateVt, w.GateVt)
		checkFloat(t, ctx+".SRAMVt", g.SRAMVt, w.SRAMVt)
		checkFloat(t, ctx+".RelativeReadTime", g.RelativeReadTime, w.RelativeReadTime)
		checkFloat(t, ctx+".ActiveLeakE9NJ", g.ActiveLeakE9NJ, w.ActiveLeakE9NJ)
		checkFloat(t, ctx+".StandbyLeakE9NJ", g.StandbyLeakE9NJ, w.StandbyLeakE9NJ)
		checkFloat(t, ctx+".EnergySavingsPct", g.EnergySavingsPct, w.EnergySavingsPct)
		checkFloat(t, ctx+".AreaIncreasePct", g.AreaIncreasePct, w.AreaIncreasePct)
	}
}
