package sim

// Property tests of lane classes: a pass that steps every Figure 3 grid
// point of a benchmark as one lane until its controllers' decisions diverge
// must produce, field for field, the Results of one lane per configuration.

import (
	"context"
	"fmt"
	"reflect"
	"runtime/pprof"
	"testing"

	"dricache/internal/dri"
	"dricache/internal/timeline"
	"dricache/internal/trace"
)

// The quick scale of the experiments (exp.QuickScale): 1M instructions in
// 50K-instruction sense intervals.
const (
	classInstrs   = 1_000_000
	classInterval = 50_000
)

// The Figure 3 search grids at that scale (exp.DefaultSpace and
// exp.QuickSpace).
var (
	defaultMissBounds = []uint64{50, 100, 200, 400, 800, 1600}
	defaultSizeBounds = []int{1 << 10, 2 << 10, 4 << 10, 8 << 10, 16 << 10, 32 << 10, 64 << 10}
	quickMissBounds   = []uint64{100, 400, 1600}
	quickSizeBounds   = []int{1 << 10, 4 << 10, 16 << 10, 64 << 10}
)

// gridConfigs is a Figure 3 search: the conventional baseline, then one DRI
// configuration per (miss-bound, size-bound) on l1i's geometry and params.
func gridConfigs(l1i dri.Config, missBounds []uint64, sizeBounds []int) []Config {
	cfgs := []Config{Default(BaselineConfig(l1i), classInstrs)}
	for _, mb := range missBounds {
		for _, sb := range sizeBounds {
			c := l1i
			c.Params.MissBound, c.Params.SizeBoundBytes = mb, sb
			cfgs = append(cfgs, Default(c, classInstrs))
		}
	}
	return cfgs
}

// singletons is one class per configuration: the pass before lane classes.
func singletons(n int) [][]int {
	out := make([][]int, n)
	for i := range out {
		out[i] = []int{i}
	}
	return out
}

// classPass runs cfgs over prog grouped as classes, returning the results
// and the forks.
func classPass(t *testing.T, cfgs []Config, classes [][]int, prog trace.Program) ([]Result, int) {
	t.Helper()
	out, _, forks, err := runClasses(context.Background(), cfgs, classes, prog, pprof.Labels())
	if err != nil {
		t.Fatal(err)
	}
	return out, forks
}

// sameResults fails unless got and want are equal field for field.
func sameResults(t *testing.T, label string, cfgs []Config, got, want []Result) {
	t.Helper()
	for i := range want {
		if reflect.DeepEqual(got[i], want[i]) {
			continue
		}
		g, w := reflect.ValueOf(got[i]), reflect.ValueOf(want[i])
		for f := 0; f < g.NumField(); f++ {
			if !reflect.DeepEqual(g.Field(f).Interface(), w.Field(f).Interface()) {
				t.Fatalf("%s: config %d (mb=%d sb=%d): %s differs:\n  class %+v\n  lane  %+v",
					label, i, cfgs[i].Mem.L1I.Params.MissBound, cfgs[i].Mem.L1I.Params.SizeBoundBytes,
					g.Type().Field(f).Name, g.Field(f).Interface(), w.Field(f).Interface())
			}
		}
		t.Fatalf("%s: config %d differs", label, i)
	}
}

// reduced reports whether the class tests run in their reduced form: under
// -short and under the race detector.
func reduced() bool { return testing.Short() || raceEnabled }

// programs looks up the named benchmarks.
func programs(t *testing.T, names ...string) []trace.Program {
	t.Helper()
	var out []trace.Program
	for _, name := range names {
		p, err := trace.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, p)
	}
	return out
}

// TestClassesMatchOneLanePerConfig runs the Figure 3 grid of every
// benchmark at quick scale as lane classes and as one lane per
// configuration: every Result must match field for field, and the forks are
// pinned — a DefaultSpace search over the 15 benchmarks forks 221 times and
// a QuickSpace search 88 times, the number of distinct decision histories
// less one per benchmark. Three of the 221 divergences fall on the last
// sense-interval boundary, where the fork runs no further instruction.
// Variants run the grid with timeline recorders, in way mode and under an
// automatic miss-bound.
func TestClassesMatchOneLanePerConfig(t *testing.T) {
	// Reduced: the grid and the variants over gcc, a class-2 benchmark
	// whose grid forks the most.
	progs, vprogs := trace.Benchmarks(), programs(t, "applu", "gcc", "tomcatv")
	if reduced() {
		progs, vprogs = programs(t, "gcc"), programs(t, "gcc")
	}
	base := dri.DefaultParams(classInterval)

	t.Run("default", func(t *testing.T) {
		cfgs := gridConfigs(DRI64K(base), defaultMissBounds, defaultSizeBounds)
		quick := gridConfigs(DRI64K(base), quickMissBounds, quickSizeBounds)
		forks, quickForks := 0, 0
		for _, p := range progs {
			want, _ := classPass(t, cfgs, singletons(len(cfgs)), p)
			got, n := classPass(t, cfgs, classesOf(cfgs), p)
			if cls := classesOf(cfgs); len(cls) != 2 {
				t.Fatalf("grid forms %d classes, want 2 (baseline and DRI)", len(cls))
			}
			sameResults(t, p.Name, cfgs, got, want)
			forks += n

			// The quick grid is a subset of the default one.
			byBounds := map[[2]uint64]Result{}
			for i, c := range cfgs {
				byBounds[[2]uint64{c.Mem.L1I.Params.MissBound, uint64(c.Mem.L1I.Params.SizeBoundBytes)}] = want[i]
			}
			qwant := make([]Result, len(quick))
			for i, c := range quick {
				qwant[i] = byBounds[[2]uint64{c.Mem.L1I.Params.MissBound, uint64(c.Mem.L1I.Params.SizeBoundBytes)}]
			}
			qgot, qn := classPass(t, quick, classesOf(quick), p)
			sameResults(t, p.Name+"/quick", quick, qgot, qwant)
			quickForks += qn
		}
		if !reduced() && (forks != 221 || quickForks != 88) {
			t.Fatalf("forks: DefaultSpace %d, QuickSpace %d; want 221 and 88", forks, quickForks)
		}
		t.Logf("forks: DefaultSpace %d, QuickSpace %d over %d benchmarks", forks, quickForks, len(progs))
	})

	variants := []struct {
		name string
		cfgs []Config
	}{
		{"timeline", func() []Config {
			cfgs := gridConfigs(DRI64K(base), quickMissBounds, quickSizeBounds)
			for i := range cfgs {
				cfgs[i] = cfgs[i].WithTimeline(timeline.Config{Enabled: true})
			}
			return cfgs
		}()},
		{"ways", func() []Config {
			l1i := assoc4()
			l1i.Params = base
			l1i.Params.ResizeWays = true
			return gridConfigs(l1i, quickMissBounds, []int{16 << 10, 32 << 10, 48 << 10, 64 << 10})
		}()},
		{"auto", func() []Config {
			p := base
			p.AutoMissBoundFactor = 4
			return gridConfigs(DRI64K(p), quickMissBounds, defaultSizeBounds)
		}()},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			for _, c := range v.cfgs {
				if err := c.Mem.Check(); err != nil {
					t.Fatal(err)
				}
			}
			forks := 0
			for _, p := range vprogs {
				want, _ := classPass(t, v.cfgs, singletons(len(v.cfgs)), p)
				got, n := classPass(t, v.cfgs, classesOf(v.cfgs), p)
				sameResults(t, fmt.Sprintf("%s/%s", v.name, p.Name), v.cfgs, got, want)
				forks += n
			}
			if forks == 0 {
				t.Fatal("the grid never forked: the variant does not exercise a split")
			}
		})
	}
}

// TestClassesMixTimeline runs timeline and plain classes, in both orders,
// in one pass: each Result matches its solo run, and no class samples at
// another's interval.
func TestClassesMixTimeline(t *testing.T) {
	const n = 200_000
	p := programs(t, "gcc")[0]
	grid := func(mb uint64, tl bool) Config {
		c := Default(DRI64K(dri.DefaultParams(20_000)), n)
		c.Mem.L1I.Params.MissBound = mb
		if tl {
			c = c.WithTimeline(timeline.Config{Enabled: true, IntervalInstructions: 30_000})
		}
		return c
	}
	for _, cfgs := range [][]Config{
		{grid(20, true), grid(200, false), grid(100, true), grid(100, false)},
		{grid(200, false), grid(20, true), grid(100, false), grid(100, true)},
	} {
		want := make([]Result, len(cfgs))
		for i, c := range cfgs {
			want[i] = Run(c, p)
		}
		sameResults(t, "mixed timeline", cfgs, RunLanes(cfgs, p), want)
	}
}

// TestClassesOf pins the class key: configurations share a class exactly
// when they differ in nothing but the L1I's miss-bound and size-bound.
func TestClassesOf(t *testing.T) {
	a := Default(DRI64K(dri.DefaultParams(classInterval)), classInstrs)
	b := a
	b.Mem.L1I.Params.MissBound *= 4
	b.Mem.L1I.Params.SizeBoundBytes = 8 << 10
	c := a
	c.Mem.L1I.Params.Divisibility = 4
	d := a.WithTimeline(timeline.Config{Enabled: true})
	e := a
	e.Mem.L2.Params.MissBound = 7
	got := classesOf([]Config{a, c, b, d, a, e})
	want := [][]int{{0, 2, 4}, {1}, {3}, {5}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("classesOf = %v, want %v", got, want)
	}
}
