package trace

import (
	"fmt"
	"slices"
	"sort"
)

// Benchmarks returns the fifteen SPEC95 stand-ins the paper evaluates
// (all of SPEC95 minus two floating-point and one integer benchmark),
// grouped in the paper's three classes. Each definition encodes the
// published characterization of that benchmark's i-cache behaviour; the
// package comment gives the substitution argument. The list and its
// programs are the caller's own: changing them changes no later lookup.
func Benchmarks() []Program {
	out := make([]Program, len(benchTable))
	for i, p := range benchTable {
		out[i] = p.clone()
	}
	return out
}

// benchTable is the benchmark definitions, built once; Benchmarks and
// ByName hand out copies. benchIndex maps a name to its entry.
var (
	benchTable = definitions()
	benchIndex = func() map[string]int {
		m := make(map[string]int, len(benchTable))
		for i, p := range benchTable {
			m[p.Name] = i
		}
		return m
	}()
)

// clone returns p with its own phase list.
func (p Program) clone() Program {
	p.Phases = slices.Clone(p.Phases)
	return p
}

// definitions builds the benchmark table.
func definitions() []Program {
	return []Program{
		// ---- Class 1: small i-cache requirement throughout ----
		// "They mostly execute tight loops allowing a DRI i-cache to stay
		// at the size-bound."
		{
			Name: "applu", Class: ClassSmall, Seed: 101, Repeat: 1,
			Phases: []Phase{
				{Name: "init", Fraction: 0.03, CodeKB: 24, LoopBody: 40, LoopTrip: 4,
					CondEvery: 8, LoadFrac: 0.28, StoreFrac: 0.12, FPFrac: 0.10,
					DataKB: 2048, DataStreamFrac: 0.9},
				{Name: "solve", Fraction: 0.97, CodeKB: 4, LoopBody: 60, LoopTrip: 200,
					CondEvery: 10, LoadFrac: 0.26, StoreFrac: 0.10, FPFrac: 0.34,
					DataKB: 4096, DataStreamFrac: 0.85},
			},
		},
		{
			Name: "compress", Class: ClassSmall, Seed: 102, Repeat: 1,
			Phases: []Phase{
				{Name: "codec", Fraction: 1, CodeKB: 4, LoopBody: 30, LoopTrip: 30,
					CondEvery: 6, CondNoise: 0.10, LoadFrac: 0.30, StoreFrac: 0.15,
					DataKB: 8192, DataStreamFrac: 0.4},
			},
		},
		{
			Name: "li", Class: ClassSmall, Seed: 103, Repeat: 1,
			Phases: []Phase{
				{Name: "eval", Fraction: 1, CodeKB: 8, HotKB: 2, HotFrac: 0.75,
					LoopBody: 16, LoopTrip: 6, CallFrac: 0.5,
					CondEvery: 5, CondNoise: 0.06, LoadFrac: 0.30, StoreFrac: 0.14,
					DataKB: 1024, DataStreamFrac: 0.2},
			},
		},
		{
			Name: "mgrid", Class: ClassSmall, Seed: 104, Repeat: 1,
			Phases: []Phase{
				{Name: "relax", Fraction: 1, CodeKB: 3, LoopBody: 80, LoopTrip: 500,
					CondEvery: 12, LoadFrac: 0.30, StoreFrac: 0.10, FPFrac: 0.38,
					DataKB: 8192, DataStreamFrac: 0.95},
			},
		},
		{
			Name: "swim", Class: ClassSmall, Seed: 105, Repeat: 1,
			Phases: []Phase{
				// The small alt region aliases the main loops in a
				// direct-mapped cache (64K-aligned offset), producing the
				// conflict misses Figure 6 reports for swim.
				{Name: "stencil", Fraction: 1, CodeKB: 6, LoopBody: 100, LoopTrip: 300,
					AltKB: 4, AltOffsetKB: 66, AltFrac: 0.06,
					CondEvery: 14, LoadFrac: 0.32, StoreFrac: 0.12, FPFrac: 0.40,
					DataKB: 16384, DataStreamFrac: 0.95},
			},
		},

		// ---- Class 2: large i-cache requirement throughout ----
		// "If these benchmarks are encouraged to downsize via high
		// miss-bounds, they incur a large number of extra L1 misses."
		{
			Name: "apsi", Class: ClassLarge, Seed: 201, Repeat: 1,
			Phases: []Phase{
				{Name: "main", Fraction: 1, CodeKB: 32, HotKB: 16, HotFrac: 0.80,
					LoopBody: 50, LoopTrip: 15,
					CondEvery: 8, CondNoise: 0.05, LoadFrac: 0.27, StoreFrac: 0.11, FPFrac: 0.30,
					DataKB: 2048, DataStreamFrac: 0.7},
			},
		},
		{
			Name: "fpppp", Class: ClassLarge, Seed: 202, Repeat: 1,
			Phases: []Phase{
				// fpppp's famous basic block: tens of kilobytes of straight-
				// line FP code executed repeatedly. The whole 56K region is
				// the working set; any downsizing thrashes.
				{Name: "scf", Fraction: 1, CodeKB: 56, LoopBody: 11000, LoopTrip: 40,
					CondEvery: 24, LoadFrac: 0.24, StoreFrac: 0.10, FPFrac: 0.50,
					DataKB: 1024, DataStreamFrac: 0.9},
			},
		},
		{
			Name: "go", Class: ClassLarge, Seed: 203, Repeat: 1,
			Phases: []Phase{
				{Name: "search", Fraction: 1, CodeKB: 40, HotKB: 28, HotFrac: 0.75,
					AltKB: 4, AltOffsetKB: 164, AltFrac: 0.02,
					LoopBody: 20, LoopTrip: 4, CallFrac: 0.30,
					CondEvery: 4, CondNoise: 0.15, LoadFrac: 0.26, StoreFrac: 0.10,
					DataKB: 512, DataStreamFrac: 0.2},
			},
		},
		{
			Name: "m88ksim", Class: ClassLarge, Seed: 204, Repeat: 1,
			Phases: []Phase{
				{Name: "simloop", Fraction: 1, CodeKB: 40, HotKB: 12, HotFrac: 0.92,
					LoopBody: 30, LoopTrip: 14, CallFrac: 0.30,
					CondEvery: 6, CondNoise: 0.06, LoadFrac: 0.28, StoreFrac: 0.12,
					DataKB: 1024, DataStreamFrac: 0.5},
			},
		},
		{
			Name: "perl", Class: ClassLarge, Seed: 205, Repeat: 1,
			Phases: []Phase{
				{Name: "interp", Fraction: 1, CodeKB: 44, HotKB: 20, HotFrac: 0.85,
					AltKB: 8, AltOffsetKB: 228, AltFrac: 0.04,
					LoopBody: 25, LoopTrip: 10, CallFrac: 0.45,
					CondEvery: 5, CondNoise: 0.08, LoadFrac: 0.30, StoreFrac: 0.14,
					DataKB: 2048, DataStreamFrac: 0.3},
			},
		},

		// ---- Class 3: distinct phases with diverse requirements ----
		{
			Name: "gcc", Class: ClassPhased, Seed: 301, Repeat: 3,
			Phases: []Phase{
				// Compilation passes of varying footprint with fuzzy
				// boundaries ("the phase transitions in gcc ... are not as
				// clearly defined").
				{Name: "parse", Fraction: 0.20, CodeKB: 16, HotKB: 8, HotFrac: 0.6,
					LoopBody: 22, LoopTrip: 4, CallFrac: 0.35,
					CondEvery: 5, CondNoise: 0.06, LoadFrac: 0.28, StoreFrac: 0.13,
					DataKB: 2048, DataStreamFrac: 0.5},
				{Name: "rtlgen", Fraction: 0.35, CodeKB: 36, HotKB: 16, HotFrac: 0.55,
					AltKB: 8, AltOffsetKB: 156, AltFrac: 0.025,
					LoopBody: 22, LoopTrip: 4, CallFrac: 0.35,
					CondEvery: 5, CondNoise: 0.06, LoadFrac: 0.28, StoreFrac: 0.13,
					DataKB: 4096, DataStreamFrac: 0.5},
				{Name: "optimize", Fraction: 0.25, CodeKB: 24, CodeOffsetKB: 16,
					HotKB: 12, HotFrac: 0.6,
					LoopBody: 26, LoopTrip: 5, CallFrac: 0.30,
					CondEvery: 5, CondNoise: 0.05, LoadFrac: 0.27, StoreFrac: 0.12,
					DataKB: 4096, DataStreamFrac: 0.5},
				{Name: "emit", Fraction: 0.20, CodeKB: 44, HotKB: 20, HotFrac: 0.5,
					AltKB: 8, AltOffsetKB: 164, AltFrac: 0.02,
					LoopBody: 20, LoopTrip: 4, CallFrac: 0.35,
					CondEvery: 5, CondNoise: 0.06, LoadFrac: 0.29, StoreFrac: 0.14,
					DataKB: 2048, DataStreamFrac: 0.5},
			},
		},
		{
			Name: "hydro2d", Class: ClassPhased, Seed: 302, Repeat: 1,
			Phases: []Phase{
				// "After the initialization phase requiring the full size of
				// i-cache, these benchmarks consist mainly of small loops
				// requiring only 2K of i-cache."
				{Name: "init", Fraction: 0.12, CodeKB: 52, LoopBody: 50, LoopTrip: 8,
					CondEvery: 8, LoadFrac: 0.28, StoreFrac: 0.12, FPFrac: 0.20,
					DataKB: 8192, DataStreamFrac: 0.8},
				{Name: "sweep", Fraction: 0.88, CodeKB: 2, LoopBody: 70, LoopTrip: 400,
					AltKB: 2, AltOffsetKB: 64, AltFrac: 0.05,
					CondEvery: 12, LoadFrac: 0.30, StoreFrac: 0.12, FPFrac: 0.36,
					DataKB: 8192, DataStreamFrac: 0.95},
			},
		},
		{
			Name: "ijpeg", Class: ClassPhased, Seed: 303, Repeat: 1,
			Phases: []Phase{
				{Name: "setup", Fraction: 0.08, CodeKB: 44, LoopBody: 36, LoopTrip: 6,
					CondEvery: 7, LoadFrac: 0.28, StoreFrac: 0.13,
					DataKB: 4096, DataStreamFrac: 0.6},
				{Name: "dct", Fraction: 0.92, CodeKB: 2, LoopBody: 60, LoopTrip: 150,
					CondEvery: 10, LoadFrac: 0.30, StoreFrac: 0.12,
					DataKB: 4096, DataStreamFrac: 0.85},
			},
		},
		{
			Name: "su2cor", Class: ClassPhased, Seed: 304, Repeat: 5,
			Phases: []Phase{
				{Name: "update", Fraction: 0.5, CodeKB: 24, HotKB: 12, HotFrac: 0.6,
					AltKB: 6, AltOffsetKB: 82, AltFrac: 0.05,
					LoopBody: 45, LoopTrip: 12,
					CondEvery: 8, LoadFrac: 0.28, StoreFrac: 0.11, FPFrac: 0.30,
					DataKB: 8192, DataStreamFrac: 0.8},
				{Name: "measure", Fraction: 0.5, CodeKB: 6, LoopBody: 70, LoopTrip: 80,
					CondEvery: 10, LoadFrac: 0.30, StoreFrac: 0.10, FPFrac: 0.35,
					DataKB: 4096, DataStreamFrac: 0.9},
			},
		},
		{
			Name: "tomcatv", Class: ClassPhased, Seed: 305, Repeat: 6,
			Phases: []Phase{
				{Name: "generate", Fraction: 0.45, CodeKB: 20, HotKB: 10, HotFrac: 0.55,
					AltKB: 6, AltOffsetKB: 78, AltFrac: 0.06,
					LoopBody: 60, LoopTrip: 20,
					CondEvery: 9, CondNoise: 0.06, LoadFrac: 0.30, StoreFrac: 0.12, FPFrac: 0.32,
					DataKB: 14336, DataStreamFrac: 0.9},
				{Name: "residual", Fraction: 0.55, CodeKB: 4, LoopBody: 80, LoopTrip: 120,
					CondEvery: 12, LoadFrac: 0.32, StoreFrac: 0.12, FPFrac: 0.36,
					DataKB: 14336, DataStreamFrac: 0.95},
			},
		},
	}
}

// ByName returns (a copy of) the named benchmark or an error listing valid
// names.
func ByName(name string) (Program, error) {
	if i, ok := benchIndex[name]; ok {
		return benchTable[i].clone(), nil
	}
	return Program{}, fmt.Errorf("trace: unknown benchmark %q (have %v)", name, Names())
}

// Names returns the benchmark names in class order (the paper's Figure 3
// x-axis order).
func Names() []string {
	names := make([]string, len(benchTable))
	for i, b := range benchTable {
		names[i] = b.Name
	}
	return names
}

// ByClass returns the benchmarks of one class, preserving order.
func ByClass(c SPECClass) []Program {
	var out []Program
	for _, b := range benchTable {
		if b.Class == c {
			out = append(out, b.clone())
		}
	}
	return out
}

// SortedNames returns benchmark names alphabetically (for stable map-like
// iteration in reports).
func SortedNames() []string {
	n := Names()
	sort.Strings(n)
	return n
}
