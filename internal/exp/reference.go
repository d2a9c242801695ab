package exp

// PaperFig3 holds the approximate per-benchmark values read off the paper's
// Figure 3 (performance-constrained bars): relative energy-delay and
// average cache size as fractions of the conventional 64K i-cache. These
// anchor the paper-vs-measured comparison in the cmd/experiments report;
// the reproduction targets the *shape* (class ordering, fpppp at 1.0), not
// the absolute values, since the substrate differs: synthetic SPEC95
// stand-ins (internal/trace) on an analytical out-of-order core
// (internal/cpu) instead of SimpleScalar running the real binaries.
var PaperFig3 = map[string]struct{ ED, AvgSize float64 }{
	"applu":    {0.20, 0.15},
	"compress": {0.20, 0.15},
	"li":       {0.40, 0.20},
	"mgrid":    {0.20, 0.15},
	"swim":     {0.40, 0.30},
	"apsi":     {0.40, 0.40},
	"fpppp":    {1.00, 1.00},
	"go":       {0.90, 0.80},
	"m88ksim":  {0.60, 0.40},
	"perl":     {0.60, 0.40},
	"gcc":      {0.90, 0.80},
	"hydro2d":  {0.40, 0.35},
	"ijpeg":    {0.20, 0.15},
	"su2cor":   {0.60, 0.40},
	"tomcatv":  {0.90, 0.80},
}

// PaperHeadline holds the paper's abstract-level claims for the base 64K
// configuration.
var PaperHeadline = struct {
	EDReductionConstrainedPct   float64 // "reduces ... energy-delay ... by 62%"
	EDReductionUnconstrainedPct float64 // "and by 67% with higher performance degradation"
	MaxSlowdownConstrainedPct   float64 // "with less than 4% impact on execution time"
	AvgSizeReductionPct         float64 // "reduces ... cache size by 62%"
}{62, 67, 4, 62}
