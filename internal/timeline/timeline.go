// Package timeline is a bounded-memory per-interval flight recorder for
// simulation runs. Every lane of the pipeline's lane executor (a solo run
// is one lane) samples the cache hierarchy at sense-interval boundaries; the
// recorder turns consecutive samples into per-interval points — miss
// counts, active fraction, live sets/ways, policy state, memo hits, IPC,
// incremental energy — and keeps at most MaxPoints of them by merging
// adjacent interval pairs when full, halving the time resolution instead
// of growing memory. Any instruction budget therefore produces a series
// whose memory footprint is fixed up front, flight-recorder style.
package timeline

import "context"

// DefaultMaxPoints bounds a series when Config.MaxPoints is zero.
const DefaultMaxPoints = 512

// Config enables and shapes interval recording for one simulation. The
// zero value disables recording entirely (nil recorder, zero overhead in
// the pipeline loop). It is comparable and JSON-stable, so it can live
// inside sim.Config without breaking engine cache keys.
type Config struct {
	// Enabled turns interval sampling on.
	Enabled bool `json:"enabled,omitempty"`
	// IntervalInstructions is the sampling period in dynamic
	// instructions. Zero means "follow the cache": the L1I sense
	// interval when DRI resizing is on, the policy decay interval for a
	// per-line policy, otherwise 100k instructions.
	IntervalInstructions uint64 `json:"interval_instructions,omitempty"`
	// MaxPoints caps the series length; when an interval would exceed
	// it, adjacent points are pair-merged to halve the resolution.
	// Zero means DefaultMaxPoints.
	MaxPoints int `json:"max_points,omitempty"`
}

// Sample is one cumulative observation of a running simulation, taken at
// a sense-interval boundary. Counter fields are running totals since the
// start of the run; the remaining fields are instantaneous state at the
// sample point.
type Sample struct {
	Instructions uint64
	Cycles       uint64

	L1IAccesses     uint64
	L1IMisses       uint64
	L2Accesses      uint64
	L2Misses        uint64
	L2AccessesFromI uint64
	MemAccesses     uint64
	MemoHits        uint64
	Wakeups         uint64

	// Instantaneous state.
	ActiveSets        int
	ActiveWays        int
	L1IActiveFraction float64
	L2ActiveFraction  float64
	GatedLines        int
	DrowsyLines       int
}

// Point is one recorded interval: deltas between two samples plus the
// end-of-interval instantaneous state.
type Point struct {
	// StartInstructions/EndInstructions delimit the interval in dynamic
	// instructions; EndCycles is the cumulative cycle count at the end.
	StartInstructions uint64  `json:"start_instructions"`
	EndInstructions   uint64  `json:"end_instructions"`
	EndCycles         uint64  `json:"end_cycles"`
	Cycles            uint64  `json:"cycles"`
	IPC               float64 `json:"ipc"`

	L1IAccesses     uint64 `json:"l1i_accesses"`
	L1IMisses       uint64 `json:"l1i_misses"`
	L2Accesses      uint64 `json:"l2_accesses"`
	L2Misses        uint64 `json:"l2_misses"`
	L2AccessesFromI uint64 `json:"l2_accesses_from_i"`
	MemAccesses     uint64 `json:"mem_accesses"`
	MemoHits        uint64 `json:"memo_hits"`
	Wakeups         uint64 `json:"wakeups"`

	// End-of-interval state.
	ActiveSets        int     `json:"active_sets"`
	ActiveWays        int     `json:"active_ways"`
	L1IActiveFraction float64 `json:"l1i_active_fraction"`
	L2ActiveFraction  float64 `json:"l2_active_fraction"`
	GatedLines        int     `json:"gated_lines,omitempty"`
	DrowsyLines       int     `json:"drowsy_lines,omitempty"`

	// EnergyNJ is the incremental L1I energy over the interval under the
	// recorder's rates: leakage at the end-of-interval active fraction,
	// resizing-tag dynamic energy, L1→L2 miss energy, minus the
	// way-memoization tag-path credit.
	EnergyNJ float64 `json:"energy_nj"`
}

// EnergyRates prices a Point's incremental energy. Zero rates are valid
// (the point simply reports zero energy).
type EnergyRates struct {
	// L1ILeakPerCycleNJ is full-array L1I leakage per cycle; charged at
	// the interval's ending active fraction.
	L1ILeakPerCycleNJ float64
	// BitlineNJ is the per-bitline-swing dynamic energy; charged per L1I
	// access times ResizingTagBits.
	BitlineNJ float64
	// L2AccessNJ is charged per L1I miss that reaches the L2.
	L2AccessNJ float64
	// MemoSavedNJ is credited per memoized fetch.
	MemoSavedNJ float64
	// ResizingTagBits is the count of extra resizing tag bits read per
	// access.
	ResizingTagBits int
}

// Series is a completed recording: the merged interval points plus the
// recorder's own accounting.
type Series struct {
	// IntervalInstructions is the base sampling period the recorder ran
	// at. After merging, individual points may span multiples of it.
	IntervalInstructions uint64 `json:"interval_instructions"`
	// MaxPoints is the cap the recorder enforced.
	MaxPoints int `json:"max_points"`
	// Samples counts raw boundary samples taken; Merges counts pair-merge
	// compactions (each halves the live resolution).
	Samples uint64  `json:"samples"`
	Merges  uint64  `json:"merges"`
	Points  []Point `json:"points"`
}

// Recorder accumulates samples into a bounded point series. Not safe for
// concurrent use; each lane owns its recorder.
type Recorder struct {
	interval  uint64
	maxPoints int
	rates     EnergyRates
	prev      Sample
	points    []Point
	samples   uint64
	merges    uint64

	// OnPoint, when set, observes every newly recorded point (before any
	// merging) — the live-progress hook. It must not retain the Point.
	OnPoint func(Point)
}

// NewRecorder builds a recorder for one run. fallbackInterval is used
// when cfg.IntervalInstructions is zero; if both are zero the recorder
// samples every 100k instructions. Returns nil when cfg.Enabled is false,
// so callers can thread the nil through the hot loop as "off".
func NewRecorder(cfg Config, fallbackInterval uint64, rates EnergyRates) *Recorder {
	if !cfg.Enabled {
		return nil
	}
	interval := cfg.IntervalInstructions
	if interval == 0 {
		interval = fallbackInterval
	}
	if interval == 0 {
		interval = 100_000
	}
	maxPoints := cfg.MaxPoints
	if maxPoints <= 0 {
		maxPoints = DefaultMaxPoints
	}
	if maxPoints < 2 {
		maxPoints = 2 // pair-merging needs room for at least two points
	}
	return &Recorder{
		interval:  interval,
		maxPoints: maxPoints,
		rates:     rates,
		points:    make([]Point, 0, maxPoints),
	}
}

// Interval returns the base sampling period in instructions.
func (r *Recorder) Interval() uint64 { return r.interval }

// Record ingests one cumulative sample. A sample at an already-recorded
// instruction count folds any late counter movement (e.g. writebacks of a
// final-interval downsize during the trailing tick) into the last point
// and refreshes its end state, so an unconditional end-of-run flush keeps
// the series re-aggregating exactly to the final counters.
func (r *Recorder) Record(s Sample) {
	if r.samples > 0 && s.Instructions < r.prev.Instructions {
		return
	}
	if r.samples == 0 && s.Instructions == 0 {
		// A sample at instruction zero only establishes the baseline.
		r.samples++
		r.prev = s
		return
	}
	if r.samples > 0 && s.Instructions == r.prev.Instructions {
		r.samples++
		p := r.pointFrom(s)
		r.prev = s
		if n := len(r.points); n > 0 {
			r.points[n-1] = mergePoints(r.points[n-1], p)
		}
		return
	}
	r.samples++
	p := r.pointFrom(s)
	r.prev = s
	if r.OnPoint != nil {
		r.OnPoint(p)
	}
	if len(r.points) >= r.maxPoints {
		r.compact()
	}
	r.points = append(r.points, p)
}

// pointFrom builds the interval point between the previous sample and s.
func (r *Recorder) pointFrom(s Sample) Point {
	p := Point{
		StartInstructions: r.prev.Instructions,
		EndInstructions:   s.Instructions,
		EndCycles:         s.Cycles,
		Cycles:            s.Cycles - r.prev.Cycles,
		L1IAccesses:       s.L1IAccesses - r.prev.L1IAccesses,
		L1IMisses:         s.L1IMisses - r.prev.L1IMisses,
		L2Accesses:        s.L2Accesses - r.prev.L2Accesses,
		L2Misses:          s.L2Misses - r.prev.L2Misses,
		L2AccessesFromI:   s.L2AccessesFromI - r.prev.L2AccessesFromI,
		MemAccesses:       s.MemAccesses - r.prev.MemAccesses,
		MemoHits:          s.MemoHits - r.prev.MemoHits,
		Wakeups:           s.Wakeups - r.prev.Wakeups,
		ActiveSets:        s.ActiveSets,
		ActiveWays:        s.ActiveWays,
		L1IActiveFraction: s.L1IActiveFraction,
		L2ActiveFraction:  s.L2ActiveFraction,
		GatedLines:        s.GatedLines,
		DrowsyLines:       s.DrowsyLines,
	}
	if p.Cycles > 0 {
		p.IPC = float64(s.Instructions-r.prev.Instructions) / float64(p.Cycles)
	}
	p.EnergyNJ = r.rates.L1ILeakPerCycleNJ*p.L1IActiveFraction*float64(p.Cycles) +
		r.rates.BitlineNJ*float64(r.rates.ResizingTagBits)*float64(p.L1IAccesses) +
		r.rates.L2AccessNJ*float64(p.L2AccessesFromI) -
		r.rates.MemoSavedNJ*float64(p.MemoHits)
	return p
}

// compact pair-merges adjacent points, halving the series length (and the
// time resolution) while preserving every counter total exactly.
func (r *Recorder) compact() {
	half := (len(r.points) + 1) / 2
	for i := 0; i < half; i++ {
		a := r.points[2*i]
		if 2*i+1 >= len(r.points) {
			r.points[i] = a
			continue
		}
		r.points[i] = mergePoints(a, r.points[2*i+1])
	}
	r.points = r.points[:half]
	r.merges++
}

// mergePoints combines two adjacent intervals into one spanning both.
// Counter deltas add; instantaneous state comes from the later point.
func mergePoints(a, b Point) Point {
	m := b
	m.StartInstructions = a.StartInstructions
	m.Cycles = a.Cycles + b.Cycles
	m.L1IAccesses = a.L1IAccesses + b.L1IAccesses
	m.L1IMisses = a.L1IMisses + b.L1IMisses
	m.L2Accesses = a.L2Accesses + b.L2Accesses
	m.L2Misses = a.L2Misses + b.L2Misses
	m.L2AccessesFromI = a.L2AccessesFromI + b.L2AccessesFromI
	m.MemAccesses = a.MemAccesses + b.MemAccesses
	m.MemoHits = a.MemoHits + b.MemoHits
	m.Wakeups = a.Wakeups + b.Wakeups
	m.EnergyNJ = a.EnergyNJ + b.EnergyNJ
	if m.Cycles > 0 {
		m.IPC = float64(m.EndInstructions-m.StartInstructions) / float64(m.Cycles)
	}
	return m
}

// Series returns the completed recording, or nil if nothing was ever
// sampled (e.g. the run fell back to a path without interval hooks).
func (r *Recorder) Series() *Series {
	if r == nil || r.samples == 0 || len(r.points) == 0 {
		return nil
	}
	pts := make([]Point, len(r.points))
	copy(pts, r.points)
	return &Series{
		IntervalInstructions: r.interval,
		MaxPoints:            r.maxPoints,
		Samples:              r.samples,
		Merges:               r.merges,
		Points:               pts,
	}
}

// sinkKey carries a live point sink through a context.
type sinkKey struct{}

// WithSink returns a context carrying fn as the live point sink; sim
// attaches it to every recorder it builds (OnPoint), giving callers —
// e.g. the SSE progress stream — interval heartbeats while a run is in
// flight. fn may be called from simulation worker goroutines and must be
// safe for concurrent use.
func WithSink(ctx context.Context, fn func(Point)) context.Context {
	return context.WithValue(ctx, sinkKey{}, fn)
}

// SinkFrom returns the live point sink carried by ctx, or nil.
func SinkFrom(ctx context.Context) func(Point) {
	fn, _ := ctx.Value(sinkKey{}).(func(Point))
	return fn
}
