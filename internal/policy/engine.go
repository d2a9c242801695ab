package policy

// The per-line policy runtime. An Engine attaches to a cache array through
// two narrow hooks — OnAccess (registered as the cache's access hook) and
// Tick (driven from the hierarchy's instruction-progress callback) — and
// maintains the per-line leakage state machine of the decay and drowsy
// policies, integrating the array's effective leakage fraction over cycles
// exactly as the DRI cache integrates its active fraction.

// Array is the view of a cache array a per-line policy drives. dri.Cache
// (and dri.DataCache via embedding) implements it.
type Array interface {
	// NumFrames returns the number of line frames (sets × assoc).
	NumFrames() int
	// GateFrame powers one frame off: contents are lost (dirty data is
	// flushed through the cache's invalidation hook) and the frame stops
	// leaking until the next fill re-powers it.
	GateFrame(frame int)
}

// Stats counts per-line policy activity.
type Stats struct {
	// Ticks is the number of completed policy intervals.
	Ticks uint64
	// GatedLines counts lines powered off by decay.
	GatedLines uint64
	// Wakeups counts hits that paid the drowsy wakeup penalty.
	Wakeups uint64
	// DrowsyTransitions counts awake→drowsy line transitions.
	DrowsyTransitions uint64
}

// Transitions is the total number of priced line state changes (sleep
// transistor actuations): decay gatings plus drowsy mode drops.
func (s Stats) Transitions() uint64 { return s.GatedLines + s.DrowsyTransitions }

// Engine is the runtime of one cache level's per-line policy. It is not
// safe for concurrent use (it shares the simulated cache's thread).
type Engine struct {
	cfg    Config
	arr    Array
	frames int

	// lastTouch is the tick ordinal of each frame's last access.
	lastTouch []uint64
	// powered tracks decay state (a gated frame stops leaking).
	powered      []bool
	poweredCount int
	// drowsy tracks drowsy state (a drowsy frame leaks at the low-Vdd
	// fraction and charges a wakeup on its next hit).
	drowsy     []bool
	awakeCount int

	tickIndex  uint64
	tickInstrs uint64

	// pendingPenalty accumulates wakeup cycles of the latest access until
	// the hierarchy collects them via TakePenalty.
	pendingPenalty uint64

	// Effective-leakage integration over cycles.
	lastCycleMark uint64
	leakNum       float64 // Σ leakFractionNow × cycles
	leakDen       float64 // Σ cycles

	stats Stats
}

// NewEngine builds the runtime for a per-line policy; it panics if the
// configuration is invalid or not per-line (the caller selects with
// Config.PerLine).
func NewEngine(cfg Config, arr Array) *Engine {
	if err := cfg.Check(); err != nil {
		panic(err)
	}
	if !cfg.PerLine() {
		panic("policy: NewEngine requires a decay or drowsy configuration")
	}
	n := arr.NumFrames()
	e := &Engine{
		cfg:       cfg,
		arr:       arr,
		frames:    n,
		lastTouch: make([]uint64, n),
	}
	switch cfg.Kind {
	case Decay:
		// Every frame starts powered: a conventional array leaks in full
		// until lines decay off.
		e.powered = make([]bool, n)
		for i := range e.powered {
			e.powered[i] = true
		}
		e.poweredCount = n
	case Drowsy:
		// Every frame starts awake; the first tick puts the array to sleep.
		e.drowsy = make([]bool, n)
		e.awakeCount = n
	}
	return e
}

// Reset restores the engine to its just-constructed state (every frame
// powered/awake, counters and integrals zeroed) while keeping its allocated
// per-line arrays, so one instance can serve many runs.
func (e *Engine) Reset() {
	clear(e.lastTouch)
	if e.powered != nil {
		for i := range e.powered {
			e.powered[i] = true
		}
		e.poweredCount = e.frames
	}
	if e.drowsy != nil {
		clear(e.drowsy)
		e.awakeCount = e.frames
	}
	e.tickIndex = 0
	e.tickInstrs = 0
	e.pendingPenalty = 0
	e.lastCycleMark = 0
	e.leakNum = 0
	e.leakDen = 0
	e.stats = Stats{}
}

// CopyFrom makes e a deep copy of src, an engine of the same configuration
// and frame count: per-line state, tick position, pending penalty, the
// leakage integral and the counters. e keeps the array it drives.
func (e *Engine) CopyFrom(src *Engine) {
	if e.cfg != src.cfg || e.frames != src.frames {
		panic("policy: CopyFrom between engines of different configurations")
	}
	arr, lastTouch, powered, drowsy := e.arr, e.lastTouch, e.powered, e.drowsy
	*e = *src
	e.arr, e.lastTouch, e.powered, e.drowsy = arr, lastTouch, powered, drowsy
	copy(e.lastTouch, src.lastTouch)
	copy(e.powered, src.powered)
	copy(e.drowsy, src.drowsy)
}

// OnAccess is the cache's access hook: frame served the access (the hit
// frame or the fill victim). It must be registered via the cache's
// SetAccessHook so every hit and fill flows through it.
func (e *Engine) OnAccess(frame int, hit bool) {
	e.lastTouch[frame] = e.tickIndex
	switch e.cfg.Kind {
	case Decay:
		if !e.powered[frame] {
			// The fill re-powers a gated frame.
			e.powered[frame] = true
			e.poweredCount++
		}
	case Drowsy:
		if e.drowsy[frame] {
			if hit {
				// Reading a drowsy line first restores its supply voltage.
				e.pendingPenalty += uint64(e.cfg.WakeupCycles)
				e.stats.Wakeups++
			}
			e.drowsy[frame] = false
			e.awakeCount++
		}
	}
}

// Tick reports instruction progress and the current cycle count, firing the
// per-interval decide hook each time the accumulated count crosses the
// policy interval (mirroring dri.Cache.Advance).
func (e *Engine) Tick(instrs, nowCycles uint64) {
	e.tickInstrs += instrs
	for e.tickInstrs >= e.cfg.IntervalInstructions {
		e.tickInstrs -= e.cfg.IntervalInstructions
		e.endTick(nowCycles)
	}
}

// endTick is the per-interval decide hook: close the leakage-integration
// span at the pre-transition state, then apply the policy's transitions.
func (e *Engine) endTick(nowCycles uint64) {
	e.noteSpan(nowCycles)
	e.tickIndex++
	e.stats.Ticks++
	switch e.cfg.Kind {
	case Decay:
		// Gate every powered frame idle for more than DecayIntervals full
		// ticks. lastTouch is compared against the new tick ordinal, so a
		// frame touched during tick t survives until tick t+DecayIntervals
		// ends.
		horizon := uint64(e.cfg.DecayIntervals)
		for f := 0; f < e.frames; f++ {
			if e.powered[f] && e.tickIndex-e.lastTouch[f] > horizon {
				e.arr.GateFrame(f)
				e.powered[f] = false
				e.poweredCount--
				e.stats.GatedLines++
			}
		}
	case Drowsy:
		// Drop the whole array to low-Vdd (Flautner et al.'s "simple"
		// policy: no prediction, just a periodic global sleep).
		if e.awakeCount > 0 {
			e.stats.DrowsyTransitions += uint64(e.awakeCount)
			for f := 0; f < e.frames; f++ {
				e.drowsy[f] = true
			}
			e.awakeCount = 0
		}
	}
}

// TakePenalty returns and clears the wakeup cycles owed by the most recent
// access (zero for non-drowsy policies).
func (e *Engine) TakePenalty() uint64 {
	p := e.pendingPenalty
	e.pendingPenalty = 0
	return p
}

// Finish closes the leakage integration at the end of simulation.
func (e *Engine) Finish(nowCycles uint64) { e.noteSpan(nowCycles) }

// leakFractionNow is the array's instantaneous effective leakage as a
// fraction of a fully-powered conventional array.
func (e *Engine) leakFractionNow() float64 {
	total := float64(e.frames)
	switch e.cfg.Kind {
	case Decay:
		return float64(e.poweredCount) / total
	case Drowsy:
		awake := float64(e.awakeCount)
		return (awake + e.cfg.DrowsyLeakFraction*(total-awake)) / total
	}
	return 1
}

// noteSpan closes the integration span at the current state.
func (e *Engine) noteSpan(nowCycles uint64) {
	if nowCycles > e.lastCycleMark {
		d := float64(nowCycles - e.lastCycleMark)
		e.leakNum += d * e.leakFractionNow()
		e.leakDen += d
		e.lastCycleMark = nowCycles
	}
}

// LeakFraction returns the cycle-weighted mean effective leakage fraction —
// the policy counterpart of the DRI cache's AverageActiveFraction, and the
// value the energy model scales the level's conventional leakage by.
func (e *Engine) LeakFraction() float64 {
	if e.leakDen == 0 {
		return e.leakFractionNow()
	}
	return e.leakNum / e.leakDen
}

// Stats returns a copy of the counters.
func (e *Engine) Stats() Stats { return e.stats }

// LeakFractionNow exposes the instantaneous effective leakage fraction to
// observers (the interval flight recorder) without touching the
// integration state.
func (e *Engine) LeakFractionNow() float64 { return e.leakFractionNow() }

// LiveGatedLines is the number of frames currently powered off by decay
// (zero for other policies).
func (e *Engine) LiveGatedLines() int {
	if e.cfg.Kind == Decay {
		return e.frames - e.poweredCount
	}
	return 0
}

// LiveDrowsyLines is the number of frames currently at low Vdd (zero for
// non-drowsy policies).
func (e *Engine) LiveDrowsyLines() int {
	if e.cfg.Kind == Drowsy {
		return e.frames - e.awakeCount
	}
	return 0
}
