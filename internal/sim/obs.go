package sim

// Process-wide simulation telemetry. Every completed run — single or lane —
// flows through noteRun, so the counters here are the one authoritative
// account of simulation volume regardless of which executor produced it:
// total runs, total simulated instructions (with a windowed instrs/s rate),
// and aggregated per-line policy activity. RegisterMetrics projects them,
// plus the lane-executor counters, into an obs.Registry.

import (
	"sync/atomic"

	"dricache/internal/cpu"
	"dricache/internal/obs"
	"dricache/internal/policy"
)

var (
	simRuns    atomic.Uint64
	instrMeter = obs.NewMeter()

	polWakeups atomic.Uint64
	polGated   atomic.Uint64
	polDrowsy  atomic.Uint64
	memoHits   atomic.Uint64

	intervalRuns    atomic.Uint64
	intervalPoints  atomic.Uint64
	intervalSamples atomic.Uint64
	intervalMerges  atomic.Uint64
)

// noteRun accounts one completed simulation; called from assemble so every
// execution path (Run, RunLanes, pooled or not) is counted exactly once.
func noteRun(res *Result) {
	simRuns.Add(1)
	instrMeter.Add(res.CPU.Instructions)
	for _, ps := range [2]policy.Stats{res.L1IPolicyStats, res.L2PolicyStats} {
		polWakeups.Add(ps.Wakeups)
		polGated.Add(ps.GatedLines)
		polDrowsy.Add(ps.DrowsyTransitions)
	}
	if n := res.Mem.L1ITagProbesSkipped + res.Mem.L2TagProbesSkipped; n > 0 {
		memoHits.Add(n)
	}
	if tl := res.Timeline; tl != nil {
		intervalRuns.Add(1)
		intervalPoints.Add(uint64(len(tl.Points)))
		intervalSamples.Add(tl.Samples)
		intervalMerges.Add(tl.Merges)
	}
}

// RegisterMetrics registers the process-wide simulation counters — run and
// instruction volume, throughput, leakage-policy activity, and the lane
// executor — with the registry.
func RegisterMetrics(r *obs.Registry) {
	counter := func(v *atomic.Uint64) func() float64 {
		return func() float64 { return float64(v.Load()) }
	}
	r.NewCounterFunc("sim_runs_total",
		"Simulations completed process-wide.", counter(&simRuns))
	r.NewCounterFunc("sim_instructions_total",
		"Dynamic instructions simulated process-wide.",
		func() float64 { return float64(instrMeter.Total()) })
	r.NewGaugeFunc("sim_instructions_per_second",
		"Simulated instruction throughput, windowed at one second.",
		instrMeter.Rate)
	r.NewCounterFunc("sim_policy_wakeups_total",
		"Drowsy-line wakeups across all runs.", counter(&polWakeups))
	r.NewCounterFunc("sim_policy_gated_lines_total",
		"Lines powered off by decay across all runs.", counter(&polGated))
	r.NewCounterFunc("sim_policy_drowsy_transitions_total",
		"Awake-to-drowsy line transitions across all runs.", counter(&polDrowsy))
	r.NewCounterFunc("sim_policy_memo_hits_total",
		"Way-memoization hits (tag probes skipped) across all runs.",
		counter(&memoHits))
	r.NewCounterFunc("sim_interval_runs_total",
		"Simulations that produced an interval timeline.",
		counter(&intervalRuns))
	r.NewCounterFunc("sim_interval_points_total",
		"Interval points retained across all timelines (after merging).",
		counter(&intervalPoints))
	r.NewCounterFunc("sim_interval_samples_total",
		"Raw interval boundary samples taken by the flight recorders.",
		counter(&intervalSamples))
	r.NewCounterFunc("sim_interval_merges_total",
		"Flight-recorder pair-merge compactions (each halves resolution).",
		counter(&intervalMerges))

	lane := func(f func(LaneStats) uint64) func() float64 {
		return func() float64 { return float64(f(ReadLaneStats())) }
	}
	r.NewCounterFunc("sim_lane_batches_total",
		"Multi-lane executions (one shared stream pass each).",
		lane(func(s LaneStats) uint64 { return s.Batches }))
	r.NewCounterFunc("sim_lane_lanes_total",
		"Simulations carried by multi-lane executions.",
		lane(func(s LaneStats) uint64 { return s.Lanes }))
	r.NewCounterFunc("sim_lane_decode_saved_total",
		"Stream passes (replay decodes or generator passes) avoided versus sequential execution.",
		lane(func(s LaneStats) uint64 { return s.DecodeSaved }))
	r.NewCounterFunc("sim_lane_fallbacks_total",
		"RunLanes simulations whose stream the trace store bypassed (sharing one generator pass).",
		lane(func(s LaneStats) uint64 { return s.Fallbacks }))
	r.NewCounterFunc("sim_lane_stream_wait_seconds_total",
		"Time lane stages spent blocked on an empty ring, waiting for the stream stage's decode and prediction.",
		func() float64 { return cpu.StreamWait().Seconds() })
}
