package main

import (
	"context"
	"fmt"

	"dricache/internal/obs"
)

// perLayer lists the per-layer metrics the traced run reports, with units.
// Span-derived times are self times (a span's duration minus its
// children's) summed per op; probe-derived costs come from replaying the
// workload's own recordings through the layer's public entry points.
var perLayer = []struct{ name, unit string }{
	{"trace.record_ms", "ms"},
	{"trace.generate_ns_per_instr", "ns/instr"},
	{"trace.store_mb", "MB"},
	{"trace.bypasses_per_op", "count/op"},
	{"isa.decode_ns_per_instr", "ns/instr"},
	{"isa.replay_bytes_per_instr", "B/instr"},
	{"bpred.predict_ns_per_branch", "ns/branch"},
	{"cpu.lane_ns_per_lane_instr", "ns/lane-instr"},
	{"cpu.solo_ns_per_instr", "ns/instr"},
	{"cpu.generic_ns_per_instr", "ns/instr"},
	{"cpu.step_ns_per_lane_instr", "ns/lane-instr"},
	{"mem.fetch_ns_per_block", "ns/block"},
	{"mem.l1i_miss_ratio", "ratio"},
	{"dri.resizes_per_op", "count/op"},
	{"sim.lanes_minstr_per_s", "Minstr/s"},
	{"sim.instrs_per_op", "instr/op"},
	{"sim.lane_fallbacks_per_op", "count/op"},
	{"sim.stream_decode_us", "us/op"},
	{"sim.pipeline_us", "us/op"},
	{"sim.unattributed_pct", "%"},
	{"engine.batch_ms", "ms/op"},
	{"engine.batch_grouping_us", "us/op"},
	{"engine.cache_lookup_us", "us/op"},
	{"engine.queue_wait_us", "us/op"},
	{"engine.hit_ratio", "ratio"},
	{"engine.lanes_per_batch", "lanes/batch"},
	{"engine.decode_saved_per_op", "count/op"},
	{"exp.compare_assemble_us", "us/op"},
	{"persist.writes_per_op", "count/op"},
	{"persist.dropped_writes", "count"},
	{"persist.queue_depth_max", "count"},
	{"persist.disk_mb", "MB"},
	{"jobs.queue_wait_us", "us/op"},
	{"driserve.validate_us", "us/op"},
	{"driserve.handler_self_us", "us/op"},
	{"driserve.transport_us", "us/op"},
	{"driserve.response_bytes", "B/op"},
	{"driserve.cpu_ms_per_op", "ms/op"},
	{"runtime.alloc_kb_per_op", "KB/op"},
	{"runtime.gc_cycles_per_op", "count/op"},
	{"bench.trace_overhead_pct", "%"},
}

// spanMetrics maps obs span names to the per-layer metrics of their self
// times. The fig3 root span is the benchmark's own; "request" is
// driserve's root span.
var spanMetrics = map[string]string{
	"stream_decode":    "sim.stream_decode_us",
	"pipeline":         "sim.pipeline_us",
	"batch_grouping":   "engine.batch_grouping_us",
	"cache_lookup":     "engine.cache_lookup_us",
	"queue_wait":       "engine.queue_wait_us",
	"compare_assemble": "exp.compare_assemble_us",
	"validate":         "driserve.validate_us",
	"request":          "driserve.handler_self_us",
}

// tracer sums span self times over the traced ops.
type tracer struct {
	ops         int
	selfUS      map[string]float64
	transportUS float64
}

func newTracer() *tracer { return &tracer{selfUS: make(map[string]float64)} }

// add folds one op's span tree in. rttUS is the client's round-trip time
// for a served request (the part not covered by the root span is
// transport), or negative for an in-process op.
func (t *tracer) add(tree obs.SpanTree, rttUS float64) {
	t.ops++
	t.walk(tree)
	if rttUS >= 0 {
		t.transportUS += max(rttUS-float64(tree.DurationMicros), 0)
	}
}

func (t *tracer) walk(s obs.SpanTree) {
	self := float64(s.DurationMicros)
	for _, c := range s.Children {
		self -= float64(c.DurationMicros)
		t.walk(c)
	}
	// Parallel children (lane batches) can cover more than their parent's
	// wall time; such a parent has no self time.
	t.selfUS[s.Name] += max(self, 0)
}

// perOp is the per-op self time of a span name.
func (t *tracer) perOp(name string) float64 {
	if t.ops == 0 {
		return 0
	}
	return t.selfUS[name] / float64(t.ops)
}

// runTraced measures the per-layer metrics. After one set-up it runs the
// workload untraced for a third of the window (counter deltas and the
// baseline for the trace overhead), traced for another third (span self
// times), then the layer probes over the workload's own recordings.
func runTraced(ctx context.Context, o options, w workload) (result, error) {
	var t tally
	if err := setupOnce(ctx, w, &t); err != nil {
		return result{}, err
	}
	before, err := w.counters(ctx)
	if err != nil {
		return result{}, err
	}
	plain, err := measure(ctx, w, o.seconds/3, nil, &t, nil)
	if err != nil {
		return result{}, err
	}
	after, err := w.counters(ctx)
	if err != nil {
		return result{}, err
	}
	tr := newTracer()
	traced, err := measure(ctx, w, o.seconds/3, tr, &t, nil)
	if err != nil {
		return result{}, err
	}
	d := func(name string) float64 { return after[name] - before[name] }
	ops := d("ops")

	ms := make(map[string]metric)
	set := func(name string, v float64) {
		ms[name] = metric{Value: v, Unit: unitOf(name)}
	}
	for span, name := range spanMetrics {
		set(name, tr.perOp(span))
	}
	set("driserve.transport_us", 0)
	if tr.ops > 0 {
		set("driserve.transport_us", tr.transportUS/float64(tr.ops))
	}
	set("bench.trace_overhead_pct", 100*(interquartileMean(traced)-interquartileMean(plain))/interquartileMean(plain))

	set("sim.instrs_per_op", d("sim.instrs")/ops)
	set("dri.resizes_per_op", d("dri.resizes")/ops)
	set("sim.lane_fallbacks_per_op", d("sim.fallbacks")/ops)
	set("trace.bypasses_per_op", d("trace.bypasses")/ops)
	set("trace.store_mb", after["trace.bytes"]/1e6)
	set("engine.hit_ratio", ratio(d("engine.hits"), d("engine.requests")))
	set("engine.lanes_per_batch", ratio(d("engine.lanes"), d("engine.batches")))
	set("engine.decode_saved_per_op", d("engine.decodeSaved")/ops)
	set("engine.batch_ms", d("engine.batch_ns")/1e6/ops)
	set("persist.writes_per_op", d("persist.writes")/ops)
	set("persist.dropped_writes", d("persist.dropped"))
	set("persist.disk_mb", d("persist.bytes")/1e6)
	set("jobs.queue_wait_us", d("jobs.queue_wait_s")*1e6/ops)
	set("driserve.response_bytes", d("driserve.resp_bytes")/ops)
	set("driserve.cpu_ms_per_op", d("driserve.cpu_s")*1e3/ops)
	set("runtime.alloc_kb_per_op", d("runtime.alloc")/1024/ops)
	set("runtime.gc_cycles_per_op", d("runtime.gc")/ops)

	final, err := w.counters(ctx)
	if err != nil {
		return result{}, err
	}
	set("persist.queue_depth_max", final["persist.queue_max"])

	if err := runProbes(ctx, w, tr, ms); err != nil {
		return result{}, err
	}
	if err := w.verify(ctx, &t); err != nil {
		return result{}, err
	}
	for _, m := range perLayer {
		if _, ok := ms[m.name]; !ok {
			return result{}, fmt.Errorf("per-layer metric %s was not measured", m.name)
		}
	}
	fmt.Printf("%s traced: %d untraced ops, %d traced ops\n", o.workload, len(plain), len(traced))
	return t.result(ms), nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func unitOf(name string) string {
	for _, m := range perLayer {
		if m.name == name {
			return m.unit
		}
	}
	panic("perfbench: unknown per-layer metric " + name)
}
