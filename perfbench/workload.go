package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"os"
	"slices"
	"strconv"
	"strings"
)

// workload is one benchmark scenario. A process builds it, sets it up once
// and then times ops in a closed loop.
type workload interface {
	// setup prepares the workload from scratch.
	setup(ctx context.Context) error
	// warmups is the number of untimed ops that end the set-up.
	warmups() int
	// op runs one operation and returns a non-nil error when an output
	// check fails. With a non-nil tracer the op records obs span trees.
	op(ctx context.Context, i int, tr *tracer) error
	// verify runs the output checks deferred past the measured window.
	verify(ctx context.Context, t *tally) error
	// peakRSSMB is the peak resident set of the process doing the work.
	peakRSSMB() float64
	// rssOps is the number of timed ops after which peak_rss_mb is read:
	// about a third of what a 15 s window holds on a 2-vCPU 2.x GHz Xeon,
	// so a host at half that speed still reaches it.
	rssOps() int
	// counters snapshots cumulative counters for the traced run.
	counters(ctx context.Context) (map[string]float64, error)
	// probeSpec describes what the traced run's layer probes replay.
	probeSpec() probeSpec
	// close releases everything the workload started.
	close()
}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"fig3-warm", "fig3-bypass", "serve-miss", "serve-hit"}

func newWorkload(o options) (workload, error) {
	switch o.workload {
	case "fig3-warm":
		return newFig3(o, false)
	case "fig3-bypass":
		return newFig3(o, true)
	case "serve-miss":
		return newServe(o, false)
	case "serve-hit":
		return newServe(o, true)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames, ", "))
}

// rotate returns names in a seeded order. The seed changes the order only:
// every name appears exactly once, so the work does not depend on it.
func rotate(names []string, seed int64) []string {
	out := slices.Clone(names)
	rng := rand.New(rand.NewPCG(uint64(seed), 0x9e3779b97f4a7c15))
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// vmHWM reads the peak resident set size (VmHWM) of a process from
// /proc/<pid>/status in megabytes; pid "self" is this process. It returns
// 0 when the file cannot be read.
func vmHWM(pid string) float64 {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
