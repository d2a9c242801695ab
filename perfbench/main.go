// Command perfbench is the repository's end-to-end and per-layer benchmark.
// It runs one workload per process and prints, as the last line of its
// standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"ops_per_s": {"value": 1.2, "unit": "1/s"}, ...}}
//
// Workloads (see BENCHMARK.json for why each was chosen):
//
//	fig3-warm    the quick Figure 3 search over all 15 benchmarks, replay store primed
//	fig3-bypass  the same search over applu, fpppp and gcc with the replay store disabled
//	serve-miss   driserve /v1/compare round trips that each run one new simulation
//	serve-hit    driserve /v1/run and /v1/compare round trips served from the result cache
//
// With -trace 0 it reports the end-to-end metrics, measured without
// tracing; with -trace 1 the per-layer metrics, from obs span trees and
// from layer probes that replay the workload's own recordings. With
// -report N it runs the workload N times, each in its own process with the
// next seed, and prints every end-to-end metric's median, quartiles and
// spread. Any failed output check makes it exit non-zero.
//
// Build and run it through perfbench/run.sh from the repository root.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"strconv"
	"syscall"
	"time"
)

// processStart approximates the process start time: set-up time is
// measured from here for the first set-up.
var processStart = time.Now()

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output record, printed as the last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	report   int
	// setups is the number of set-ups whose median is setup_s: this
	// process's own plus setups-1 in child processes that exit after
	// setting up, so that the repeats leave no garbage or high-water mark
	// in the measured process.
	setups int
	// setupOnly makes this process a set-up child.
	setupOnly bool
	driserve  string
	workdir   string
	// expectDigest, when set, replaces the pinned fig3 result digest; tests
	// use it to prove a wrong expectation fails the run.
	expectDigest string
}

// endToEnd lists the end-to-end metrics every untraced run reports.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

func main() {
	var (
		o     options
		trace int
	)
	flag.StringVar(&o.workload, "workload", "", "workload: fig3-warm, fig3-bypass, serve-miss or serve-hit")
	flag.Int64Var(&o.seed, "seed", 1, "input seed: benchmark rotation order and serve-miss parameters")
	flag.Float64Var(&o.seconds, "seconds", 15, "length of the measured window in seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting the per-layer metrics")
	flag.IntVar(&o.report, "report", 0, "repeat the workload this many times (seeds seed, seed+1, ...) and print each end-to-end metric's spread")
	flag.BoolVar(&o.setupOnly, "setup-only", false, "set up once, report setup_s and exit (used by the run itself)")
	flag.StringVar(&o.driserve, "driserve", "", "driserve binary for the serve-* workloads")
	flag.StringVar(&o.workdir, "workdir", ".bench_build/runs", "directory for per-run scratch state (server logs, -persistdir)")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	o.trace = trace == 1
	o.setups = 3

	if o.report > 0 {
		if err := runReport(o); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}

	// Bound the whole run, and turn SIGINT/SIGTERM into a cancellation so
	// the deferred clean-up (the driserve process, scratch directories)
	// runs on every exit path.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	ctx, cancel := context.WithTimeout(ctx, 170*time.Second)
	res, err := run(ctx, o)
	cancel()
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	printResult(os.Stdout, res)
	if !res.Correct {
		os.Exit(1)
	}
}

// run executes one workload run and returns its record.
func run(ctx context.Context, o options) (result, error) {
	if o.seconds <= 0 {
		return result{}, errors.New("-seconds must be positive")
	}
	w, err := newWorkload(o)
	if err != nil {
		return result{}, err
	}
	defer w.close()
	switch {
	case o.setupOnly:
		var t tally
		err := setupOnce(ctx, w, &t)
		return t.result(map[string]metric{"setup_s": {time.Since(processStart).Seconds(), "s"}}), err
	case o.trace:
		return runTraced(ctx, o, w)
	}
	return runUntraced(ctx, o, w)
}

// runUntraced measures the end-to-end metrics: set-up time (the median of
// o.setups set-ups, each from process start), then ops in a closed loop for
// o.seconds, then the workload's deferred output checks.
func runUntraced(ctx context.Context, o options, w workload) (result, error) {
	var t tally
	// This process's set-up time runs from its start, less the time its
	// set-up children took.
	started := time.Since(processStart)
	setupTimes, err := setupChildren(ctx, o, &t)
	if err != nil {
		return result{}, err
	}
	ownStart := time.Now()
	if err := setupOnce(ctx, w, &t); err != nil {
		return result{}, err
	}
	setupTimes = append(setupTimes, (started + time.Since(ownStart)).Seconds())
	// Peak RSS is read after a fixed number of ops, not at the end of the
	// window: the work's footprint grows with the ops done (cached results,
	// pooled hierarchies), and a fixed count keeps host speed out of it.
	rss := 0.0
	lat, err := measure(ctx, w, o.seconds, nil, &t, func(i int) {
		if i+1 == w.rssOps() {
			rss = w.peakRSSMB()
		}
	})
	if err != nil {
		return result{}, err
	}
	if rss == 0 {
		rss = w.peakRSSMB()
	}
	if err := w.verify(ctx, &t); err != nil {
		return result{}, err
	}
	ms := map[string]metric{
		"setup_s":        {median(setupTimes), "s"},
		"ops_per_s":      {1000 / interquartileMean(lat), "1/s"},
		"latency_p50_ms": {median(lat), "ms"},
		"latency_p90_ms": {percentile(lat, 90), "ms"},
		"peak_rss_mb":    {rss, "MB"},
	}
	fmt.Printf("%s: %d timed ops, set-ups of %.3v s\n", o.workload, len(lat), setupTimes)
	return t.result(ms), nil
}

// setupChildren runs o.setups-1 set-up children one after another and
// returns their set-up times; their output checks count in t.
func setupChildren(ctx context.Context, o options, t *tally) ([]float64, error) {
	if o.setups <= 1 {
		return nil, nil
	}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var times []float64
	for k := 1; k < o.setups; k++ {
		cmd := exec.CommandContext(ctx, self, "-setup-only", "-workload", o.workload,
			"-seed", strconv.FormatInt(o.seed, 10), "-driserve", o.driserve, "-workdir", o.workdir)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		res, perr := lastResult(out)
		if perr != nil {
			return nil, fmt.Errorf("set-up child: %w", errors.Join(err, perr))
		}
		t.attempted += res.Attempted
		t.failed += res.Failed
		times = append(times, res.Metrics["setup_s"].Value)
	}
	return times, nil
}

// setupOnce runs one from-scratch set-up plus the workload's warm-up ops,
// whose output checks count like any other op's.
func setupOnce(ctx context.Context, w workload, t *tally) error {
	if err := w.setup(ctx); err != nil {
		return err
	}
	for i := 0; i < w.warmups(); i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		t.check(w.op(ctx, -1-i, nil))
	}
	return nil
}

// measure runs ops in a closed loop until seconds have elapsed (at least
// one op) and returns each op's latency in milliseconds. after, when
// non-nil, runs after each op outside its timing.
func measure(ctx context.Context, w workload, seconds float64, tr *tracer, t *tally, after func(i int)) ([]float64, error) {
	var lat []float64
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("measurement interrupted: %w", err)
		}
		start := time.Now()
		err := w.op(ctx, i, tr)
		lat = append(lat, float64(time.Since(start).Nanoseconds())/1e6)
		t.check(err)
		if after != nil {
			after(i)
		}
	}
	return lat, nil
}

// tally counts attempted and failed output checks.
type tally struct {
	attempted, failed int
}

// check counts one attempted check and reports a failure on stderr.
func (t *tally) check(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		if t.failed <= 10 {
			fmt.Fprintln(os.Stderr, "perfbench: check failed:", err)
		}
	}
}

func (t *tally) result(ms map[string]metric) result {
	return result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: ms}
}

// printResult prints every metric by name with its unit, then the JSON
// record as the last line.
func printResult(f *os.File, res result) {
	for _, name := range sortedKeys(res.Metrics) {
		m := res.Metrics[name]
		fmt.Fprintf(f, "  %-34s %14.6g %s\n", name, m.Value, m.Unit)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encode result:", err)
		os.Exit(2)
	}
	fmt.Fprintln(f, string(b))
}
