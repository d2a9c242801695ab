// driload is a closed-loop load generator for driserve: N workers drive
// sustained simulation traffic against a booted server for a fixed
// duration and report the achieved request rate and latency distribution,
// so the serving layer's throughput is published beside the in-process
// BENCH_*.json trajectory instead of being guessed from it.
//
// Two modes exercise the two serving shapes:
//
//	-mode run   POST /v1/run synchronously (the request holds the
//	            connection until the simulation finishes)
//	-mode jobs  POST /v1/jobs, then poll GET /v1/jobs/{id} to a terminal
//	            state
//
// Both paths pass the server's admission control: a 429 is counted as a
// rejection, not an error, and the worker sleeps out its Retry-After.
//
// Latency is measured per completed request (submit to terminal state in
// jobs mode). The summary prints human-readable to stderr and as one JSON
// object to stdout; -bench-out appends the same summary to a test2json
// event stream (the BENCH_*.json format) so the sustained-throughput
// entry rides the same artifact as the Go benchmarks.
//
// Example against a local server:
//
//	driserve -addr 127.0.0.1:8080 &
//	driload -addr http://127.0.0.1:8080 -mode jobs -duration 10s -c 8
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

type options struct {
	addr       string
	mode       string
	duration   time.Duration
	workers    int
	instrs     uint64
	benchmarks []string
	timeout    time.Duration
	benchOut   string
}

// result is one worker request's outcome.
type result struct {
	latency  time.Duration
	rejected bool // admission 429
	err      error
}

// summary is the published shape: sustained req/s plus the latency
// distribution and the error/rejection split behind it.
type summary struct {
	Tool            string   `json:"tool"`
	Target          string   `json:"target"`
	Mode            string   `json:"mode"`
	Workers         int      `json:"workers"`
	Benchmarks      []string `json:"benchmarks"`
	Instructions    uint64   `json:"instructions"`
	DurationSeconds float64  `json:"durationSeconds"`
	Requests        int      `json:"requests"`
	Completed       int      `json:"completed"`
	Rejected        int      `json:"rejected"`
	Errors          int      `json:"errors"`
	ReqPerSec       float64  `json:"reqPerSec"`
	LatencyMsP50    float64  `json:"latencyMsP50"`
	LatencyMsP90    float64  `json:"latencyMsP90"`
	LatencyMsP99    float64  `json:"latencyMsP99"`
	LatencyMsMax    float64  `json:"latencyMsMax"`
}

func main() {
	opts, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "driload:", err)
		os.Exit(2)
	}
	sum, err := run(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "driload:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr,
		"driload: %s %s for %.1fs x%d workers: %d requests (%d ok, %d rejected, %d errors), sustained %.1f req/s, latency p50 %.1fms p90 %.1fms p99 %.1fms\n",
		sum.Mode, sum.Target, sum.DurationSeconds, sum.Workers,
		sum.Requests, sum.Completed, sum.Rejected, sum.Errors,
		sum.ReqPerSec, sum.LatencyMsP50, sum.LatencyMsP90, sum.LatencyMsP99)
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(sum); err != nil {
		fmt.Fprintln(os.Stderr, "driload:", err)
		os.Exit(1)
	}
	if opts.benchOut != "" {
		if err := appendBenchEvent(opts.benchOut, sum); err != nil {
			fmt.Fprintln(os.Stderr, "driload:", err)
			os.Exit(1)
		}
	}
	if sum.Completed == 0 {
		fmt.Fprintln(os.Stderr, "driload: no request completed")
		os.Exit(1)
	}
}

func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("driload", flag.ContinueOnError)
	addr := fs.String("addr", "http://127.0.0.1:8080", "driserve base URL")
	mode := fs.String("mode", "run", `traffic shape: "run" (synchronous /v1/run) or "jobs" (async /v1/jobs + poll)`)
	duration := fs.Duration("duration", 10*time.Second, "measurement window")
	workers := fs.Int("c", 8, "concurrent closed-loop workers")
	instrs := fs.Uint64("instructions", 200_000, "instructions per simulation request")
	benchmarks := fs.String("benchmarks", "applu,fpppp,gcc", "comma-separated benchmark rotation")
	timeout := fs.Duration("timeout", 30*time.Second, "per-HTTP-request timeout")
	benchOut := fs.String("bench-out", "", "append the summary as a test2json output event to this file (the BENCH_*.json format)")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	o := options{
		addr:     strings.TrimRight(*addr, "/"),
		mode:     *mode,
		duration: *duration,
		workers:  *workers,
		instrs:   *instrs,
		timeout:  *timeout,
		benchOut: *benchOut,
	}
	for _, b := range strings.Split(*benchmarks, ",") {
		if b = strings.TrimSpace(b); b != "" {
			o.benchmarks = append(o.benchmarks, b)
		}
	}
	switch {
	case o.mode != "run" && o.mode != "jobs":
		return o, fmt.Errorf("unknown -mode %q", o.mode)
	case o.workers < 1:
		return o, fmt.Errorf("-c must be >= 1")
	case o.duration <= 0:
		return o, fmt.Errorf("-duration must be positive")
	case o.instrs == 0:
		return o, fmt.Errorf("-instructions must be positive")
	case len(o.benchmarks) == 0:
		return o, fmt.Errorf("-benchmarks must name at least one benchmark")
	}
	return o, nil
}

func run(o options) (summary, error) {
	client := &http.Client{Timeout: o.timeout}
	if err := waitHealthy(client, o.addr); err != nil {
		return summary{}, err
	}

	var (
		mu      sync.Mutex
		results []result
	)
	deadline := time.Now().Add(o.duration)
	var wg sync.WaitGroup
	for w := 0; w < o.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; time.Now().Before(deadline); i++ {
				bench := o.benchmarks[(w+i)%len(o.benchmarks)]
				var r result
				if o.mode == "jobs" {
					r = oneJob(client, o, bench, deadline)
				} else {
					r = oneRun(client, o, bench, deadline)
				}
				mu.Lock()
				results = append(results, r)
				mu.Unlock()
			}
		}(w)
	}
	start := time.Now()
	wg.Wait()
	elapsed := time.Since(start)

	sum := summary{
		Tool:            "driload",
		Target:          o.addr,
		Mode:            o.mode,
		Workers:         o.workers,
		Benchmarks:      o.benchmarks,
		Instructions:    o.instrs,
		DurationSeconds: elapsed.Seconds(),
		Requests:        len(results),
	}
	var lat []float64
	for _, r := range results {
		switch {
		case r.err != nil:
			sum.Errors++
		case r.rejected:
			sum.Rejected++
		default:
			sum.Completed++
			lat = append(lat, float64(r.latency)/float64(time.Millisecond))
		}
	}
	sum.ReqPerSec = float64(sum.Completed) / elapsed.Seconds()
	sort.Float64s(lat)
	sum.LatencyMsP50 = percentile(lat, 0.50)
	sum.LatencyMsP90 = percentile(lat, 0.90)
	sum.LatencyMsP99 = percentile(lat, 0.99)
	if n := len(lat); n > 0 {
		sum.LatencyMsMax = lat[n-1]
	}
	return sum, nil
}

func waitHealthy(client *http.Client, addr string) error {
	var lastErr error
	for i := 0; i < 50; i++ {
		resp, err := client.Get(addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			lastErr = fmt.Errorf("healthz: %s", resp.Status)
		} else {
			lastErr = err
		}
		time.Sleep(200 * time.Millisecond)
	}
	return fmt.Errorf("server at %s not healthy: %w", addr, lastErr)
}

// oneRun drives one synchronous simulation through POST /v1/run.
func oneRun(client *http.Client, o options, bench string, deadline time.Time) result {
	body, _ := json.Marshal(map[string]any{
		"benchmark":    bench,
		"instructions": o.instrs,
	})
	start := time.Now()
	resp, err := client.Post(o.addr+"/v1/run", "application/json", bytes.NewReader(body))
	if err != nil {
		return result{err: err}
	}
	if rejected(resp, deadline) {
		return result{rejected: true}
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK {
		return result{err: fmt.Errorf("/v1/run: %s", resp.Status)}
	}
	return result{latency: time.Since(start)}
}

// oneJob submits one async job and polls it to a terminal state; the
// latency spans submit through completion.
func oneJob(client *http.Client, o options, bench string, deadline time.Time) result {
	body, _ := json.Marshal(map[string]any{
		"kind": "run",
		"run":  map[string]any{"benchmark": bench, "instructions": o.instrs},
	})
	start := time.Now()
	resp, err := client.Post(o.addr+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return result{err: err}
	}
	if rejected(resp, deadline) {
		return result{rejected: true}
	}
	if resp.StatusCode != http.StatusAccepted {
		drain(resp)
		return result{err: fmt.Errorf("/v1/jobs: %s", resp.Status)}
	}
	var submitted struct {
		Job struct {
			ID    string `json:"id"`
			State string `json:"state"`
		} `json:"job"`
	}
	err = json.NewDecoder(resp.Body).Decode(&submitted)
	drain(resp)
	if err != nil {
		return result{err: fmt.Errorf("/v1/jobs decode: %w", err)}
	}
	for {
		resp, err := client.Get(o.addr + "/v1/jobs/" + submitted.Job.ID)
		if err != nil {
			return result{err: err}
		}
		var got struct {
			Job struct {
				State string `json:"state"`
				Error string `json:"error"`
			} `json:"job"`
		}
		err = json.NewDecoder(resp.Body).Decode(&got)
		drain(resp)
		if err != nil {
			return result{err: fmt.Errorf("job poll decode: %w", err)}
		}
		switch got.Job.State {
		case "done":
			return result{latency: time.Since(start)}
		case "failed", "cancelled", "expired":
			return result{err: fmt.Errorf("job ended %s: %s", got.Job.State, got.Job.Error)}
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// rejected reports whether resp is an admission 429; if so it drains the
// response and sleeps out the server's Retry-After, but not past deadline,
// before the worker's next attempt.
func rejected(resp *http.Response, deadline time.Time) bool {
	if resp.StatusCode != http.StatusTooManyRequests {
		return false
	}
	wait := retryAfter(resp)
	drain(resp)
	if until := time.Until(deadline); wait > until {
		wait = until
	}
	if wait > 0 {
		time.Sleep(wait)
	}
	return true
}

func retryAfter(resp *http.Response) time.Duration {
	if s, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && s > 0 {
		return time.Duration(s) * time.Second
	}
	return time.Second
}

func drain(resp *http.Response) {
	io.Copy(io.Discard, resp.Body) //nolint:errcheck — draining for connection reuse
	resp.Body.Close()
}

// percentile returns the pth quantile of sorted (nearest-rank).
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// appendBenchEvent appends the summary to path as one test2json output
// event, the line format of the BENCH_*.json artifacts, so benchstat-style
// tooling that extracts Output lines sees the sustained-throughput entry
// alongside the Go benchmark results.
func appendBenchEvent(path string, sum summary) error {
	line := fmt.Sprintf(
		"BenchmarkDriloadSustained/%s-%d \t%8d\t%.1f req/s\t%.1f ms/p50\t%.1f ms/p99\t%d rejected\t%d errors\n",
		sum.Mode, sum.Workers, sum.Completed, sum.ReqPerSec,
		sum.LatencyMsP50, sum.LatencyMsP99, sum.Rejected, sum.Errors)
	ev, err := json.Marshal(map[string]any{
		"Time":    time.Now().UTC().Format(time.RFC3339Nano),
		"Action":  "output",
		"Package": "dricache/cmd/driload",
		"Output":  line,
	})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(ev, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
