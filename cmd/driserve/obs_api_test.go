package main

import (
	"bufio"
	"io"
	"log/slog"
	"net/http"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

// TestMain silences the access log: newServer logs every request through
// slog.Default, which would otherwise spray the test output.
func TestMain(m *testing.M) {
	slog.SetDefault(slog.New(slog.NewTextHandler(io.Discard, nil)))
	os.Exit(m.Run())
}

var (
	helpLine   = regexp.MustCompile(`^# HELP [a-zA-Z_:][a-zA-Z0-9_:]* .*$`)
	typeLine   = regexp.MustCompile(`^# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|histogram)$`)
	sampleLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? (NaN|[+-]?Inf|[-+0-9.eE]+)$`)
)

// TestMetricsExposition scrapes /metrics after real traffic and validates
// every line against the exposition grammar, plus presence of the core
// families from each instrumented layer.
func TestMetricsExposition(t *testing.T) {
	ts := testServer(t)
	postJSON(t, ts.URL+"/v1/run",
		`{"benchmark":"applu","instructions":200000}`, http.StatusOK)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q, want text/plain exposition", ct)
	}

	seen := map[string]bool{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	n := 0
	for sc.Scan() {
		line := sc.Text()
		n++
		switch {
		case strings.HasPrefix(line, "# HELP "):
			if !helpLine.MatchString(line) {
				t.Errorf("malformed HELP line: %q", line)
			}
		case strings.HasPrefix(line, "# TYPE "):
			if !typeLine.MatchString(line) {
				t.Errorf("malformed TYPE line: %q", line)
			}
		default:
			if !sampleLine.MatchString(line) {
				t.Errorf("malformed sample line: %q", line)
			}
			name := line
			if i := strings.IndexAny(name, "{ "); i > 0 {
				name = name[:i]
			}
			seen[name] = true
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("empty exposition")
	}
	for _, want := range []string{
		"engine_cache_hits_total", "engine_cache_misses_total",
		"engine_pool_queue_depth", "engine_pool_utilization",
		"engine_lane_batches_total", "sim_lane_batches_total",
		"sim_runs_total", "sim_instructions_total", "sim_instructions_per_second",
		"sim_policy_wakeups_total",
		"trace_store_bytes", "trace_store_hits_total",
		"http_requests_total", "http_request_duration_seconds_bucket",
		"http_request_duration_seconds_sum", "http_sweep_points_count",
		"go_goroutines",
	} {
		if !seen[want] {
			t.Errorf("core metric %s absent from /metrics", want)
		}
	}
}

// TestMetricsJSONEndpoint pins /v1/metrics as the JSON view of the same
// registry snapshot.
func TestMetricsJSONEndpoint(t *testing.T) {
	ts := testServer(t)
	out := getJSON(t, ts.URL+"/v1/metrics", http.StatusOK)
	fams, ok := out["families"].([]any)
	if !ok || len(fams) == 0 {
		t.Fatalf("families missing or empty: %v", out)
	}
	names := map[string]bool{}
	for _, f := range fams {
		names[f.(map[string]any)["name"].(string)] = true
	}
	if !names["engine_cache_hits_total"] || !names["trace_store_bytes"] {
		t.Errorf("core families missing from /v1/metrics: %v", names)
	}
}

// spanNames flattens a span tree into its set of stage names.
func spanNames(tree map[string]any, into map[string]bool) {
	into[tree["name"].(string)] = true
	if kids, ok := tree["children"].([]any); ok {
		for _, k := range kids {
			spanNames(k.(map[string]any), into)
		}
	}
}

// TestRunTraceSpanTree pins the ?trace=1 contract on /v1/run: a span tree
// rooted at "request" whose stages cover validate → job queue wait → cache
// lookup → batch grouping → lane run (queue wait, stream decode, pipeline,
// assemble), with every child inside the root's wall time.
func TestRunTraceSpanTree(t *testing.T) {
	ts := testServer(t)
	start := time.Now()
	out := postJSON(t, ts.URL+"/v1/run?trace=1",
		`{"benchmark":"applu","instructions":200000}`, http.StatusOK)
	wall := time.Since(start)

	tree, ok := out["trace"].(map[string]any)
	if !ok {
		t.Fatalf("response missing trace key: %v", out)
	}
	if tree["name"] != "request" {
		t.Errorf("root span = %v, want request", tree["name"])
	}
	names := map[string]bool{}
	spanNames(tree, names)
	for _, want := range []string{"validate", "job_queue_wait", "cache_lookup", "queue_wait",
		"batch_grouping", "lane_run", "stream_decode", "pipeline", "assemble"} {
		if !names[want] {
			t.Errorf("stage %q absent from span tree (got %v)", want, names)
		}
	}

	rootDur := int64(tree["durationMicros"].(float64))
	if rootDur <= 0 || rootDur > wall.Microseconds() {
		t.Errorf("root duration %dµs outside request wall time %dµs",
			rootDur, wall.Microseconds())
	}
	var walk func(map[string]any)
	walk = func(n map[string]any) {
		off := int64(n["offsetMicros"].(float64))
		dur := int64(n["durationMicros"].(float64))
		if off < 0 || dur < 0 || off+dur > rootDur+1000 {
			t.Errorf("span %v [%d, +%d]µs outside root %dµs", n["name"], off, dur, rootDur)
		}
		if kids, ok := n["children"].([]any); ok {
			for _, k := range kids {
				walk(k.(map[string]any))
			}
		}
	}
	walk(tree)

	// Without ?trace=1 the key must be absent.
	out = postJSON(t, ts.URL+"/v1/run",
		`{"benchmark":"applu","instructions":200000}`, http.StatusOK)
	if _, ok := out["trace"]; ok {
		t.Error("trace key present without ?trace=1")
	}
}

// TestSweepTraceSpanTree pins the batch path's stages on /v1/sweep?trace=1.
func TestSweepTraceSpanTree(t *testing.T) {
	ts := testServer(t)
	out := postJSON(t, ts.URL+"/v1/sweep?trace=1",
		`{"benchmarks":["applu"],"missBounds":[100],"sizeBounds":[1024,65536],"instructions":200000,"senseInterval":50000}`,
		http.StatusOK)
	tree, ok := out["trace"].(map[string]any)
	if !ok {
		t.Fatalf("sweep response missing trace key: %v", out)
	}
	names := map[string]bool{}
	spanNames(tree, names)
	for _, want := range []string{"validate", "cache_lookup", "batch_grouping",
		"lane_run", "compare_assemble"} {
		if !names[want] {
			t.Errorf("sweep stage %q absent from span tree (got %v)", want, names)
		}
	}
}

// TestRequestIDPropagation pins the middleware contract: an inbound
// X-Request-ID is echoed back; absent one, a fresh ID is generated.
func TestRequestIDPropagation(t *testing.T) {
	ts := testServer(t)

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
	req.Header.Set("X-Request-ID", "my-trace-abc123")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "my-trace-abc123" {
		t.Errorf("inbound request ID not honored: got %q", got)
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); len(got) != 16 {
		t.Errorf("generated request ID = %q, want 16 hex chars", got)
	}
}

// TestHealthzStatsAgree pins satellite 2: /healthz and /v1/stats derive
// from the same registry, so with no traffic in between their engine and
// trace blocks are identical.
func TestHealthzStatsAgree(t *testing.T) {
	ts := testServer(t)
	postJSON(t, ts.URL+"/v1/run",
		`{"benchmark":"applu","instructions":200000}`, http.StatusOK)
	h := getJSON(t, ts.URL+"/healthz", http.StatusOK)
	s := getJSON(t, ts.URL+"/v1/stats", http.StatusOK)
	for _, section := range []string{"engine", "lanes", "trace"} {
		hb, sb := h[section].(map[string]any), s[section].(map[string]any)
		for k, hv := range hb {
			if sv := sb[k]; sv != hv {
				t.Errorf("%s.%s diverges: healthz=%v stats=%v", section, k, hv, sv)
			}
		}
	}
}
