package main

// driload's client loop tested against a stub driserve: the run and jobs
// modes must complete requests, classify 429s as rejections (not errors),
// and the -bench-out file must stay a parseable test2json event stream.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// stubServe mimics the driserve endpoints driload touches. Every third
// job submission is rejected with a 429 to exercise the rejection path.
func stubServe(t *testing.T) *httptest.Server {
	t.Helper()
	var (
		mu      sync.Mutex
		jobs    = map[string]bool{} // id -> polled once already
		submits atomic.Int64
		nextID  atomic.Int64
	)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"status":"ok"}`)
	})
	mux.HandleFunc("POST /v1/run", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"benchmark":"applu"}`)
	})
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		if submits.Add(1)%3 == 0 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprint(w, `{"error":"queue full","reason":"queue_full","retryAfterSeconds":1}`)
			return
		}
		id := fmt.Sprintf("job-%d", nextID.Add(1))
		mu.Lock()
		jobs[id] = false
		mu.Unlock()
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprintf(w, `{"job":{"id":%q,"state":"queued"}}`, id)
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		mu.Lock()
		polled := jobs[id]
		jobs[id] = true
		mu.Unlock()
		state := "running"
		if polled {
			state = "done"
		}
		fmt.Fprintf(w, `{"job":{"id":%q,"state":%q}}`, id, state)
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

func TestRunModeSustains(t *testing.T) {
	ts := stubServe(t)
	sum, err := run(options{
		addr:       ts.URL,
		mode:       "run",
		duration:   200 * time.Millisecond,
		workers:    4,
		instrs:     1000,
		benchmarks: []string{"applu", "gcc"},
		timeout:    5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Completed == 0 || sum.Errors != 0 || sum.Rejected != 0 {
		t.Fatalf("run mode: %+v", sum)
	}
	if sum.ReqPerSec <= 0 || sum.LatencyMsP50 <= 0 || sum.LatencyMsP99 < sum.LatencyMsP50 {
		t.Fatalf("implausible rate/latency summary: %+v", sum)
	}
}

func TestJobsModeCountsRejections(t *testing.T) {
	ts := stubServe(t)
	sum, err := run(options{
		addr:       ts.URL,
		mode:       "jobs",
		duration:   300 * time.Millisecond,
		workers:    3,
		instrs:     1000,
		benchmarks: []string{"applu"},
		timeout:    5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Completed == 0 {
		t.Fatalf("no job completed: %+v", sum)
	}
	if sum.Rejected == 0 {
		t.Fatalf("stub rejects every third submit but none counted: %+v", sum)
	}
	if sum.Errors != 0 {
		t.Fatalf("429s must count as rejections, not errors: %+v", sum)
	}
}

// TestRunModeCountsRejections: now that /v1/run passes admission control,
// a 429 there is a rejection, not an error, and the worker sleeps out its
// Retry-After instead of hammering the server.
func TestRunModeCountsRejections(t *testing.T) {
	var calls atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"status":"ok"}`)
	})
	mux.HandleFunc("POST /v1/run", func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1)%2 == 0 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprint(w, `{"error":"client at its limit","reason":"client_limit","retryAfterSeconds":1}`)
			return
		}
		fmt.Fprint(w, `{"benchmark":"applu"}`)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()
	const window = 300 * time.Millisecond
	start := time.Now()
	sum, err := run(options{
		addr:       ts.URL,
		mode:       "run",
		duration:   window,
		workers:    2,
		instrs:     1000,
		benchmarks: []string{"applu"},
		timeout:    5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Completed == 0 || sum.Rejected == 0 || sum.Errors != 0 {
		t.Fatalf("run mode against a 429ing server: %+v, want completions and rejections, no errors", sum)
	}
	// Each worker sleeps from its first rejection to the end of the window,
	// so only a handful of requests can be sent.
	if sum.Requests > 10 {
		t.Fatalf("%d requests in %v: the workers did not honour Retry-After", sum.Requests, window)
	}
	if elapsed := time.Since(start); elapsed > window+time.Second {
		t.Fatalf("run took %v: a Retry-After sleep ran past the window", elapsed)
	}
}

func TestBenchOutAppendsTest2JSONEvent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_test.json")
	if err := os.WriteFile(path, []byte(`{"Action":"start","Package":"dricache"}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	sum := summary{Tool: "driload", Mode: "jobs", Workers: 8, Completed: 42, ReqPerSec: 123.4}
	if err := appendBenchEvent(path, sum); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want the original event plus one appended", len(lines))
	}
	var ev struct {
		Action, Package, Output string
	}
	if err := json.Unmarshal([]byte(lines[1]), &ev); err != nil {
		t.Fatalf("appended line is not a JSON event: %v", err)
	}
	if ev.Action != "output" || ev.Package != "dricache/cmd/driload" {
		t.Fatalf("event = %+v", ev)
	}
	if !strings.Contains(ev.Output, "BenchmarkDriloadSustained/jobs-8") ||
		!strings.Contains(ev.Output, "123.4 req/s") {
		t.Fatalf("output line = %q", ev.Output)
	}
}

func TestParseFlagsRejectsBadInput(t *testing.T) {
	for _, args := range [][]string{
		{"-mode", "stream"},
		{"-c", "0"},
		{"-duration", "-1s"},
		{"-instructions", "0"},
		{"-benchmarks", " , "},
	} {
		if _, err := parseFlags(args); err == nil {
			t.Errorf("parseFlags(%v) accepted bad input", args)
		}
	}
}
