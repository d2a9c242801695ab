package main

// httptest coverage of the synchronous endpoints as jobs: /v1/run,
// /v1/compare and /v1/sweep pass the job manager's admission control (a
// structured 429 past the per-client limit), its deadlines (?timeout=)
// and its cancellation (client disconnect), are named by the request ID
// (a live duplicate is a 409), and never enter the retention window that
// async results wait in.

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"dricache/internal/jobs"
)

// wholeSuiteSweep is a 15-point sweep at 4M instructions: long enough that
// a request is still running when the test acts on it.
const wholeSuiteSweep = `{"instructions":4000000,"missBounds":[64],"sizeBounds":[1024]}`

// postSync posts body to path under ctx with the given request ID and API
// key (either may be empty) and returns the status, headers and body.
func postSync(ctx context.Context, url, reqID, apiKey, body string) (int, http.Header, map[string]any, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if reqID != "" {
		req.Header.Set("X-Request-ID", reqID)
	}
	if apiKey != "" {
		req.Header.Set("X-API-Key", apiKey)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return resp.StatusCode, resp.Header, nil, err
	}
	return resp.StatusCode, resp.Header, out, nil
}

// jobsStats reads the jobs block of /v1/stats.
func jobsStats(t *testing.T, ts *httptest.Server) map[string]any {
	t.Helper()
	return getJSON(t, ts.URL+"/v1/stats", http.StatusOK)["jobs"].(map[string]any)
}

// waitJobs polls the jobs block until cond holds.
func waitJobs(t *testing.T, ts *httptest.Server, what string, cond func(map[string]any) bool) map[string]any {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		js := jobsStats(t, ts)
		if cond(js) {
			return js
		}
		if time.Now().After(deadline) {
			t.Fatalf("jobs never reached %s: %v", what, js)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestSyncClientLimit429: with four sync sweeps from one client in flight
// (one running, three queued), the fifth gets the structured 429 with a
// Retry-After, as a fifth job submission would.
func TestSyncClientLimit429(t *testing.T) {
	ts := jobTestServer(t, jobs.Config{Workers: 1, MaxPerClient: 4})
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// These end when the test cancels them; their outcome is not
			// the subject.
			postSync(ctx, ts.URL+"/v1/sweep", "", "tenant-a", wholeSuiteSweep) //nolint:errcheck
		}()
	}
	waitJobs(t, ts, "four live sync jobs", func(js map[string]any) bool {
		return js["running"].(float64)+js["queueDepth"].(float64) == 4
	})

	status, hdr, body, err := postSync(context.Background(), ts.URL+"/v1/run", "", "tenant-a",
		`{"benchmark":"applu","instructions":100000}`)
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusTooManyRequests {
		t.Fatalf("fifth sync request = %d, want 429 (%v)", status, body)
	}
	if body["reason"] != "client_limit" {
		t.Fatalf("rejection reason = %v, want client_limit", body["reason"])
	}
	if hdr.Get("Retry-After") == "" || body["retryAfterSeconds"].(float64) < 1 {
		t.Fatalf("429 without a Retry-After: header %q, body %v", hdr.Get("Retry-After"), body)
	}

	cancel()
	wg.Wait()
	js := waitJobs(t, ts, "quiescence", func(js map[string]any) bool {
		return js["running"].(float64) == 0 && js["queueDepth"].(float64) == 0
	})
	if js["cancelled"].(float64) != 4 || js["rejected"].(float64) != 1 {
		t.Fatalf("jobs after disconnects = %v, want 4 cancelled and 1 rejected", js)
	}
}

// TestSyncTimeoutExpires: ?timeout= bounds a sync request like a job's
// deadline; the expired run is a 503, and a malformed timeout is a 400.
func TestSyncTimeoutExpires(t *testing.T) {
	ts := testServer(t)
	status, _, body, err := postSync(context.Background(), ts.URL+"/v1/sweep?timeout=75ms", "", "", wholeSuiteSweep)
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusServiceUnavailable {
		t.Fatalf("sweep past its timeout = %d, want 503 (%v)", status, body)
	}
	if msg, _ := body["error"].(string); !strings.Contains(msg, "expired") {
		t.Fatalf("503 error %q does not say expired", msg)
	}
	if js := jobsStats(t, ts); js["expired"].(float64) != 1 {
		t.Fatalf("jobs.expired = %v, want 1", js["expired"])
	}
	status, _, body, err = postSync(context.Background(), ts.URL+"/v1/run?timeout=never", "", "",
		`{"benchmark":"applu","instructions":100000}`)
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusBadRequest {
		t.Fatalf("malformed ?timeout= = %d, want 400 (%v)", status, body)
	}
}

// TestSyncDisconnectCancels drops the client of a running sync sweep: the
// job, addressable under its request ID while live, ends cancelled, a
// duplicate of its live ID is a 409, its progress stream ends "aborted",
// and the engine keeps no partial result — rerunning the sweep matches a
// fresh server's bit for bit.
func TestSyncDisconnectCancels(t *testing.T) {
	const (
		id    = "sync-disconnect"
		sweep = `{"benchmarks":["applu","li"],"instructions":1000000,"missBounds":[64,256],"sizeBounds":[1024]}`
	)
	ts := testServer(t)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, _, err := postSync(ctx, ts.URL+"/v1/sweep", id, "", sweep)
		done <- err
	}()
	// The job is addressable under the request ID once admitted.
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var out struct{ Job struct{ State string } }
		json.NewDecoder(resp.Body).Decode(&out) //nolint:errcheck — a 404 body has no job
		resp.Body.Close()
		if out.Job.State == "running" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("sync sweep never ran under job id %q (last status %d)", id, resp.StatusCode)
		}
		time.Sleep(time.Millisecond)
	}

	status, _, body, err := postSync(context.Background(), ts.URL+"/v1/run", id, "",
		`{"benchmark":"applu","instructions":100000}`)
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusConflict {
		t.Fatalf("request reusing a live request ID = %d, want 409 (%v)", status, body)
	}

	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("disconnected client saw err %v, want context.Canceled", err)
	}
	js := waitJobs(t, ts, "the cancelled sweep settling", func(js map[string]any) bool {
		return js["running"].(float64) == 0
	})
	if js["cancelled"].(float64) != 1 || js["completed"].(float64) != 0 {
		t.Fatalf("jobs after disconnect = %v, want 1 cancelled, 0 completed", js)
	}
	getJSON(t, ts.URL+"/v1/jobs/"+id, http.StatusNotFound)
	msgs := readSSE(t, ts.URL+"/v1/runs/"+id+"/progress")
	if last := msgs[len(msgs)-1]; last.event != "done" || last.data["outcome"] != "aborted" {
		t.Fatalf("progress stream ended with %q %v, want done/aborted", last.event, last.data)
	}
	if inflight := getJSON(t, ts.URL+"/v1/stats", http.StatusOK)["engine"].(map[string]any)["inFlight"]; inflight != 0.0 {
		t.Fatalf("engine inFlight = %v after the cancel settled, want 0", inflight)
	}

	rerun := postJSON(t, ts.URL+"/v1/sweep", sweep, http.StatusOK)
	fresh := postJSON(t, testServer(t).URL+"/v1/sweep", sweep, http.StatusOK)
	if !reflect.DeepEqual(rerun["rows"], fresh["rows"]) {
		t.Fatal("sweep rerun after a cancel differs from a fresh server's: a partial result was cached")
	}
}

// TestSyncLeavesAsyncResults: 300 sync requests after an async job
// finished leave its result retrievable — sync jobs never enter the
// retention window.
func TestSyncLeavesAsyncResults(t *testing.T) {
	ts := testServer(t)
	const run = `{"benchmark":"applu","instructions":100000}`
	status, body, _ := submitJob(t, ts, `{"run":`+run+`}`, "")
	if status != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202 (%v)", status, body)
	}
	id := jobID(t, body)
	waitJobState(t, ts, id, "done")
	for i := 0; i < 300; i++ {
		postJSON(t, ts.URL+"/v1/run", run, http.StatusOK)
	}
	job := getJSON(t, ts.URL+"/v1/jobs/"+id, http.StatusOK)["job"].(map[string]any)
	if job["state"] != "done" || job["result"] == nil {
		t.Fatalf("async job after 300 sync requests = %v, want done with its result", job)
	}
	if js := jobsStats(t, ts); js["retained"].(float64) != 1 || js["completed"].(float64) != 301 {
		t.Fatalf("jobs = %v, want 1 retained of 301 completed", js)
	}
}

// TestSyncResponseShape pins the sync response bodies' top-level keys,
// which clients and the benchmark decode: the job's result plus the
// engine counters.
func TestSyncResponseShape(t *testing.T) {
	ts := testServer(t)
	const point = `{"benchmark":"applu","instructions":100000,"cache":{"dri":{"missBound":256,"sizeBoundBytes":1024}}}`
	for _, tc := range []struct {
		path, body string
		want       []string
	}{
		{"/v1/run", point, []string{"cached", "engine", "result"}},
		{"/v1/run?timeline=1", point, []string{"cached", "engine", "result", "timeline"}},
		{"/v1/compare", point, []string{"cached", "comparison", "engine"}},
		{"/v1/compare?trace=1", point, []string{"cached", "comparison", "engine", "trace"}},
		{"/v1/sweep", `{"benchmarks":["applu"],"instructions":100000,"missBounds":[64],"sizeBounds":[1024]}`,
			[]string{"engine", "points", "rows"}},
	} {
		out := postJSON(t, ts.URL+tc.path, tc.body, http.StatusOK)
		var keys []string
		for k := range out {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		if !slices.Equal(keys, tc.want) {
			t.Errorf("%s keys = %v, want %v", tc.path, keys, tc.want)
		}
	}
}

// TestTimeoutSecondsValidated: the job envelope's timeoutSeconds follows
// ?timeout='s rules — negative and out-of-range values are a 400, not a
// silent "no deadline" (1e10 s overflows time.Duration to a negative).
func TestTimeoutSecondsValidated(t *testing.T) {
	ts := testServer(t)
	for _, tc := range []struct {
		timeout string
		want    int
	}{
		{"-5", http.StatusBadRequest},
		{"-0.001", http.StatusBadRequest},
		{"1e10", http.StatusBadRequest},
		{"1e300", http.StatusBadRequest},
		{"0", http.StatusAccepted},
		{"30", http.StatusAccepted},
		{"9e9", http.StatusAccepted},
	} {
		status, body, _ := submitJob(t, ts,
			`{"timeoutSeconds":`+tc.timeout+`,"run":{"benchmark":"applu","instructions":100000}}`, "")
		if status != tc.want {
			t.Errorf("timeoutSeconds %s: status %d, want %d (%v)", tc.timeout, status, tc.want, body)
		}
	}

	for _, tc := range []struct {
		secs float64
		ok   bool
	}{
		{0, true}, {2.5, true}, {9e9, true},
		{-5, false}, {1e10, false}, {math.NaN(), false}, {math.Inf(1), false}, {math.Inf(-1), false},
	} {
		d, err := secondsDuration(tc.secs)
		if (err == nil) != tc.ok || d < 0 {
			t.Errorf("secondsDuration(%v) = %v, %v; want ok=%v and a non-negative duration", tc.secs, d, err, tc.ok)
		}
	}
	for _, v := range []string{"NaN", "-5", "1e10", "Inf", "-1s"} {
		if d, err := parseTimeout(v); err == nil {
			t.Errorf("parseTimeout(%q) = %v, want an error", v, d)
		}
	}
	for v, want := range map[string]time.Duration{"30s": 30 * time.Second, "2.5": 2500 * time.Millisecond} {
		if d, err := parseTimeout(v); err != nil || d != want {
			t.Errorf("parseTimeout(%q) = %v, %v; want %v", v, d, err, want)
		}
	}
}
