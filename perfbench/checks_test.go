package main

import (
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// A wrong pinned digest must fail the run: every op's output check fails
// and the result is not correct.
func TestWrongDigestFailsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs Figure 3 searches")
	}
	o := options{workload: "fig3-bypass", seed: 1, seconds: 0.001, setups: 1, expectDigest: "0123"}
	res, err := run(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 || res.Failed != res.Attempted {
		t.Fatalf("wrong digest: correct=%v failed=%d attempted=%d; want every check failed", res.Correct, res.Failed, res.Attempted)
	}
}

// The pinned digest holds for every seed: the seed only rotates the
// benchmark order.
func TestFig3DigestIgnoresSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("runs Figure 3 searches")
	}
	for _, seed := range []int64{1, 7} {
		o := options{workload: "fig3-bypass", seed: seed, seconds: 0.001, setups: 1}
		res, err := run(context.Background(), o)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct {
			t.Fatalf("seed %d: %d of %d checks failed", seed, res.Failed, res.Attempted)
		}
		for _, m := range endToEnd {
			if v, ok := res.Metrics[m.name]; !ok || v.Value <= 0 || v.Unit != m.unit {
				t.Errorf("seed %d: metric %s = %+v", seed, m.name, v)
			}
		}
	}
}

func decodeResp(t *testing.T, s string) serveResp {
	t.Helper()
	var r serveResp
	if err := json.Unmarshal([]byte(s), &r); err != nil {
		t.Fatal(err)
	}
	return r
}

func TestCheckServedCacheOutcome(t *testing.T) {
	cmp := serveKey{bench: "gcc", compare: true, mb: 500, sb: 1 << 10}
	runKey := serveKey{bench: "gcc", mb: 400, sb: 2 << 10}
	cmpBody := `{"comparison":{"benchmark":"gcc"},"cached":{"baseline":%s,"dri":%s}}`
	runBody := `{"result":{"benchmark":"gcc"},"cached":%s}`
	f := func(format string, args ...any) string {
		for _, a := range args {
			format = strings.Replace(format, "%s", a.(string), 1)
		}
		return format
	}
	cases := []struct {
		name            string
		key             serveKey
		body            string
		hit             bool
		dHits, dMisses  uint64
		wantErrContains string
	}{
		{"miss ok", cmp, f(cmpBody, "true", "false"), false, 1, 1, ""},
		{"miss served from cache", cmp, f(cmpBody, "true", "true"), false, 1, 1, "cached"},
		{"miss without baseline hit", cmp, f(cmpBody, "false", "false"), false, 0, 2, "cached"},
		{"miss engine counts off", cmp, f(cmpBody, "true", "false"), false, 0, 2, "engine"},
		{"hit compare ok", cmp, f(cmpBody, "true", "true"), true, 2, 0, ""},
		{"hit compare simulated", cmp, f(cmpBody, "true", "false"), true, 1, 1, "cached"},
		{"hit run ok", runKey, f(runBody, "true"), true, 1, 0, ""},
		{"hit run not cached", runKey, f(runBody, "false"), true, 0, 1, "cached"},
		{"malformed", runKey, `{"cached":true}`, true, 1, 0, "malformed"},
	}
	for _, c := range cases {
		err := checkServed(c.key, decodeResp(t, c.body), c.hit, c.dHits, c.dMisses)
		switch {
		case c.wantErrContains == "" && err != nil:
			t.Errorf("%s: unexpected error %v", c.name, err)
		case c.wantErrContains != "" && (err == nil || !strings.Contains(err.Error(), c.wantErrContains)):
			t.Errorf("%s: error %v, want one mentioning %q", c.name, err, c.wantErrContains)
		}
	}
}

// serve-miss never repeats a key, takes benchmarks in balanced round-robin
// and does the same work for every seed: only the miss-bounds differ.
func TestServeMissKeys(t *testing.T) {
	type slot struct {
		bench string
		sb    int
	}
	mix := func(seed int64) map[slot]int {
		w, err := newServe(options{seed: seed}, false)
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[slot]int)
		seen := make(map[serveKey]bool)
		for i := 0; i < 900; i++ {
			k := w.next(i)
			if seen[k] {
				t.Fatalf("seed %d: key %+v repeated", seed, k)
			}
			seen[k] = true
			if k.mb < 400 || k.mb >= 800 || !k.compare {
				t.Fatalf("seed %d: key %+v out of range", seed, k)
			}
			out[slot{k.bench, k.sb}]++
		}
		return out
	}
	a, b := mix(1), mix(2)
	if len(a) != 15*len(missSizeBounds) {
		t.Fatalf("%d distinct (benchmark, size-bound) slots, want %d", len(a), 15*len(missSizeBounds))
	}
	for s, n := range a {
		if n != 20 || b[s] != n {
			t.Errorf("slot %+v: %d requests with seed 1, %d with seed 2; want 20 each", s, n, b[s])
		}
	}
}

// The server is started on an ephemeral port, is ready when startServer
// returns, and stop kills it and removes its directory.
func TestServerLifecycle(t *testing.T) {
	if testing.Short() {
		t.Skip("builds driserve")
	}
	bin := filepath.Join(t.TempDir(), "driserve")
	build := exec.Command("go", "build", "-o", bin, "../cmd/driserve")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build driserve: %v\n%s", err, out)
	}
	dir := filepath.Join(t.TempDir(), "run")
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	srv, err := startServer(ctx, bin, dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.stats(ctx); err != nil {
		t.Fatal(err)
	}
	// The served result of a key equals sim.Run of serveKey.simConfig, and
	// a tampered one does not.
	for _, k := range []serveKey{{bench: "gcc", mb: 500, sb: 4 << 10}, {bench: "gcc", compare: true, mb: 700, sb: 1 << 10}} {
		status, body, err := srv.post(ctx, k.path(), k.body())
		if err != nil || status != 200 {
			t.Fatalf("%s: status %d, %v", k.path(), status, err)
		}
		resp := decodeResp(t, string(body))
		if err := checkAgainstSim(k, resp); err != nil {
			t.Error(err)
		}
		if k.compare {
			resp.Comparison.DRICycles++
		} else {
			resp.Result.Cycles++
		}
		if err := checkAgainstSim(k, resp); err == nil {
			t.Errorf("%s: a tampered result passed", k.path())
		}
	}
	pid := srv.cmd.Process.Pid
	srv.stop()
	if err := syscall.Kill(pid, 0); err == nil {
		t.Errorf("driserve %d still running after stop", pid)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Errorf("run directory %s left behind (%v)", dir, err)
	}
}
