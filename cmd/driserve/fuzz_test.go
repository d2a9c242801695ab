package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"

	"dricache/internal/engine"
	"dricache/internal/jobs"
	"dricache/internal/sim"
)

// FuzzBuildJob feeds arbitrary bytes through the request decoder into a
// job envelope and buildJob — the path every simulation request takes.
// Each input must end in an error (a 400) or in a job whose every
// configuration, compare baselines included, passes mem.Config.Check
// within the server's instruction cap, with a non-negative deadline; none
// may panic.
func FuzzBuildJob(f *testing.F) {
	for _, seed := range []string{
		`{"run":{"benchmark":"applu","instructions":400000},"timeline":true}`,
		`{"kind":"run","run":{"benchmark":"gcc","instructions":1000000}}`,
		`{"compare":{"benchmark":"applu","cache":{"dri":{"missBound":256,"sizeBoundBytes":1024}}}}`,
		`{"compare":{"benchmark":"applu","instructions":1000000,"cache":{"assoc":4},"policy":{"kind":"drowsy"}}}`,
		`{"compare":{"benchmark":"applu","instructions":1000000,"l2":{"dri":{"missBound":64}},"cache":{"dri":{}}}}`,
		`{"compare":{"benchmark":"applu","l2":{"sizeBytes":131072,"dri":{"sizeBoundBytes":262144}}}}`,
		`{"run":{"benchmark":"applu","policy":{"kind":"waymemo","memoTableEntries":3}}}`,
		`{"run":{"benchmark":"applu","cache":{"sizeBytes":3000}}}`,
		`{"run":{"benchmark":"applu","l2":{"assoc":3,"policy":{"kind":"waymemo"}}}}`,
		`{"run":{"benchmark":"applu","cache":{"policy":{"kind":"decay"}},"policy":{"kind":"decay"}}}`,
		`{"sweep":{"instructions":4000000,"missBounds":[64],"sizeBounds":[1024]},"priority":3}`,
		`{"kind":"sweep","sweep":{}}`,
		`{"sweep":{"benchmarks":["applu","gcc"],"instructions":1000000,"senseInterval":50000,"policy":{"kind":"decay"}}}`,
		`{"sweep":{"benchmarks":["applu"],"missBounds":[400],"sizeBounds":[1024,4096],"l2":{"dri":{}}}}`,
		`{"sweep":{"missBounds":[1,2,3,4,5,6,7,8,9,10],"sizeBounds":[1024,2048,4096,8192,16384,32768,65536]}}`,
		`{"timeoutSeconds":1e10,"run":{"benchmark":"applu"}}`,
		`{"timeoutSeconds":-5,"run":{"benchmark":"applu"}}`,
		`{"run":{"benchmark":"applu"},"sweep":{}}`,
		`{"kind":"sweep","run":{"benchmark":"applu"}}`,
		`{"run":{"benchmark":`,
	} {
		f.Add([]byte(seed))
	}
	const maxInstr = 10_000_000
	s := buildServer(engine.New(1), maxInstr, jobs.Config{}, nil)
	f.Fuzz(func(t *testing.T, body []byte) {
		var req jobSubmitRequest
		r := httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body))
		if status, _ := decodeBody(httptest.NewRecorder(), r, &req); status != 0 {
			return
		}
		jr, err := s.buildJob(req)
		if err != nil {
			return
		}
		if jr.Run == nil || jr.Deadline < 0 {
			t.Fatalf("accepted job without a body or with a negative deadline: %+v", jr)
		}
		check := func(cfg sim.Config) {
			t.Helper()
			if err := cfg.Mem.Check(); err != nil {
				t.Fatalf("accepted configuration fails Mem.Check: %v", err)
			}
			if cfg.Instructions == 0 || cfg.Instructions > maxInstr {
				t.Fatalf("accepted configuration runs %d instructions (cap %d)", cfg.Instructions, maxInstr)
			}
		}
		switch {
		case req.Run != nil, req.Compare != nil:
			payload := req.Run
			if payload == nil {
				payload = req.Compare
			}
			cfg, _, err := s.buildRun(*payload)
			if err != nil {
				t.Fatalf("buildJob accepted a payload buildRun rejects: %v", err)
			}
			check(cfg)
			check(sim.BaselineSimConfig(cfg))
		default:
			plan, err := s.buildSweep(*req.Sweep)
			if err != nil {
				t.Fatalf("buildJob accepted a sweep buildSweep rejects: %v", err)
			}
			for _, task := range plan.tasks {
				cfg := task.SimConfig(plan.scale.Instructions)
				check(cfg)
				check(sim.BaselineSimConfig(cfg))
			}
		}
	})
}
