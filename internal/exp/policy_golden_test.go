package exp

// Golden guard for the policy subsystem's compatibility promise: selecting
// policy=dri (or policy=conventional) must reproduce the per-benchmark run
// observables of the pre-policy harness bit for bit. The expectations are
// the SAME golden file TestGoldenRuns pins (testdata/golden_runs.json), so
// any drift the policy layer introduces on the DRI or conventional paths —
// an extra cycle from the hook, a perturbed fraction — fails here against
// numbers the seed established.

import (
	"context"
	"testing"

	"dricache/internal/dri"
	"dricache/internal/engine"
	"dricache/internal/policy"
	"dricache/internal/sim"
	"dricache/internal/trace"
)

func TestGoldenPolicySelectorsBitForBit(t *testing.T) {
	if *updateGolden {
		t.Skip("golden_runs.json is written by TestGoldenRuns")
	}
	var want map[string]goldenRun
	readGolden(t, "golden_runs.json", &want)

	scale := QuickScale()
	eng := engine.New(0)

	var reqs []engine.Request
	var labels []string
	for _, b := range trace.Benchmarks() {
		conv := sim.Default(sim.Conventional64K(), scale.Instructions).
			WithL1IPolicy(policy.Config{Kind: policy.Conventional})
		driCfg := sim.Default(sim.DRI64K(dri.DefaultParams(scale.SenseInterval)), scale.Instructions).
			WithL1IPolicy(policy.Config{Kind: policy.DRI})
		reqs = append(reqs, engine.Request{Config: conv, Prog: b},
			engine.Request{Config: driCfg, Prog: b})
		labels = append(labels, b.Name+"/conventional", b.Name+"/dri")
	}
	results, err := eng.RunManyCtx(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}

	for i, res := range results {
		label := labels[i]
		w, ok := want[label]
		if !ok {
			t.Errorf("golden file has no entry for %s", label)
			continue
		}
		checkRun(t, "policy:"+label, snapshotRun(res), w)
	}
}
