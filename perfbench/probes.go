package main

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"time"

	"dricache/internal/bpred"
	"dricache/internal/cpu"
	"dricache/internal/engine"
	"dricache/internal/exp"
	"dricache/internal/isa"
	"dricache/internal/mem"
	"dricache/internal/sim"
	"dricache/internal/trace"
)

// probeSpec describes what the layer probes replay for a workload.
type probeSpec struct {
	// progs are the workload's streams.
	progs []trace.Program
	// cfgs are the workload's configurations, the conventional baseline
	// first.
	cfgs []sim.Config
	// bypass is set when the workload runs with the replay store off.
	bypass bool
	// sumCheck names the simulation path the sum check compares against:
	// "lanes", "solo", "generic", or "" when the workload simulates
	// nothing.
	sumCheck string
	// serve selects the engine probe's request shape: "miss", "hit" or ""
	// (the fig3 workloads time RunManyCtx inside their ops).
	serve string
}

// probeInstrs is the stream length every probe replays: the workloads' own
// 1M-instruction budget.
const probeInstrs = 1_000_000

// blockShift is log2 of the L1 i-cache block size (32 bytes).
const blockShift = 5

func (w *fig3Work) probeSpec() probeSpec {
	ps := probeSpec{progs: sortedProgs(w.progs), cfgs: gridConfigs(w.scale, w.space, w.progs[0]), bypass: w.bypass, sumCheck: "lanes"}
	if w.bypass {
		ps.sumCheck = "generic"
	}
	return ps
}

func (w *serveWork) probeSpec() probeSpec {
	base := sim.BaselineSimConfig(serveKey{mb: 1, sb: 1 << 10}.simConfig())
	ps := probeSpec{cfgs: []sim.Config{base}}
	for _, n := range trace.SortedNames() {
		p, _ := trace.ByName(n)
		ps.progs = append(ps.progs, p)
	}
	if w.hit {
		ps.serve = "hit"
		for _, k := range w.keys[:2] {
			ps.cfgs = append(ps.cfgs, k.simConfig())
		}
		return ps
	}
	ps.serve, ps.sumCheck = "miss", "solo"
	for _, sb := range missSizeBounds {
		ps.cfgs = append(ps.cfgs, serveKey{mb: 600, sb: sb}.simConfig())
	}
	return ps
}

// gridConfigs is the Figure 3 search's configurations for one benchmark:
// the conventional baseline and the 12 grid points.
func gridConfigs(scale exp.Scale, space exp.SearchSpace, p trace.Program) []sim.Config {
	tasks := fig3Tasks(scale, space, []trace.Program{p})
	cfgs := []sim.Config{sim.BaselineSimConfig(tasks[0].SimConfig(scale.Instructions))}
	for _, t := range tasks {
		cfgs = append(cfgs, t.SimConfig(scale.Instructions))
	}
	return cfgs
}

func sortedProgs(ps []trace.Program) []trace.Program {
	out := slices.Clone(ps)
	slices.SortFunc(out, func(a, b trace.Program) int { return strings.Compare(a.Name, b.Name) })
	return out
}

// runProbes runs the layer probes single-threaded and fills the per-layer
// metrics they own, then the sum check.
func runProbes(ctx context.Context, w workload, tr *tracer, ms map[string]metric) error {
	ps := w.probeSpec()
	set := func(name string, v float64) { ms[name] = metric{Value: v, Unit: unitOf(name)} }
	// The sim and engine probes run over the core set's benchmarks only.
	var core []trace.Program
	for _, p := range ps.progs {
		if slices.Contains(coreSet, p.Name) {
			core = append(core, p)
		}
	}

	// trace: record every stream into a cold store; drain the generator.
	store := trace.NewStore(trace.DefaultStoreBudget)
	reps := make(map[string]*isa.Replay)
	var recNS, repBytes, repLen float64
	for _, p := range ps.progs {
		start := time.Now()
		rep := store.Replay(p, probeInstrs)
		recNS += float64(time.Since(start).Nanoseconds())
		if rep == nil {
			return fmt.Errorf("probe recording of %s bypassed a cold store", p.Name)
		}
		reps[p.Name] = rep
		repBytes += float64(rep.Bytes())
		repLen += float64(rep.Len())
	}
	set("trace.record_ms", recNS/1e6)
	set("isa.replay_bytes_per_instr", repBytes/repLen)

	var genNS float64
	var ins isa.Instr
	for _, p := range ps.progs {
		s := p.Stream(probeInstrs)
		start := time.Now()
		for s.Next(&ins) {
		}
		genNS += float64(time.Since(start).Nanoseconds())
	}
	set("trace.generate_ns_per_instr", genNS/(probeInstrs*float64(len(ps.progs))))
	if err := ctx.Err(); err != nil {
		return err
	}

	// isa: decode every recording chunk by chunk, as the lanes do.
	var decNS, decN float64
	var buf [256]isa.DecodedInstr
	for _, p := range ps.progs {
		cur := reps[p.Name].Cursor()
		start := time.Now()
		for {
			n := cur.NextChunk(buf[:])
			if n == 0 {
				break
			}
			decN += float64(n)
		}
		decNS += float64(time.Since(start).Nanoseconds())
	}
	D := decNS / decN
	set("isa.decode_ns_per_instr", D)

	// bpred: walk a predictor over the recorded control flow with the
	// lanes' call pattern; the time is charged per conditional branch.
	var predNS, branches float64
	for _, p := range ps.progs {
		bp := bpred.New(ps.cfgs[0].Bpred)
		cur := reps[p.Name].Cursor()
		for {
			n := cur.NextChunk(buf[:])
			if n == 0 {
				break
			}
			start := time.Now()
			for k := range buf[:n] {
				e := &buf[k]
				switch e.Cls {
				case isa.Branch:
					branches++
					if !bp.PredictBranch(e.PC, e.Taken) && e.Taken {
						bp.PredictTarget(e.PC, e.Target)
					}
				case isa.Jump:
					bp.PredictTarget(e.PC, e.Target)
				case isa.Call:
					bp.Call(e.PC + isa.InstrBytes)
					bp.PredictTarget(e.PC, e.Target)
				case isa.Ret:
					bp.Return(e.Target)
				default:
					continue
				}
			}
			predNS += float64(time.Since(start).Nanoseconds())
		}
	}
	P := predNS / branches
	set("bpred.predict_ns_per_branch", P)
	if err := ctx.Err(); err != nil {
		return err
	}

	// mem: fetch each recording's block sequence under every workload
	// configuration, one hierarchy per configuration.
	var fetchNS, blocks float64
	for _, p := range ps.progs {
		hs := make([]*mem.Hierarchy, len(ps.cfgs))
		last := make([]uint64, len(ps.cfgs))
		for i, cfg := range ps.cfgs {
			hs[i] = mem.New(cfg.Mem)
			last[i] = ^uint64(0)
		}
		cur := reps[p.Name].Cursor()
		for {
			n := cur.NextChunk(buf[:])
			if n == 0 {
				break
			}
			for i, h := range hs {
				start := time.Now()
				for k := range buf[:n] {
					if b := buf[k].PC >> blockShift; b != last[i] {
						h.FetchBlock(b)
						last[i] = b
						blocks++
					}
				}
				fetchNS += float64(time.Since(start).Nanoseconds())
			}
		}
	}
	F := fetchNS / blocks
	set("mem.fetch_ns_per_block", F)
	if err := ctx.Err(); err != nil {
		return err
	}

	// cpu: 13 lock-step pipelines (the Figure 3 grid of the benchmark) over
	// each recording; one fused solo run; one generic run over the
	// generator.
	scale := exp.QuickScale()
	var laneNS, laneInstrs, laneGroups float64
	var soloNS, genRunNS, soloInstrs float64
	soloCfg := ps.cfgs[1]
	for _, p := range ps.progs {
		grid := gridConfigs(scale, exp.QuickSpace(scale), p)
		pipes := make([]*cpu.Pipeline, len(grid))
		for i, c := range grid {
			h := mem.New(c.Mem)
			pipes[i] = cpu.New(c.CPU, h, h, bpred.New(c.Bpred), h)
		}
		cur := reps[p.Name].Cursor()
		start := time.Now()
		rs := cpu.RunLanes(&cur, pipes)
		laneNS += float64(time.Since(start).Nanoseconds())
		for _, r := range rs {
			laneInstrs += float64(r.Instructions)
			laneGroups += float64(r.FetchGroups)
		}

		h := mem.New(soloCfg.Mem)
		pipe := cpu.New(soloCfg.CPU, h, h, bpred.New(soloCfg.Bpred), h)
		cur = reps[p.Name].Cursor()
		start = time.Now()
		res := pipe.Run(&cur)
		soloNS += float64(time.Since(start).Nanoseconds())
		soloInstrs += float64(res.Instructions)

		h = mem.New(soloCfg.Mem)
		pipe = cpu.New(soloCfg.CPU, h, h, bpred.New(soloCfg.Bpred), h)
		start = time.Now()
		pipe.Run(p.Stream(probeInstrs))
		genRunNS += float64(time.Since(start).Nanoseconds())
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	L := laneNS / laneInstrs
	S := soloNS / soloInstrs
	G := genRunNS / soloInstrs
	set("cpu.lane_ns_per_lane_instr", L)
	set("cpu.solo_ns_per_instr", S)
	set("cpu.generic_ns_per_instr", G)

	// sim: the workload's configurations as lanes over one benchmark,
	// through the shared store exactly as the workload uses it.
	p := core[len(core)-1]
	if !ps.bypass && trace.SharedStore().Replay(p, probeInstrs) == nil {
		return fmt.Errorf("probe recording of %s bypassed the shared store", p.Name)
	}
	start := time.Now()
	rs := sim.RunLanes(ps.cfgs, p)
	simNS := float64(time.Since(start).Nanoseconds())
	set("sim.lanes_minstr_per_s", float64(len(ps.cfgs))*probeInstrs/simNS*1e3)
	var misses, accesses, resizes float64
	for i, r := range rs {
		misses += float64(r.ICache.Misses)
		accesses += float64(r.ICache.Accesses)
		if i > 0 {
			resizes += float64(r.ICache.Upsizes + r.ICache.Downsizes)
		}
	}
	set("mem.l1i_miss_ratio", misses/accesses)
	if ps.serve != "" {
		// Served requests report no resize counts on /v1/compare; charge
		// the mean over the workload's DRI configurations per simulation.
		set("dri.resizes_per_op", resizes/float64(len(rs)-1)*ms["sim.instrs_per_op"].Value/probeInstrs)
		batchMS, err := engineProbe(ctx, ps, core)
		if err != nil {
			return err
		}
		set("engine.batch_ms", batchMS)
	}

	// Sum check. Decode, predict and fetch are timed alone above; the stage
	// advance ("step") is what remains of the 13-lane probe once they are
	// taken out. Scaled by the op's counts, decode + predict + step + fetch
	// is compared with the pipeline span's self time of the same op. For
	// serve-miss the parts come from the lane probe while the op runs the
	// solo loop, so the remainder is also the solo path's own overhead.
	lanes := float64(len(gridConfigs(scale, exp.QuickSpace(scale), p)))
	brPerInstr, blkPerInstr := branches/decN, laneGroups/laneInstrs
	step := L - (D+P*brPerInstr)/lanes - F*blkPerInstr
	set("cpu.step_ns_per_lane_instr", step)
	simUS := tr.perOp("pipeline")
	instrs := ms["sim.instrs_per_op"].Value
	var partsNS float64
	switch ps.sumCheck {
	case "lanes":
		decoded := instrs / max(ms["engine.lanes_per_batch"].Value, 1)
		partsNS = (D+P*brPerInstr)*decoded + (step+F*blkPerInstr)*instrs
	case "solo":
		partsNS = (D + P*brPerInstr + step + F*blkPerInstr) * instrs
	case "generic":
		partsNS = G * instrs
	}
	set("sim.unattributed_pct", 0)
	if simUS > 0 {
		set("sim.unattributed_pct", 100*(simUS-partsNS/1e3)/simUS)
	}
	return nil
}

// engineProbe times engine.RunManyCtx in-process with the serving
// workload's request shape: serve-miss submits a primed baseline plus one
// new DRI point; serve-hit resubmits primed keys. It returns ms per op.
func engineProbe(ctx context.Context, ps probeSpec, progs []trace.Program) (float64, error) {
	eng := engine.New(0)
	var ops [][]engine.Request
	for _, p := range progs {
		base := engine.Request{Config: ps.cfgs[0], Prog: p}
		if _, err := eng.RunManyCtx(ctx, []engine.Request{base}); err != nil {
			return 0, err
		}
		for i, c := range ps.cfgs[1:] {
			req := engine.Request{Config: c, Prog: p}
			op := []engine.Request{req}
			if ps.serve == "miss" || i%2 == 1 {
				op = []engine.Request{base, req}
			}
			if ps.serve == "hit" {
				if _, err := eng.RunManyCtx(ctx, op); err != nil {
					return 0, err
				}
			}
			ops = append(ops, op)
		}
	}
	reps := 1
	if ps.serve == "hit" {
		reps = 2000
	}
	start := time.Now()
	for r := 0; r < reps; r++ {
		for _, op := range ops {
			if _, err := eng.RunManyCtx(ctx, op); err != nil {
				return 0, err
			}
		}
	}
	return float64(time.Since(start).Nanoseconds()) / 1e6 / float64(reps*len(ops)), nil
}
