package main

import (
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"
)

// traceRun is what one tracing child reports.
type traceRun struct {
	Workload    string            `json:"workload"`
	Seed        int64             `json:"seed"`
	Correct     bool              `json:"correct"`
	CheckError  string            `json:"check_error,omitempty"`
	Attempted   int               `json:"attempted"`
	Failed      int               `json:"failed"`
	GOMAXPROCS  int               `json:"gomaxprocs"`
	ProbeRounds int               `json:"probe_rounds"`
	ReplicaSame bool              `json:"replica_bit_identical"` // the client-step replica reproduced every real update
	SpanFile    string            `json:"span_file"`
	ProfileFile string            `json:"profile_file"`
	Metrics     map[string]metric `json:"metrics"`
}

// outDir is where span logs and profiles go: benchmark/out, wherever in the
// checkout the command was started from.
func outDir() string {
	if _, err := os.Stat(filepath.Join("benchmark", "workloads")); err == nil {
		return filepath.Join("benchmark", "out")
	}
	return "out"
}

// measureTrace is the per-layer run: real deployments under a CPU profile
// (they also give the round cost the probes are compared against), then the
// probe rounds, the client-step replica and the micro probes, all recorded as
// spans and written out at the end.
func measureTrace(name string, seed int64, window time.Duration, roundsDiv int, dir string) (*traceRun, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	run := &traceRun{Workload: name, Seed: seed, GOMAXPROCS: runtime.GOMAXPROCS(0),
		SpanFile: filepath.Join(dir, "trace-"+name+".json"), ProfileFile: filepath.Join(dir, "cpu-"+name+".pprof")}

	prof, err := os.Create(run.ProfileFile)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(prof); err != nil {
		prof.Close()
		return nil, err
	}
	e2e, w, err := measureE2E(name, seed, window/3, 2, roundsDiv)
	pprof.StopCPUProfile()
	if cerr := prof.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	run.Attempted, run.Failed = e2e.Attempted, e2e.Failed
	if !e2e.Correct {
		run.CheckError = e2e.CheckError
		return run, nil
	}

	tr := newTracer(true)
	cold, err := w.deploy() // resolves the defaults the probes need
	if err != nil {
		return nil, err
	}
	p, err := newProber(w, cold, tr)
	if err != nil {
		return nil, err
	}
	probeBudget := window / 8

	// Pass A: probe rounds with the real client update.
	envA, err := p.newRoundEnv()
	if err != nil {
		return nil, err
	}
	defer envA.close()
	// Pass B: the replica replays each probe round's cohort on its own
	// dataset, so its cache sees those clients for the first time too.
	dsB, slotB, seen := p.newDataset(), p.newSlot(), map[batchKey]bool{}
	run.ReplicaSame = true
	for start := time.Now(); run.ProbeRounds < p.cfg.Rounds && (run.ProbeRounds < 2 || time.Since(start) < probeBudget); run.ProbeRounds++ {
		r := run.ProbeRounds
		before := snapshot(envA.global)
		if err := p.probeRound(envA, r); err != nil {
			return nil, err
		}
		if !p.replicaRound(dsB, slotB, before, r, envA.cohort, envA.updates, seen) {
			run.ReplicaSame = false
		}
		if r == 0 {
			p.warmRefetch(dsB, r, envA.cohort, envA.updates)
		}
	}

	// trace.overhead_share: the replica of round 0's cohort, spans on vs off.
	overhead, err := p.traceOverhead(probeBudget)
	if err != nil {
		return nil, err
	}

	// Micro probes.
	nParams := slotB.model.NumParams()
	doc, err := workloadFS.ReadFile("workloads/" + name + ".yaml")
	if err != nil {
		return nil, err
	}
	if err := p.probeConfigLoad(doc); err != nil {
		return nil, err
	}
	p.probeDatasetBuild()
	if err := p.probePlan(); err != nil {
		return nil, err
	}
	gemmFlops := p.probeGEMM()
	p.probeIm2Col()
	p.probeGauss(nParams)
	if w.Exp.Runtime.Simnet {
		if err := p.probeSimnetLayers(envA, nParams); err != nil {
			return nil, err
		}
	}

	// Metrics from the spans.
	m := map[string]metric{}
	set := func(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }
	rounds := float64(run.ProbeRounds)
	perRound := func(span string) float64 { ns, _ := tr.total(span); return ns / rounds }
	set("config.load.us", tr.perOp("config.load")/1e3, "us")
	set("dataset.build.ms", tr.perOp("dataset.build")/1e6, "ms")
	set("dataset.client_view.ns_per_client", tr.perOp("dataset.client_view"), "ns")
	set("dataset.batch.ns_per_example.cold", tr.perOp("dataset.batch.cold"), "ns")
	set("dataset.batch.ns_per_example.warm", tr.perOp("dataset.batch.warm"), "ns")
	gemmNs, _ := tr.total("tensor.gemm")
	set("tensor.gemm.gflops", gemmFlops/gemmNs, "GFLOP/s")
	_, flopsPerExample := gemmPlan(p.mspec, p.rcfg.BatchSize)
	set("tensor.gemm.flops_per_example", flopsPerExample, "count")
	set("tensor.im2col.ns_per_example", tr.perOp("tensor.im2col"), "ns")
	set("tensor.gauss.ns_per_elem", tr.perOp("tensor.gauss"), "ns")
	set("nn.batch_pass.ns_per_example", tr.perOp("nn.batch_pass"), "ns")
	set("nn.example_grads.ns_per_example", tr.perOp("nn.example_grads"), "ns")
	set("nn.sgd_step.ns_per_param", tr.perOp("nn.sgd_step"), "ns")
	set("dp.sanitize.ns_per_example", tr.perOp("dp.sanitize"), "ns")
	set("dp.sanitize_batch.ns_per_example", tr.perOp("dp.sanitize_batch"), "ns")
	set("dp.sanitize.clip_fraction", float64(p.clipped.Load())/float64(max(1, p.clipChecks.Load())), "fraction")
	realNs, realN := tr.total("core.client_update")
	set("core.client_update.us_per_client", realNs/float64(max(1, realN))/1e3, "us")
	set("core.client_update.unattributed_share", 1-tr.totalChildren("core.client_update.replica")/realNs, "fraction")
	set("fl.population.active_set.us_per_round", perRound("fl.population.active_set")/1e3, "us")
	set("simnet.plan.client_active.ns_per_query", tr.perOp("simnet.plan.client_active"), "ns")
	set("simnet.plan_bind.ms", tr.perOp("simnet.plan_bind")/1e6, "ms")
	set("fl.cohort_draw.us_per_round", perRound("fl.cohort_draw")/1e3, "us")
	set("fl.wire.encode_shape.ns_per_param", tr.perOp("fl.wire.encode_shape"), "ns")
	set("fl.wire.decode_shape.ns_per_param", tr.perOp("fl.wire.decode_shape"), "ns")
	set("fl.wire.quantize8.ns_per_param", tr.perOp("fl.wire.quantize8"), "ns")
	set("fl.protocol.us_per_client", tr.perOp("fl.protocol")/1e3, "us")
	bytesPerClient := 0.0
	if envA.proto != nil && envA.proto.sent > 0 {
		bytesPerClient = float64(envA.proto.bytes) / float64(envA.proto.sent)
	}
	set("fl.protocol.bytes_per_client", bytesPerClient, "B")
	set("simnet.fabric.ns_per_kb", tr.perOp("simnet.fabric")*1024, "ns")
	set("fl.fold.ns_per_client", tr.perOp("fl.fold"), "ns")
	set("fl.commit.us_per_round", tr.perOp("fl.commit")/1e3, "us")
	set("fl.partial.wire.us_per_shard", tr.perOp("fl.partial.wire")/1e3, "us")
	set("fl.evaluate.ns_per_example", tr.perOp("fl.evaluate"), "ns")
	set("accountant.epsilon.us_per_round", tr.perOp("accountant.epsilon")/1e3, "us")
	set("accountant.ledger.ns_per_user_round", tr.perOp("accountant.ledger"), "ns")
	set("accountant.ledger.max_epsilon.us", tr.perOp("accountant.ledger.max_epsilon")/1e3, "us")

	// A deployment evaluates only some of its rounds; weight the probe's
	// evaluation cost by that share before comparing with a real round.
	evals := 0
	for r := 0; r < p.cfg.Rounds; r++ {
		if r%max(1, p.cfg.EvalEvery) == 0 || r == p.cfg.Rounds-1 {
			evals++
		}
	}
	evalNs := perRound("fl.evaluate")
	busyMs := (tr.totalChildren("core.round")/rounds - evalNs + evalNs*float64(evals)/float64(p.cfg.Rounds)) / 1e6
	realCPU, realWall := e2e.Metrics["cpu_ms_per_round"].Value, e2e.Metrics["round_ms_p50"].Value
	set("core.round.unattributed_share", 1-busyMs/realCPU, "fraction")
	set("core.round.parallel_efficiency", realCPU/(float64(run.GOMAXPROCS)*realWall), "fraction")
	set("trace.overhead_share", overhead, "fraction")
	m["wire_bytes_per_round"] = metric{Value: e2e.Metrics["wire_bytes_per_round"].Value, Unit: "B"}
	m["failed_share"] = e2e.Metrics["failed_share"]
	run.Metrics = m
	run.Correct = true
	if err := tr.writeFile(run.SpanFile, run); err != nil {
		return nil, err
	}
	return run, nil
}

// traceOverhead runs the replica of round 0's cohort — the densest spans of
// the whole trace, two per example — in pairs, once with spans on and once
// with spans off, each time on a fresh dataset, and returns the median of
// on/off over the pairs, minus one. The spans cost far less than one run
// differs from the next, so the two runs of a pair are adjacent in time and
// take turns going first.
func (p *prober) traceOverhead(budget time.Duration) (float64, error) {
	saved := p.tr
	defer func() { p.tr = saved }()
	env, err := p.newRoundEnv()
	if err != nil {
		return 0, err
	}
	defer env.close()
	p.tr = newTracer(false)
	global := snapshot(env.global)
	if err := p.probeRound(env, 0); err != nil { // gives the cohort and the real updates
		return 0, err
	}
	sl := p.newSlot()
	timed := func(on bool) float64 {
		p.tr = newTracer(on)
		ds := p.newDataset()
		runtime.GC() // both runs of a pair start from the same heap
		start := time.Now()
		p.replicaRound(ds, sl, global, 0, env.cohort, env.updates, map[batchKey]bool{})
		return time.Since(start).Seconds()
	}
	var ratios []float64
	for start := time.Now(); len(ratios) < 5 || time.Since(start) < budget; {
		var on, off float64
		if len(ratios)%2 == 0 {
			on, off = timed(true), timed(false)
		} else {
			off, on = timed(false), timed(true)
		}
		ratios = append(ratios, on/off)
	}
	return median(ratios) - 1, nil
}
