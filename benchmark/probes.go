package main

// Every binding from the benchmark to the program's public functions on the
// production path lives in this file, so a change to those functions has one
// place that can break. Nothing here calls gob, the barrier runtime, the
// reference engine, math/rand noise or the legacy sampler.

import (
	"fmt"
	"io"
	"math"
	"sync/atomic"
	"time"

	"fedcdp/internal/accountant"
	"fedcdp/internal/config"
	"fedcdp/internal/core"
	"fedcdp/internal/dataset"
	"fedcdp/internal/dp"
	"fedcdp/internal/fl"
	"fedcdp/internal/nn"
	"fedcdp/internal/simnet"
	"fedcdp/internal/tensor"
)

// prober holds what the probes share: the workload as the program resolved
// it, and the tracer the spans go to.
type prober struct {
	w     *workload
	cfg   core.Config // defaults applied, as a real deployment reported it
	spec  dataset.Spec
	mspec nn.Spec
	part  dataset.Partitioner
	plan  *simnet.Plan // nil when the workload has no fault or population plan
	pop   fl.Population
	strat fl.Strategy
	cdp   core.FedCDP
	rcfg  fl.RoundConfig
	valN  int
	tr    *tracer

	clipped, clipChecks atomic.Int64 // exact counts behind dp.sanitize.clip_fraction
}

func newProber(w *workload, res *core.Result, tr *tracer) (*prober, error) {
	cfg := res.Cfg
	strat, err := cfg.Strategy()
	if err != nil {
		return nil, err
	}
	cdp, ok := strat.(core.FedCDP)
	if !ok || cdp.FlatClip {
		return nil, fmt.Errorf("the client-step replica knows layer-wise Fed-CDP only, got %s", strat.Name())
	}
	part, err := cfg.Scenario.Partitioner()
	if err != nil {
		return nil, err
	}
	plan, err := w.boundPlan()
	if err != nil {
		return nil, err
	}
	total := cfg.Rounds
	if !w.Exp.Runtime.Simnet && cfg.PlannedRounds > 0 {
		total = cfg.PlannedRounds
	}
	rcfg := fl.RoundConfig{BatchSize: cfg.BatchSize, LocalIters: cfg.LocalIters, LR: cfg.LR, TotalRounds: total, ConfigDigest: cfg.ConfigDigest}
	if w.Exp.Runtime.Simnet {
		rcfg.Scenario = cfg.Scenario
	}
	valN := cfg.ValExamples
	if valN <= 0 {
		valN = 500
	}
	return &prober{w: w, cfg: cfg, spec: res.Spec, mspec: res.Spec.ModelSpec(), part: part, plan: plan,
		pop: population(cfg.K, plan), strat: strat, cdp: cdp, rcfg: rcfg, valN: valN, tr: tr}, nil
}

func (p *prober) newDataset() *dataset.Dataset {
	return dataset.NewPartitioned(p.spec, p.cfg.Seed, p.part)
}

func (p *prober) traceID(round, client int) string {
	if client < 0 {
		return fmt.Sprintf("%s/%d", p.w.Name, round)
	}
	return fmt.Sprintf("%s/%d/%d", p.w.Name, round, client)
}

// clientView is the shard a cohort member trains on this round.
func (p *prober) clientView(ds *dataset.Dataset, round, id int) *dataset.ClientData {
	data := ds.ClientAt(id, round)
	if p.plan != nil {
		data = fl.AdversaryShard(p.plan, id, data)
	}
	return data
}

// samplingRate is the Fed-CDP per-step rate q = B·kt/N for a sampling pool of
// `active` clients.
func (p *prober) samplingRate(active int) float64 {
	kt := min(p.cfg.Kt, active)
	return math.Min(1, accountant.Params{TotalData: p.spec.TrainN, PerRoundKt: kt, BatchSize: p.cfg.BatchSize}.FedCDPSamplingRate())
}

func (p *prober) accountingSigma() float64 {
	if p.cfg.AccountantSigma > 0 {
		return p.cfg.AccountantSigma
	}
	return p.cfg.Sigma
}

// slot is one reusable local-training workspace, as the runtimes keep one
// per worker.
type slot struct {
	model *nn.Model
	arena *tensor.Arena
	rng   *tensor.RNG
	noise tensor.CounterRNG
}

func (p *prober) newSlot() *slot {
	s := &slot{model: nn.Build(p.mspec, tensor.NewRNG(0)), arena: tensor.NewArena(), rng: tensor.NewRNG(0)}
	s.model.UseArena(s.arena)
	return s
}

func (s *slot) env(p *prober, round, id int, data *dataset.ClientData) *fl.ClientEnv {
	s.rng.Reseed(p.cfg.Seed, 4, int64(round), int64(id))
	s.noise = fl.ClientNoise(p.cfg.Seed, round, id)
	return &fl.ClientEnv{ClientID: id, Round: round, Model: s.model, Data: data, RNG: s.rng, Cfg: p.rcfg, Arena: s.arena, Noise: &s.noise}
}

// ---------------------------------------------------------------------------
// Probe round: one federated round assembled on this goroutine from public
// calls, each wrapped in a span.

// roundEnv is the state a deployment keeps across rounds.
type roundEnv struct {
	ds     *dataset.Dataset
	global *nn.Model
	work   *slot
	agg    fl.Aggregator
	acc    *accountant.Accountant
	ledger *accountant.Ledger
	valX   []*tensor.Tensor
	valY   []int
	proto  *protocolStub // simnet workloads only

	// The last round's cohort, the update of every member that trained, and
	// the members whose update was folded.
	cohort  []int
	updates map[int][]*tensor.Tensor
	served  []int
}

// snapshot copies a model's parameters.
func snapshot(m *nn.Model) []*tensor.Tensor { return tensor.CloneAll(m.Params()) }

func (p *prober) newRoundEnv() (*roundEnv, error) {
	e := &roundEnv{ds: p.newDataset(), global: nn.Build(p.mspec, tensor.Split(p.cfg.Seed, 1)), work: p.newSlot()}
	var err error
	if e.agg, err = fl.NewAggregatorFor(p.cfg.Aggregation, p.cfg.Shards, p.cfg.TreeFanout, p.cfg.K); err != nil {
		return nil, err
	}
	if p.pop.Dynamic() {
		e.ledger = accountant.NewLedger(p.cfg.Delta)
	} else {
		e.acc = accountant.New(p.cfg.Delta)
	}
	e.valX, e.valY = e.ds.Validation(p.valN)
	if p.w.Exp.Runtime.Simnet {
		if e.proto, err = p.newProtocolStub(e.ds); err != nil {
			return nil, err
		}
	}
	return e, nil
}

func (e *roundEnv) close() {
	if e.proto != nil {
		e.proto.srv.Close()
	}
}

// foldClient routes an update into the aggregator the way the runtimes do.
func foldClient(agg fl.Aggregator, id int, update []*tensor.Tensor, weight float64) {
	switch a := agg.(type) {
	case fl.ClientFolder:
		a.FoldClient(id, update, weight)
	case fl.WeightedFolder:
		a.FoldWeighted(update, weight)
	default:
		agg.Fold(update)
	}
}

func (p *prober) probeRound(e *roundEnv, r int) error {
	tr := p.tr
	root := tr.start("core.round", 0, p.traceID(r, -1))

	s := tr.start("fl.population.active_set", root.id, root.trace)
	activeN := p.pop.ActiveCount(r)
	var active []int
	if p.pop.Dynamic() {
		active = p.pop.ActiveSet(r)
	}
	s.done(1)

	s = tr.start("fl.cohort_draw", root.id, root.trace)
	cohort := fl.ActiveCohort(p.cfg.Seed, r, p.pop, p.cfg.Kt, p.cfg.Sampler, false)
	s.done(1)

	params := e.global.Params()
	e.agg.Begin(params)
	e.updates = make(map[int][]*tensor.Tensor, len(cohort))
	e.cohort, e.served = cohort, nil
	for _, id := range cohort {
		if p.plan != nil && p.plan.CrashClient(r, id) {
			continue
		}
		trace := p.traceID(r, id)
		s = tr.start("dataset.client_view", root.id, trace)
		data := p.clientView(e.ds, r, id)
		s.done(1)

		e.work.model.SetParams(params)
		env := e.work.env(p, r, id, data)
		s = tr.start("core.client_update", root.id, trace)
		upd, _ := p.strat.ClientUpdate(env)
		s.done(1)
		e.updates[id] = upd
		if p.plan != nil {
			p.plan.CorruptUpdate(r, id, upd)
			if p.plan.DropUpdate(r, id) {
				continue
			}
		}
		e.served = append(e.served, id)

		s = tr.start("fl.fold", root.id, trace)
		foldClient(e.agg, id, upd, float64(data.Len()))
		s.done(1)
	}

	if e.proto != nil && len(e.served) > 0 {
		s = tr.start("fl.protocol", root.id, root.trace)
		if err := e.proto.round(r, params, p.rcfg, e.served, e.updates); err != nil {
			return err
		}
		s.done(len(e.served))
	}

	committed := len(e.served) >= p.cfg.MinQuorum
	if committed {
		s = tr.start("fl.commit", root.id, root.trace)
		e.agg.Commit(params)
		s.done(1)
	}

	if committed {
		sigma, steps := p.accountingSigma(), p.cfg.LocalIters
		if e.ledger != nil {
			q := p.samplingRate(len(active))
			s = tr.start("accountant.ledger", root.id, root.trace)
			for _, id := range active {
				e.ledger.Participate(id, q, sigma, steps)
			}
			s.done(len(active))
			s = tr.start("accountant.ledger.max_epsilon", root.id, root.trace)
			e.ledger.MaxEpsilon()
			s.done(1)
		} else {
			s = tr.start("accountant.epsilon", root.id, root.trace)
			e.acc.Accumulate(p.samplingRate(activeN), sigma, steps)
			e.acc.Epsilon()
			s.done(1)
		}
	}
	// Every probe round evaluates; a deployment evaluates only some rounds,
	// and the round cost weights this span by that share.
	s = tr.start("fl.evaluate", root.id, root.trace)
	fl.Evaluate(e.global, e.valX, e.valY)
	s.done(len(e.valX))
	root.done(1)
	return nil
}

// ---------------------------------------------------------------------------
// Client-step replica: core's local training loop rebuilt from the public
// calls it makes, so each stage gets its own span. Callbacks are wrapped to
// split the fused recover+sanitize stage.

func arenaLike(a *tensor.Arena, ts []*tensor.Tensor) []*tensor.Tensor {
	out := make([]*tensor.Tensor, len(ts))
	for i, t := range ts {
		out[i] = a.Get(t.Shape()...)
	}
	return out
}

// batchKey marks a (client, iteration) batch already fetched from a dataset.
type batchKey struct{ id, iter int }

// replicaUpdate runs one client's local training on sl and returns ΔW. The
// model must hold the global parameters. seen classifies batch fetches as
// cold (first fetch of a never-seen batch) or warm.
func (p *prober) replicaUpdate(sl *slot, r, id int, data *dataset.ClientData, seen map[batchKey]bool) []*tensor.Tensor {
	tr := p.tr
	trace := p.traceID(r, id)
	root := tr.start("core.client_update.replica", 0, trace)
	model, arena := sl.model, sl.arena
	bs, lr := p.rcfg.BatchSize, p.rcfg.LR
	c := p.cdp.Clip.Bound(r, p.rcfg.TotalRounds)
	noise := fl.ClientNoise(p.cfg.Seed, r, id)
	nParams := model.NumParams()

	s := tr.start("tensor.clone_delta", root.id, trace)
	global := tensor.CloneAll(model.Params())
	s.done(1)
	batch := arenaLike(arena, model.Grads())
	bufs := make([][]*tensor.Tensor, bs)
	for i := range bufs {
		bufs[i] = arenaLike(arena, model.Grads())
	}
	preNorms := make([]float64, bs)

	for l := 0; l < p.rcfg.LocalIters; l++ {
		name := "dataset.batch.cold"
		if seen[batchKey{id, l}] {
			name = "dataset.batch.warm"
		}
		seen[batchKey{id, l}] = true
		s = tr.start(name, root.id, trace)
		xs, ys := data.Batch(l, bs)
		s.done(len(xs))

		for _, t := range batch {
			t.Zero()
		}
		s = tr.start("nn.batch_pass", root.id, trace)
		model.BatchPass(xs, ys)
		s.done(len(xs))

		iter := int64(l)
		fused := tr.start("dp.sanitize_batch", root.id, trace)
		job := dp.BatchSanitizeJob{
			N: len(xs),
			Recover: func(i int, dst []*tensor.Tensor) {
				s := tr.start("nn.example_grads", fused.id, trace)
				model.ExampleGrads(i, dst)
				s.done(1)
			},
			Sanitize: func(i int, g []*tensor.Tensor) {
				s := tr.start("dp.sanitize", fused.id, trace)
				// core's exampleNoise: (client key, per-example purpose 1, iteration, example).
				norms := dp.SanitizeCounter(g, c, p.cdp.Sigma, noise.Derive(1, iter, int64(i)))
				s.done(1)
				for _, n := range norms {
					if n > c {
						p.clipped.Add(1)
					}
				}
				p.clipChecks.Add(int64(len(norms)))
			},
			Bufs:   bufs,
			Accum:  batch,
			Weight: 1 / float64(len(xs)),
		}
		if l == 0 {
			job.PreNorms = preNorms
		}
		dp.SanitizeBatch(job)
		fused.done(len(xs))

		s = tr.start("nn.sgd_step", root.id, trace)
		model.SGDStep(lr, batch)
		s.done(nParams)
	}
	s = tr.start("tensor.clone_delta", root.id, trace)
	delta := fl.Delta(model.Params(), global)
	s.done(1)
	arena.Put(batch...)
	for _, b := range bufs {
		arena.Put(b...)
	}
	root.done(1)
	return delta
}

// replicaRound replays the client steps of one round's cohort on the replica
// and reports whether every replica update equals the real one bit for bit.
func (p *prober) replicaRound(ds *dataset.Dataset, sl *slot, global []*tensor.Tensor, r int, cohort []int, real map[int][]*tensor.Tensor, seen map[batchKey]bool) bool {
	same := true
	for _, id := range cohort {
		want, ok := real[id]
		if !ok {
			continue // crashed or dropped: the real round did not train or keep it
		}
		sl.model.SetParams(global)
		got := p.replicaUpdate(sl, r, id, ds.ClientAt(id, r), seen)
		if p.plan != nil && p.plan.ByzantineClient(id) {
			continue // the real update was corrupted after training
		}
		for i := range got {
			if !got[i].Equal(want[i], 0) {
				same = false
			}
		}
	}
	return same
}

// warmRefetch fetches again every batch of a cohort already trained on ds.
func (p *prober) warmRefetch(ds *dataset.Dataset, r int, cohort []int, trained map[int][]*tensor.Tensor) {
	for _, id := range cohort {
		if _, ok := trained[id]; !ok {
			continue
		}
		data := ds.ClientAt(id, r)
		for l := 0; l < p.rcfg.LocalIters; l++ {
			s := p.tr.start("dataset.batch.warm", 0, p.traceID(r, id))
			xs, _ := data.Batch(l, p.rcfg.BatchSize)
			s.done(len(xs))
		}
	}
}

// ---------------------------------------------------------------------------
// Protocol stub: a real RoundServer on a simnet listener, real ClientMux
// sessions, and a strategy that returns a precomputed update — so what is
// timed is session open, announce, encode, fabric, decode and ack, with zero
// compute and no fold.

type stubStrategy struct{ updates map[int][]*tensor.Tensor }

func (stubStrategy) Name() string { return "benchmark-stub" }
func (s stubStrategy) ClientUpdate(env *fl.ClientEnv) ([]*tensor.Tensor, fl.ClientStats) {
	return s.updates[env.ClientID], fl.ClientStats{}
}
func (stubStrategy) ServerSanitize(int, [][]*tensor.Tensor, *tensor.RNG) {}

// countFold is an aggregator that only counts, so the protocol probe does
// not pay for (or double-count) the fold.
type countFold struct{ n atomic.Int64 }

func (c *countFold) Begin([]*tensor.Tensor)  { c.n.Store(0) }
func (c *countFold) Fold([]*tensor.Tensor)   { c.n.Add(1) }
func (c *countFold) Count() int              { return int(c.n.Load()) }
func (c *countFold) Commit([]*tensor.Tensor) {}

type protocolStub struct {
	net   *simnet.Net
	srv   *fl.RoundServer
	strat *stubStrategy
	mux   *fl.ClientMux
	bytes int64 // fabric bytes written by stub rounds
	sent  int   // client sessions served
}

const stubServerAddr = "server"

func (p *prober) newProtocolStub(ds *dataset.Dataset) (*protocolStub, error) {
	st := &protocolStub{net: simnet.New(p.cfg.Seed, p.plan), strat: &stubStrategy{}}
	ln, err := st.net.Listen(stubServerAddr)
	if err != nil {
		return nil, err
	}
	st.srv = fl.NewRoundServerOn(ln)
	st.srv.Clock = st.net.Clock()
	st.srv.Codec = p.cfg.Codec
	st.mux = &fl.ClientMux{Spec: p.mspec, Data: ds, Strat: st.strat, Seed: p.cfg.Seed,
		Opt: fl.ClientOptions{Codec: p.cfg.Codec}, Workers: p.cfg.MuxWorkers}
	return st, nil
}

func (st *protocolStub) round(r int, params []*tensor.Tensor, rcfg fl.RoundConfig, ids []int, updates map[int][]*tensor.Tensor) error {
	st.net.SetRound(r)
	st.strat.updates = updates
	tasks := make([]fl.MuxTask, len(ids))
	for i, id := range ids {
		tasks[i] = fl.MuxTask{ClientID: id, Addr: stubServerAddr, Dial: st.net.Dialer(fmt.Sprintf("c%d", id))}
	}
	before := st.net.BytesWritten()
	srvErr := make(chan error, 1)
	go func() {
		// The deadline is virtual and unreachable, as in core.RunSimnet.
		res, err := st.srv.StreamRound(r, tensor.CloneAll(params), rcfg, &countFold{}, fl.RoundOptions{Clients: len(tasks), Deadline: time.Hour})
		if err == nil && res.Folded != len(tasks) {
			err = fmt.Errorf("protocol stub: folded %d of %d sessions", res.Folded, len(tasks))
		}
		srvErr <- err
	}()
	results := st.mux.RunRound(tasks)
	if err := <-srvErr; err != nil {
		return err
	}
	for _, res := range results {
		if res.Err != nil {
			return fmt.Errorf("protocol stub: client %d: %w", res.ClientID, res.Err)
		}
	}
	st.bytes += st.net.BytesWritten() - before
	st.sent += len(tasks)
	return nil
}

// ---------------------------------------------------------------------------
// Micro probes: one public call repeated, one span per batch of repeats.

// repeat times fn reps times under one span covering `units` operations in
// total.
func (p *prober) repeat(name string, reps, units int, fn func()) {
	s := p.tr.start(name, 0, p.w.Name)
	for i := 0; i < reps; i++ {
		fn()
	}
	s.done(units)
}

func (p *prober) probeConfigLoad(doc []byte) error {
	var err error
	p.repeat("config.load", 200, 200, func() {
		exp, perr := config.Parse(doc)
		if perr == nil {
			perr = exp.Validate()
		}
		if perr != nil {
			err = perr
			return
		}
		_ = exp.CoreConfig()
	})
	return err
}

func (p *prober) probeDatasetBuild() {
	for i := 0; i < 5; i++ {
		p.repeat("dataset.build", 1, 1, func() { p.newDataset() })
	}
}

func (p *prober) probePlan() error {
	if p.plan == nil && !p.w.Exp.Runtime.Simnet {
		return nil // core.Run binds no plan for an empty spec
	}
	spec := planSpec(p.cfg)
	var err error
	for i := 0; i < 5 && err == nil; i++ {
		p.repeat("simnet.plan_bind", 1, 1, func() {
			plan, perr := simnet.ParsePlan(spec)
			if perr == nil {
				_, perr = plan.Bind(p.cfg.Seed, p.cfg.Rounds, p.cfg.K)
			}
			err = perr
		})
	}
	if err != nil || p.plan == nil || !p.plan.PopulationDynamic() {
		return err
	}
	rounds := min(p.cfg.Rounds, 5)
	p.repeat("simnet.plan.client_active", 1, rounds*p.cfg.K, func() {
		for r := 0; r < rounds; r++ {
			for id := 0; id < p.cfg.K; id++ {
				p.plan.ClientActive(r, id)
			}
		}
	})
	return nil
}

// gemmShape is one GEMM the model's heaviest layer runs: C[m×n] from a
// reduction of length k, in one of the three transpose variants.
type gemmShape struct {
	variant string // "nn" = MatMul, "nt" = MatMulT, "tn" = MatMulTN
	m, n, k int
}

func (g gemmShape) flops() float64 { return 2 * float64(g.m) * float64(g.n) * float64(g.k) }

// gemmPlan returns the three GEMM shapes of the model's heaviest layer at the
// workload's batch size, and the GEMM flops one training example costs across
// the whole model: forward, input gradient and weight gradient per layer,
// plus the per-example weight-gradient recovery a conv layer repeats.
func gemmPlan(spec nn.Spec, batch int) (shapes []gemmShape, flopsPerExample float64) {
	var heaviest float64
	for _, l := range spec.Layers {
		switch l.Kind {
		case "dense":
			f := 2 * float64(l.In) * float64(l.Out)
			flopsPerExample += 3 * f
			if f*float64(batch) > heaviest {
				heaviest = f * float64(batch)
				shapes = []gemmShape{{"nt", batch, l.Out, l.In}, {"nn", batch, l.In, l.Out}, {"tn", l.Out, l.In, batch}}
			}
		case "conv2d":
			ckk := l.InC * l.K * l.K
			pos := ((l.InH+2*l.Pad-l.K)/l.Stride + 1) * ((l.InW+2*l.Pad-l.K)/l.Stride + 1)
			f := 2 * float64(l.OutC) * float64(ckk) * float64(pos)
			flopsPerExample += 4 * f
			if f > heaviest {
				heaviest = f
				shapes = []gemmShape{{"nn", l.OutC, pos, ckk}, {"tn", ckk, pos, l.OutC}, {"nt", l.OutC, ckk, pos}}
			}
		}
	}
	return shapes, flopsPerExample
}

func randomMatrix(rng *tensor.RNG, rows, cols int) *tensor.Tensor {
	t := tensor.New(rows, cols)
	rng.FillNormal(t, 0, 1)
	return t
}

// probeGEMM returns the flops it ran, to weight the GFLOPS by.
func (p *prober) probeGEMM() float64 {
	shapes, _ := gemmPlan(p.mspec, p.rcfg.BatchSize)
	rng := tensor.NewRNG(p.cfg.Seed)
	var flops float64
	for _, g := range shapes {
		reps := int(math.Max(10, math.Min(20000, 1e8/g.flops())))
		dst := tensor.New(g.m, g.n)
		var run func()
		switch g.variant {
		case "nn":
			a, b := randomMatrix(rng, g.m, g.k), randomMatrix(rng, g.k, g.n)
			run = func() { tensor.MatMul(dst, a, b) }
		case "nt":
			a, b := randomMatrix(rng, g.m, g.k), randomMatrix(rng, g.n, g.k)
			run = func() { tensor.MatMulT(dst, a, b) }
		case "tn":
			a, b := randomMatrix(rng, g.k, g.m), randomMatrix(rng, g.k, g.n)
			run = func() { tensor.MatMulTN(dst, a, b) }
		}
		p.repeat("tensor.gemm", reps, reps, run)
		flops += float64(reps) * g.flops()
	}
	return flops
}

func (p *prober) probeIm2Col() {
	for _, l := range p.mspec.Layers {
		if l.Kind != "conv2d" {
			continue
		}
		x := tensor.New(l.InC * l.InH * l.InW)
		tensor.NewRNG(p.cfg.Seed).FillNormal(x, 0, 1)
		dst := tensor.Im2Col(nil, x, l.InC, l.InH, l.InW, l.K, l.Stride, l.Pad)
		p.repeat("tensor.im2col", 5000, 5000, func() { tensor.Im2Col(dst, x, l.InC, l.InH, l.InW, l.K, l.Stride, l.Pad) })
		return // conv-1 only
	}
}

func (p *prober) probeGauss(nParams int) {
	buf := make([]float64, nParams)
	noise := tensor.NewCounterRNG(p.cfg.Seed, 99)
	reps := max(10, 4_000_000/nParams)
	p.repeat("tensor.gauss", reps, reps*nParams, func() { noise.ScaleAddNormalBulk(buf, 0, 0.5, 1) })
}

// probeSimnetLayers runs the probes of the layers only a simnet deployment
// uses, on the updates of the last probe round.
func (p *prober) probeSimnetLayers(e *roundEnv, nParams int) error {
	if len(e.served) == 0 {
		return fmt.Errorf("the last probe round folded no update to measure the wire with")
	}
	if err := p.probeWire(e.updates[e.served[0]], nParams); err != nil {
		return err
	}
	if err := p.probeFabric(nParams); err != nil {
		return err
	}
	if p.cfg.Shards > 1 {
		return p.probePartialWire(e.global.Params(), e.updates)
	}
	return nil
}

// probeWire times the public shape conversions at both ends of the wire and
// the int8 quantizer, on a real update.
func (p *prober) probeWire(update []*tensor.Tensor, nParams int) error {
	reps := max(10, 4_000_000/nParams)
	var dense []fl.TensorWire
	var sparse []fl.SparseTensorWire
	p.repeat("fl.wire.encode_shape", reps, reps*nParams, func() { dense, sparse = fl.EncodeUpdate(update) })
	msg := &fl.UpdateMsg{Weight: 1, Delta: dense, Sparse: sparse}
	var err error
	p.repeat("fl.wire.decode_shape", reps, reps*nParams, func() {
		if _, derr := msg.DecodeTensors(); derr != nil {
			err = derr
		}
	})
	st := &fl.QuantState{}
	p.repeat("fl.wire.quantize8", reps, reps*nParams, func() { fl.QuantizeUpdate(update, 8, st) })
	return err
}

// probeFabric moves model-sized messages through a raw listener/dialer pair
// under the workload's own plan (its latency and jitter run on virtual time).
func (p *prober) probeFabric(nParams int) error {
	n := simnet.New(p.cfg.Seed, p.plan)
	ln, err := n.Listen("sink")
	if err != nil {
		return err
	}
	defer ln.Close()
	out, err := n.Dialer("source")("sink")
	if err != nil {
		return err
	}
	defer out.Close()
	in, err := ln.Accept()
	if err != nil {
		return err
	}
	defer in.Close()
	msg := make([]byte, nParams*8)
	reps := max(10, 32<<20/len(msg))
	var ioErr error
	p.repeat("simnet.fabric", reps, reps*len(msg), func() {
		if _, werr := out.Write(msg); werr != nil {
			ioErr = werr
			return
		}
		if _, rerr := io.ReadFull(in, msg); rerr != nil {
			ioErr = rerr
		}
	})
	return ioErr
}

// probePartialWire folds one shard's share of a cohort into an edge
// aggregator and times the partial's trip to the root: TakePartial → Wire →
// PartialFromWire.
func (p *prober) probePartialWire(params []*tensor.Tensor, updates map[int][]*tensor.Tensor) error {
	perShard := max(1, p.cfg.Kt/p.cfg.Shards)
	edge, err := fl.NewExact(p.cfg.Aggregation)
	if err != nil {
		return err
	}
	for rep := 0; rep < 8; rep++ {
		edge.Begin(params)
		n := 0
		for id, u := range updates {
			if n == perShard {
				break
			}
			edge.FoldClient(id, u, 1)
			n++
		}
		s := p.tr.start("fl.partial.wire", 0, p.w.Name)
		_, err := fl.PartialFromWire(edge.TakePartial().Wire())
		s.done(1)
		if err != nil {
			return err
		}
	}
	return nil
}
