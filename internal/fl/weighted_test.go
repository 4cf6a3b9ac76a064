package fl

import (
	"math"
	"sync"
	"testing"
	"time"

	"fedcdp/internal/dataset"
	"fedcdp/internal/nn"
	"fedcdp/internal/tensor"
)

// idStrategy returns an update that encodes the client id, so aggregation
// tests can tell exactly which clients were folded and at what weight.
type idStrategy struct{}

func (idStrategy) Name() string { return "id" }

func (idStrategy) ClientUpdate(env *ClientEnv) ([]*tensor.Tensor, ClientStats) {
	delta := tensor.ZerosLike(env.Model.Params())
	for _, d := range delta {
		d.Fill(float64(env.ClientID))
	}
	return delta, ClientStats{Iters: 1, Duration: time.Millisecond}
}

func TestWeightedFedAvgMatchesOracle(t *testing.T) {
	rng := tensor.NewRNG(3)
	params := []*tensor.Tensor{tensor.New(4, 3), tensor.New(5)}
	for _, p := range params {
		rng.FillNormal(p, 0, 1)
	}
	base := tensor.CloneAll(params)

	updates := make([][]*tensor.Tensor, 4)
	weights := []float64{100, 40, 7, 253}
	for k := range updates {
		updates[k] = tensor.ZerosLike(params)
		for _, u := range updates[k] {
			rng.FillNormal(u, 0, 1)
		}
	}

	agg := NewWeightedFedAvg()
	agg.Begin(params)
	for k, u := range updates {
		agg.FoldWeighted(u, weights[k])
	}
	if agg.Count() != len(updates) {
		t.Fatalf("count %d, want %d", agg.Count(), len(updates))
	}
	agg.Commit(params)

	// Sequential oracle: W ← Σ n_k·(W + ΔW_k) / Σ n_k.
	var wsum float64
	for _, w := range weights {
		wsum += w
	}
	oracle := tensor.ZerosLike(base)
	for k, u := range updates {
		tensor.AddAllScaled(oracle, weights[k]/wsum, base)
		tensor.AddAllScaled(oracle, weights[k]/wsum, u)
	}
	for i := range params {
		if !params[i].Equal(oracle[i], 1e-12) {
			t.Fatal("weighted commit diverged from the Σ n_k(W+ΔW_k)/Σn_k oracle")
		}
	}
}

func TestWeightedFedAvgUnitWeightsMatchFedAvgExactly(t *testing.T) {
	rng := tensor.NewRNG(5)
	pw := []*tensor.Tensor{tensor.New(6)}
	rng.FillNormal(pw[0], 0, 1)
	pa := tensor.CloneAll(pw)
	updates := make([][]*tensor.Tensor, 3)
	for k := range updates {
		updates[k] = []*tensor.Tensor{tensor.New(6)}
		rng.FillNormal(updates[k][0], 0, 1)
	}

	w := NewWeightedFedAvg()
	w.Begin(pw)
	a := NewFedAvg()
	a.Begin(pa)
	for k, u := range updates {
		w.Fold(u) // weight 1
		// FedAvg is the same fold with weights ignored: the runtimes hand it
		// each client's example count and it must not listen.
		foldInto(a, u, float64(10+k))
	}
	w.Commit(pw)
	a.Commit(pa)
	if !pw[0].Equal(pa[0], 0) {
		t.Fatal("unit-weight weighted FedAvg must be bit-identical to FedAvg")
	}
}

func TestWeightedFoldClampsBadWeights(t *testing.T) {
	// Weight 0 (legacy client), NaN and +Inf (malformed/hostile wire
	// message) must all fold as weight 1 instead of poisoning the commit.
	for _, bad := range []float64{0, -3, math.NaN(), math.Inf(1)} {
		params := []*tensor.Tensor{tensor.FromSlice([]float64{0}, 1)}
		agg := NewWeightedFedAvg()
		agg.Begin(params)
		agg.FoldWeighted([]*tensor.Tensor{tensor.FromSlice([]float64{2}, 1)}, bad)
		agg.FoldWeighted([]*tensor.Tensor{tensor.FromSlice([]float64{4}, 1)}, 1)
		agg.Commit(params)
		if got := params[0].Data()[0]; got != 3 {
			t.Fatalf("weight %v: commit = %v, want mean 3", bad, got)
		}
	}
	// A huge finite weight is capped at maxFoldWeight rather than allowed
	// to overflow the running sum or dominate the aggregate outright.
	for _, huge := range []float64{1e12, 1e308} {
		params := []*tensor.Tensor{tensor.FromSlice([]float64{0}, 1)}
		agg := NewWeightedFedAvg()
		agg.Begin(params)
		agg.FoldWeighted([]*tensor.Tensor{tensor.FromSlice([]float64{2}, 1)}, huge)
		agg.FoldWeighted([]*tensor.Tensor{tensor.FromSlice([]float64{4}, 1)}, 1)
		agg.Commit(params)
		got := params[0].Data()[0]
		want := (maxFoldWeight*2 + 4) / (maxFoldWeight + 1)
		if math.Abs(got-want) > 1e-9 || math.IsNaN(got) || math.IsInf(got, 0) {
			t.Fatalf("weight %v: commit = %v, want capped mean %v", huge, got, want)
		}
	}
}

// weightedConfig is a small run over a quantity-skewed partition — the
// scenario weighted FedAvg exists for — with the id strategy, so the
// committed model is a pure function of (cohort, weights).
func weightedConfig(t *testing.T) Config {
	t.Helper()
	spec, err := dataset.Get("cancer")
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Data:        dataset.NewPartitioned(spec, 42, dataset.QuantitySkew{}),
		Model:       spec.ModelSpec(),
		K:           12,
		Kt:          6,
		Rounds:      2,
		Round:       RoundConfig{BatchSize: 4, LocalIters: 2, LR: 0.1},
		Strategy:    idStrategy{},
		Aggregation: AggWeighted,
		Seed:        42,
		ValExamples: 20,
	}
}

func TestWeightedRunMatchesSequentialOracle(t *testing.T) {
	cfg := weightedConfig(t)
	cfg.Rounds = 1
	hist, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Oracle: replay round 0 by hand from the same cohort and weights.
	params := nn.Build(cfg.Model, tensor.Split(cfg.Seed, 1)).Params()
	cohort := sampleCohort(cfg, 0)
	var wsum float64
	weights := make([]float64, len(cohort))
	for i, id := range cohort {
		weights[i] = float64(cfg.Data.Client(id).Len())
		wsum += weights[i]
	}
	oracle := tensor.ZerosLike(params)
	for i, id := range cohort {
		upd := tensor.ZerosLike(params)
		for _, u := range upd {
			u.Fill(float64(id))
		}
		tensor.AddAllScaled(oracle, weights[i]/wsum, params)
		tensor.AddAllScaled(oracle, weights[i]/wsum, upd)
	}
	got := hist.Final.Params()
	for i := range got {
		if !got[i].Equal(oracle[i], 1e-12) {
			t.Fatal("streaming weighted round diverged from the cohort-order oracle")
		}
	}
}

func TestWeightedStreamingMatchesBarrier(t *testing.T) {
	hs, err := Run(weightedConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	hb, err := RunBarrier(weightedConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	ps, pb := hs.Final.Params(), hb.Final.Params()
	for i := range ps {
		if !ps[i].Equal(pb[i], 0) {
			t.Fatal("weighted streaming fold must be bit-identical to the barrier oracle")
		}
	}
}

func TestWeightedAggregationValidates(t *testing.T) {
	cfg := weightedConfig(t)
	cfg.Aggregation = "harmonic"
	if _, err := Run(cfg); err == nil {
		t.Fatal("expected validation error for unknown aggregation")
	}
}

func TestScenarioConfigValidates(t *testing.T) {
	cfg := weightedConfig(t)
	cfg.Round.Scenario = dataset.Scenario{Name: "zipf"}
	if _, err := Run(cfg); err == nil {
		t.Fatal("expected validation error for unknown published scenario")
	}
}

// lenStrategy returns an update that encodes the size of the client's
// local shard — the observable a published scenario changes.
type lenStrategy struct{}

func (lenStrategy) Name() string { return "len" }

func (lenStrategy) ClientUpdate(env *ClientEnv) ([]*tensor.Tensor, ClientStats) {
	delta := tensor.ZerosLike(env.Model.Params())
	for _, d := range delta {
		d.Fill(float64(env.Data.Len()))
	}
	return delta, ClientStats{Iters: 1}
}

// TestPublishedScenarioRepartitionsRemoteClient pins the pub-sub contract:
// the server announces the heterogeneity scenario in its RoundConfig and a
// connecting client repartitions its local dataset view before training.
func TestPublishedScenarioRepartitionsRemoteClient(t *testing.T) {
	spec, err := dataset.Get("cancer")
	if err != nil {
		t.Fatal(err)
	}
	iid := dataset.New(spec, 42) // the client's own (default) partition
	wantN := dataset.NewPartitioned(spec, 42, dataset.QuantitySkew{}).Client(0).Len()
	if wantN == iid.Client(0).Len() {
		t.Fatalf("test setup: quantity shard must differ from iid, both %d", wantN)
	}

	model := nn.Build(spec.ModelSpec(), tensor.NewRNG(7))
	cfg := RoundConfig{
		BatchSize: 4, LocalIters: 1, LR: 0.1, TotalRounds: 1,
		Scenario: dataset.Scenario{Name: dataset.ScenarioQuantity},
	}
	srv, err := NewRoundServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := runClient(srv.Addr(), 0, lenStrategy{}, iid.Client(0), spec.ModelSpec(), 42, ClientOptions{}); err != nil {
			t.Error(err)
		}
	}()
	agg := newCollect()
	_, err = srv.StreamRound(0, model.Params(), cfg, agg, RoundOptions{Clients: 1})
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	ups := agg.Updates()
	if len(ups) != 1 {
		t.Fatalf("folded %d updates", len(ups))
	}
	if got := ups[0][0].Data()[0]; got != float64(wantN) {
		t.Fatalf("client trained on a shard of %v examples, want the published scenario's %d", got, wantN)
	}
}

// TestWeightOverTCP pins the wire contract: remote clients report their
// local example count on the update message and a weight-aware server
// aggregator folds with it.
func TestWeightOverTCP(t *testing.T) {
	spec, err := dataset.Get("cancer")
	if err != nil {
		t.Fatal(err)
	}
	// Quantity skew gives the two clients different local sizes.
	ds := dataset.NewPartitioned(spec, 42, dataset.QuantitySkew{})
	n0 := float64(ds.Client(0).Len())
	n1 := float64(ds.Client(1).Len())
	if n0 == n1 {
		t.Fatalf("test setup: clients must have distinct sizes, both %v", n0)
	}

	model := nn.Build(spec.ModelSpec(), tensor.NewRNG(7))
	before := tensor.CloneAll(model.Params())
	cfg := RoundConfig{BatchSize: 4, LocalIters: 1, LR: 0.1, TotalRounds: 1}

	srv, err := NewRoundServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			if err := runClient(srv.Addr(), id, idStrategy{}, ds.Client(id), spec.ModelSpec(), 42, ClientOptions{}); err != nil {
				t.Error(err)
			}
		}(i)
	}
	res, err := srv.StreamRound(0, model.Params(), cfg, NewWeightedFedAvg(), RoundOptions{Clients: 2})
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res.Folded != 2 || !res.Committed {
		t.Fatalf("round result %+v", res)
	}
	// W' = (n0·(W+0) + n1·(W+1)) / (n0+n1) = W + n1/(n0+n1).
	shift := n1 / (n0 + n1)
	for i, p := range model.Params() {
		want := before[i].Clone()
		for j, v := range want.Data() {
			want.Data()[j] = v + shift
		}
		if !p.Equal(want, 1e-9) {
			t.Fatalf("weighted TCP fold off: param %d", i)
		}
	}
}
