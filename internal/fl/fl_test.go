package fl

import (
	"math"
	"testing"
	"time"

	"fedcdp/internal/dataset"
	"fedcdp/internal/nn"
	"fedcdp/internal/tensor"
)

// echoStrategy returns a constant update and records which clients ran.
type echoStrategy struct {
	value float64
}

func (echoStrategy) Name() string { return "echo" }

func (e echoStrategy) ClientUpdate(env *ClientEnv) ([]*tensor.Tensor, ClientStats) {
	delta := tensor.ZerosLike(env.Model.Params())
	for _, d := range delta {
		d.Fill(e.value)
	}
	return delta, ClientStats{Iters: env.Cfg.LocalIters, Duration: time.Millisecond}
}

// sgdStrategy is a minimal real local trainer used in integration tests.
type sgdStrategy struct{}

func (sgdStrategy) Name() string { return "sgd" }

func (sgdStrategy) ClientUpdate(env *ClientEnv) ([]*tensor.Tensor, ClientStats) {
	start := time.Now()
	global := tensor.CloneAll(env.Model.Params())
	var normSum float64
	var normN int
	for l := 0; l < env.Cfg.LocalIters; l++ {
		xs, ys := env.Data.Batch(l, env.Cfg.BatchSize)
		batch := tensor.ZerosLike(env.Model.Grads())
		for j, x := range xs {
			_, g := env.Model.ExampleGradient(x, ys[j])
			if l == 0 {
				normSum += tensor.GroupL2Norm(g)
				normN++
			}
			tensor.AddAllScaled(batch, 1/float64(len(xs)), g)
		}
		env.Model.SGDStep(env.Cfg.LR, batch)
	}
	st := ClientStats{Iters: env.Cfg.LocalIters, Duration: time.Since(start)}
	if normN > 0 {
		st.MeanGradNorm = normSum / float64(normN)
	}
	return Delta(env.Model.Params(), global), st
}

func smallConfig(t *testing.T, strat Strategy) Config {
	t.Helper()
	spec, err := dataset.Get("cancer")
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Data:   dataset.New(spec, 42),
		Model:  spec.ModelSpec(),
		K:      10,
		Kt:     4,
		Rounds: 3,
		Round: RoundConfig{
			BatchSize:  4,
			LocalIters: 5,
			LR:         0.1,
		},
		Strategy:    strat,
		Seed:        42,
		ValExamples: 50,
	}
}

func TestRunValidation(t *testing.T) {
	base := smallConfig(t, echoStrategy{})
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"nil data", func(c *Config) { c.Data = nil }},
		{"nil strategy", func(c *Config) { c.Strategy = nil }},
		{"Kt > K", func(c *Config) { c.Kt = c.K + 1 }},
		{"zero rounds", func(c *Config) { c.Rounds = 0 }},
		{"zero batch", func(c *Config) { c.Round.BatchSize = 0 }},
		{"zero lr", func(c *Config) { c.Round.LR = 0 }},
		{"nan lr", func(c *Config) { c.Round.LR = math.NaN() }},
	}
	for _, tc := range cases {
		cfg := base
		tc.mutate(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Errorf("%s: expected validation error", tc.name)
		}
	}
}

func TestRunProducesHistory(t *testing.T) {
	hist, err := Run(smallConfig(t, sgdStrategy{}))
	if err != nil {
		t.Fatal(err)
	}
	if len(hist.Rounds) != 3 {
		t.Fatalf("history has %d rounds, want 3", len(hist.Rounds))
	}
	for i, r := range hist.Rounds {
		if r.Round != i {
			t.Fatalf("round %d recorded as %d", i, r.Round)
		}
		if r.Clients != 4 {
			t.Fatalf("round %d had %d clients, want 4", i, r.Clients)
		}
		if !r.Evaluated {
			t.Fatalf("round %d not evaluated with EvalEvery=1", i)
		}
		if r.MeanGradNorm <= 0 {
			t.Fatalf("round %d grad norm %v, want > 0", i, r.MeanGradNorm)
		}
	}
	if hist.Final == nil {
		t.Fatal("history missing final model")
	}
}

func TestRunDeterministicAcrossParallelism(t *testing.T) {
	cfg1 := smallConfig(t, sgdStrategy{})
	cfg1.Parallelism = 1
	cfg2 := smallConfig(t, sgdStrategy{})
	cfg2.Parallelism = 8
	h1, err := Run(cfg1)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := Run(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	p1, p2 := h1.Final.Params(), h2.Final.Params()
	for i := range p1 {
		if !p1[i].Equal(p2[i], 1e-12) {
			t.Fatal("final model depends on parallelism — scheduling nondeterminism")
		}
	}
}

func TestFedSGDAggregationIsMean(t *testing.T) {
	// Two echo strategies would need distinct values per client; instead
	// verify directly.
	spec, _ := dataset.Get("cancer")
	m := nn.Build(spec.ModelSpec(), tensor.NewRNG(1))
	before := tensor.CloneAll(m.Params())
	u1 := tensor.ZerosLike(m.Params())
	u2 := tensor.ZerosLike(m.Params())
	for _, u := range u1 {
		u.Fill(2)
	}
	for _, u := range u2 {
		u.Fill(4)
	}
	AggregateFedSGD(m.Params(), [][]*tensor.Tensor{u1, u2})
	after := m.Params()
	for i := range after {
		diff := after[i].Clone()
		diff.Sub(before[i])
		for _, v := range diff.Data() {
			if v < 3-1e-12 || v > 3+1e-12 { // mean of 2 and 4
				t.Fatalf("aggregation is not the mean: delta %v", v)
			}
		}
	}
}

func TestApplyFedSGDNoUpdates(t *testing.T) {
	spec, _ := dataset.Get("cancer")
	m := nn.Build(spec.ModelSpec(), tensor.NewRNG(1))
	before := tensor.CloneAll(m.Params())
	AggregateFedSGD(m.Params(), nil)
	for i, p := range m.Params() {
		if !p.Equal(before[i], 0) {
			t.Fatal("empty aggregation must leave model unchanged")
		}
	}
}

func TestSampleCohortDistinctByDefault(t *testing.T) {
	cfg := smallConfig(t, echoStrategy{})
	cohort := sampleCohort(cfg, 0)
	if len(cohort) != cfg.Kt {
		t.Fatalf("cohort size %d, want %d", len(cohort), cfg.Kt)
	}
	seen := map[int]bool{}
	for _, id := range cohort {
		if seen[id] {
			t.Fatal("default sampling must be without replacement")
		}
		seen[id] = true
	}
}

func TestSampleCohortVariesByRound(t *testing.T) {
	cfg := smallConfig(t, echoStrategy{})
	cfg.K, cfg.Kt = 1000, 10
	a := sampleCohort(cfg, 0)
	b := sampleCohort(cfg, 1)
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("cohorts identical across rounds")
	}
}

func TestSampleCohortWithReplacement(t *testing.T) {
	cohort := SampleCohort(42, 0, 3, 10, true) // K=3, Kt=10 forces duplicates
	if len(cohort) != 10 {
		t.Fatalf("cohort size %d, want 10", len(cohort))
	}
}

func TestEvaluate(t *testing.T) {
	spec, _ := dataset.Get("cancer")
	m := nn.Build(spec.ModelSpec(), tensor.NewRNG(1))
	ds := dataset.New(spec, 1)
	xs, ys := ds.Validation(20)
	acc := Evaluate(m, xs, ys)
	if acc < 0 || acc > 1 {
		t.Fatalf("accuracy %v outside [0,1]", acc)
	}
	if got := Evaluate(m, nil, nil); got != 0 {
		t.Fatalf("empty evaluation = %v, want 0", got)
	}
}

func TestDelta(t *testing.T) {
	a := []*tensor.Tensor{tensor.FromSlice([]float64{3, 5}, 2)}
	b := []*tensor.Tensor{tensor.FromSlice([]float64{1, 2}, 2)}
	d := Delta(a, b)
	if d[0].At(0) != 2 || d[0].At(1) != 3 {
		t.Fatalf("Delta = %v", d[0].Data())
	}
	// Inputs must be untouched.
	if a[0].At(0) != 3 || b[0].At(0) != 1 {
		t.Fatal("Delta must not mutate inputs")
	}
}

func TestHistoryAccessors(t *testing.T) {
	h := &History{Rounds: []RoundStats{
		{Round: 0, Accuracy: 0.5, Evaluated: true, Clients: 1, MsPerIter: 2, Epsilon: 0.1},
		{Round: 1, Accuracy: 0.8, Evaluated: true, Clients: 1, MsPerIter: 4, Epsilon: 0.2},
		{Round: 2, Evaluated: false, Clients: 1, MsPerIter: 6, Epsilon: 0.3},
	}}
	if got, ok := h.FinalAccuracy(); !ok || got != 0.8 {
		t.Fatalf("FinalAccuracy = %v (ok=%v), want 0.8 (last evaluated)", got, ok)
	}
	if got, ok := h.BestAccuracy(); !ok || got != 0.8 {
		t.Fatalf("BestAccuracy = %v (ok=%v), want 0.8", got, ok)
	}
	if got, ok := h.MeanMsPerIter(); !ok || got != 4 {
		t.Fatalf("MeanMsPerIter = %v (ok=%v), want 4", got, ok)
	}
	if got := h.FinalEpsilon(); got != 0.3 {
		t.Fatalf("FinalEpsilon = %v, want 0.3", got)
	}
	// Sentinel-zero fix: a history that never evaluated (or never folded a
	// client) reports ok=false instead of a fabricated 0.0 — genuine 0%
	// accuracy and "never measured" used to be indistinguishable.
	empty := &History{}
	if _, ok := empty.FinalAccuracy(); ok {
		t.Fatal("empty FinalAccuracy must report ok=false")
	}
	if _, ok := empty.BestAccuracy(); ok {
		t.Fatal("empty BestAccuracy must report ok=false")
	}
	if _, ok := empty.MeanMsPerIter(); ok {
		t.Fatal("empty MeanMsPerIter must report ok=false")
	}
	if empty.FinalEpsilon() != 0 {
		t.Fatal("empty FinalEpsilon must return 0")
	}
	unevaluated := &History{Rounds: []RoundStats{{Round: 0, Accuracy: 0, Evaluated: false, Clients: 2, MsPerIter: 3}}}
	if _, ok := unevaluated.FinalAccuracy(); ok {
		t.Fatal("never-evaluated FinalAccuracy must report ok=false")
	}
	if got, ok := unevaluated.MeanMsPerIter(); !ok || got != 3 {
		t.Fatalf("MeanMsPerIter = %v (ok=%v), want 3 over the one participating round", got, ok)
	}
	// MeanMsPerIter skips rounds that folded nobody: averaging their zero
	// MsPerIter used to drag the reported cost toward 0 under faults.
	uncommitted := &History{Rounds: []RoundStats{
		{Round: 0, Clients: 2, MsPerIter: 6},
		{Round: 1, Clients: 0, MsPerIter: 0},
	}}
	if got, ok := uncommitted.MeanMsPerIter(); !ok || got != 6 {
		t.Fatalf("MeanMsPerIter = %v (ok=%v), want 6 (client-less rounds skipped)", got, ok)
	}
}

func TestClientStatsMsPerIter(t *testing.T) {
	s := ClientStats{Iters: 4, Duration: 8 * time.Millisecond}
	if got := s.MsPerIter(); got != 2 {
		t.Fatalf("MsPerIter = %v, want 2", got)
	}
	if got := (ClientStats{}).MsPerIter(); got != 0 {
		t.Fatalf("zero stats MsPerIter = %v, want 0", got)
	}
}

// sampleCohort is the round's cohort draw as Run makes it.
func sampleCohort(cfg Config, round int) []int {
	return ActiveCohort(cfg.Seed, round, PopulationOf(cfg.K, cfg.Plan), cfg.Kt, cfg.Sampler, false)
}
