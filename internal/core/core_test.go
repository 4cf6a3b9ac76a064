package core

import (
	"math"
	"testing"

	"fedcdp/internal/dataset"
	"fedcdp/internal/dp"
	"fedcdp/internal/fl"
	"fedcdp/internal/nn"
	"fedcdp/internal/tensor"
)

// testEnv builds a small ClientEnv on the cancer benchmark.
func testEnv(t *testing.T, seed int64) *fl.ClientEnv {
	t.Helper()
	spec, err := dataset.Get("cancer")
	if err != nil {
		t.Fatal(err)
	}
	ds := dataset.New(spec, seed)
	m := nn.Build(spec.ModelSpec(), tensor.Split(seed, 1))
	noise := fl.ClientNoise(seed, 0, 0)
	return &fl.ClientEnv{
		ClientID: 0,
		Round:    0,
		Model:    m,
		Data:     ds.Client(0),
		RNG:      tensor.Split(seed, 4, 0, 0),
		Cfg:      fl.RoundConfig{BatchSize: 4, LocalIters: 3, LR: 0.1, TotalRounds: 10},
		Noise:    &noise,
	}
}

func TestStrategyNames(t *testing.T) {
	cases := map[string]fl.Strategy{
		"non-private":      NonPrivate{},
		"fed-sdp":          FedSDP{C: 4, Sigma: 6},
		"fed-sdp(server)":  FedSDP{C: 4, Sigma: 6, AtServer: true},
		"fed-cdp":          NewFedCDP(4, 6),
		"fed-cdp(decay)":   NewFedCDPDecay(6, 2, 6),
		"dssgd":            DSSGD{ShareFraction: 0.1},
		"dssgd+compress":   Compressed{Inner: DSSGD{ShareFraction: 0.1}, PruneRatio: 0.3},
		"fed-cdp+compress": Compressed{Inner: NewFedCDP(4, 6), PruneRatio: 0.3},
	}
	for want, s := range cases {
		if got := s.Name(); got != want {
			t.Errorf("Name = %q, want %q", got, want)
		}
	}
}

func TestNonPrivateProducesUpdate(t *testing.T) {
	env := testEnv(t, 1)
	delta, stats := NonPrivate{}.ClientUpdate(env)
	if tensor.GroupL2Norm(delta) == 0 {
		t.Fatal("non-private update must be non-zero")
	}
	if stats.Iters != 3 {
		t.Fatalf("stats.Iters = %d, want 3", stats.Iters)
	}
	if stats.MeanGradNorm <= 0 {
		t.Fatal("stats must record gradient norms")
	}
}

func TestFedCDPNoiseChangesUpdate(t *testing.T) {
	// Same seed, non-private vs Fed-CDP must differ (noise applied).
	d1, _ := NonPrivate{}.ClientUpdate(testEnv(t, 2))
	d2, _ := NewFedCDP(4, 6).ClientUpdate(testEnv(t, 2))
	same := true
	for i := range d1 {
		if !d1[i].Equal(d2[i], 1e-9) {
			same = false
		}
	}
	if same {
		t.Fatal("Fed-CDP update identical to non-private — no sanitization applied")
	}
}

func TestFedCDPZeroNoiseStillClips(t *testing.T) {
	// With σ=0 and a tiny clipping bound, the Fed-CDP update must be much
	// smaller than the non-private one.
	dNP, _ := NonPrivate{}.ClientUpdate(testEnv(t, 3))
	dCDP, _ := FedCDP{Clip: dp.FixedClip{C: 1e-6}, Sigma: 0}.ClientUpdate(testEnv(t, 3))
	if tensor.GroupL2Norm(dCDP) > 1e-3*tensor.GroupL2Norm(dNP) {
		t.Fatalf("clipping had no effect: %v vs %v", tensor.GroupL2Norm(dCDP), tensor.GroupL2Norm(dNP))
	}
}

func TestFedCDPDeterministicPerSeed(t *testing.T) {
	d1, _ := NewFedCDP(4, 6).ClientUpdate(testEnv(t, 4))
	d2, _ := NewFedCDP(4, 6).ClientUpdate(testEnv(t, 4))
	for i := range d1 {
		if !d1[i].Equal(d2[i], 0) {
			t.Fatal("Fed-CDP must be deterministic for a fixed env seed")
		}
	}
}

func TestFedCDPDecayUsesSchedule(t *testing.T) {
	// At round 0 of 10 with schedule 6→2, bound is 6; at the last round it
	// is 2. Verify via σ=0 clipping on a synthetic large-gradient env.
	s := NewFedCDPDecay(6, 2, 0)
	env0 := testEnv(t, 5)
	envLast := testEnv(t, 5)
	envLast.Round = 9
	d0, _ := s.ClientUpdate(env0)
	dLast, _ := s.ClientUpdate(envLast)
	// Not a strict guarantee for any data, but with equal seeds the only
	// difference is the clipping bound; the last-round update cannot exceed
	// the first-round one by the clip ratio argument.
	if tensor.GroupL2Norm(dLast) > tensor.GroupL2Norm(d0)*1.01 {
		t.Fatalf("decayed bound produced larger update: %v > %v",
			tensor.GroupL2Norm(dLast), tensor.GroupL2Norm(d0))
	}
}

func TestFedCDPFlatClipBehaviour(t *testing.T) {
	// Flat clipping with a tiny bound shrinks the whole-gradient norm; the
	// per-layer variant clips each layer independently.
	flat, _ := FedCDP{Clip: dp.FixedClip{C: 1e-6}, Sigma: 0, FlatClip: true}.ClientUpdate(testEnv(t, 25))
	layer, _ := FedCDP{Clip: dp.FixedClip{C: 1e-6}, Sigma: 0}.ClientUpdate(testEnv(t, 25))
	if tensor.GroupL2Norm(flat) > 1e-3 || tensor.GroupL2Norm(layer) > 1e-3 {
		t.Fatal("both clip variants must bound the update")
	}
}

func TestFedSDPClientSanitizesUpdate(t *testing.T) {
	// With σ=0 and a tiny C, the shared update must be clipped per layer.
	s := FedSDP{C: 0.001, Sigma: 0}
	delta, _ := s.ClientUpdate(testEnv(t, 6))
	for i, d := range delta {
		if d.L2Norm() > 0.001*(1+1e-9) {
			t.Fatalf("layer %d norm %v exceeds Fed-SDP clip", i, d.L2Norm())
		}
	}
}

func TestFedSDPServerLeavesClientUpdateRaw(t *testing.T) {
	sServer := FedSDP{C: 4, Sigma: 6, AtServer: true}
	np := NonPrivate{}
	d1, _ := sServer.ClientUpdate(testEnv(t, 7))
	d2, _ := np.ClientUpdate(testEnv(t, 7))
	for i := range d1 {
		if !d1[i].Equal(d2[i], 0) {
			t.Fatal("server-side Fed-SDP must not sanitize at the client")
		}
	}
	// But ServerSanitize perturbs.
	update := tensor.CloneAll(d1)
	sServer.ServerSanitize(0, 0, update, fl.ServerNoise(1, 0))
	changed := false
	for i := range d1 {
		if !update[i].Equal(d1[i], 1e-12) {
			changed = true
		}
	}
	if !changed {
		t.Fatal("ServerSanitize must modify updates")
	}
}

func TestFedSDPClientServerSanitizeNoop(t *testing.T) {
	s := FedSDP{C: 4, Sigma: 6} // client-side
	u := []*tensor.Tensor{tensor.FromSlice([]float64{1, 2}, 2)}
	s.ServerSanitize(0, 0, u, fl.ServerNoise(1, 0))
	if u[0].At(0) != 1 {
		t.Fatal("client-side Fed-SDP must not sanitize at the server")
	}
}

// fedsdp-server with method.compress is a reachable config: the wrapper
// must not hide the server-side clip and noise from the round's probe.
func TestCompressedFedSDPServerStillSanitizes(t *testing.T) {
	strat, err := Config{Method: MethodFedSDPSrv, Clip: 0.5, Sigma: 1, CompressRatio: 0.5}.Strategy()
	if err != nil {
		t.Fatal(err)
	}
	san, ok := strat.(fl.ServerSanitizer)
	if !ok {
		t.Fatalf("%s does not sanitize at the server", strat.Name())
	}
	u := []*tensor.Tensor{tensor.FromSlice([]float64{3, 4}, 2)}
	san.ServerSanitize(0, 0, u, fl.ServerNoise(1, 0))
	if u[0].At(0) == 3 && u[0].At(1) == 4 {
		t.Fatal("the wrapped strategy's server-side sanitization did not run")
	}
}

func TestDSSGDSharesFraction(t *testing.T) {
	s := DSSGD{ShareFraction: 0.1}
	delta, _ := s.ClientUpdate(testEnv(t, 8))
	var nonzero, total int
	for _, d := range delta {
		for _, v := range d.Data() {
			if v != 0 {
				nonzero++
			}
			total++
		}
	}
	frac := float64(nonzero) / float64(total)
	if frac > 0.12 {
		t.Fatalf("DSSGD shared %.3f of entries, want <= ~0.1", frac)
	}
	if nonzero == 0 {
		t.Fatal("DSSGD must share something")
	}
}

func TestCompressedWrapper(t *testing.T) {
	inner := NonPrivate{}
	c := Compressed{Inner: inner, PruneRatio: 0.9}
	dRaw, _ := inner.ClientUpdate(testEnv(t, 9))
	dCmp, _ := c.ClientUpdate(testEnv(t, 9))
	var rawNZ, cmpNZ int
	for i := range dRaw {
		for _, v := range dRaw[i].Data() {
			if v != 0 {
				rawNZ++
			}
		}
		for _, v := range dCmp[i].Data() {
			if v != 0 {
				cmpNZ++
			}
		}
	}
	if cmpNZ >= rawNZ {
		t.Fatalf("compression kept %d of %d entries", cmpNZ, rawNZ)
	}
}

func TestConfigStrategyResolution(t *testing.T) {
	for _, m := range Methods() {
		cfg := Config{Method: m, Clip: 4, Sigma: 6}
		if _, err := cfg.Strategy(); err != nil {
			t.Errorf("method %q: %v", m, err)
		}
	}
	if _, err := (Config{Method: "pate"}).Strategy(); err == nil {
		t.Fatal("expected error for unknown method")
	}
	// Empty method defaults to non-private.
	s, err := (Config{}).Strategy()
	if err != nil || s.Name() != "non-private" {
		t.Fatalf("empty method -> %v, %v", s, err)
	}
	// Compression wraps.
	s, err = (Config{Method: MethodFedCDP, CompressRatio: 0.3}).Strategy()
	if err != nil || s.Name() != "fed-cdp+compress" {
		t.Fatalf("compressed strategy = %v, %v", s, err)
	}
}

func TestRunUnknownDataset(t *testing.T) {
	if _, err := Run(Config{Dataset: "imagenet"}); err == nil {
		t.Fatal("expected error for unknown dataset")
	}
}

func TestRunEndToEndNonPrivate(t *testing.T) {
	res, err := Run(Config{
		Dataset: "cancer", Method: MethodNonPrivate,
		K: 8, Kt: 4, Rounds: 3, LocalIters: 10,
		ValExamples: 60, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) != 3 {
		t.Fatalf("rounds = %d, want 3", len(res.Rounds))
	}
	if acc, ok := res.FinalAccuracy(); !ok || acc < 0.5 {
		t.Fatalf("cancer non-private accuracy %v (ok=%v), want > 0.5 after 3 rounds", acc, ok)
	}
	if res.FinalEpsilon() != 0 {
		t.Fatal("non-private run must not report privacy spending")
	}
}

func TestRunEndToEndFedCDPAccounting(t *testing.T) {
	res, err := Run(Config{
		Dataset: "cancer", Method: MethodFedCDP,
		K: 8, Kt: 4, Rounds: 3, LocalIters: 5,
		ValExamples: 40, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	prev := 0.0
	for i, r := range res.Rounds {
		if r.Epsilon <= prev {
			t.Fatalf("round %d: ε %v not increasing from %v", i, r.Epsilon, prev)
		}
		prev = r.Epsilon
	}
}

func TestRunFedSDPEpsilonIndependentOfL(t *testing.T) {
	run := func(L int) float64 {
		res, err := Run(Config{
			Dataset: "cancer", Method: MethodFedSDP,
			K: 8, Kt: 4, Rounds: 2, LocalIters: L,
			ValExamples: 20, Seed: 1, EvalEvery: 10,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.FinalEpsilon()
	}
	if e1, e5 := run(1), run(5); e1 != e5 {
		t.Fatalf("Fed-SDP ε depends on L: %v vs %v", e1, e5)
	}
}

func TestRunFedCDPEpsilonGrowsWithL(t *testing.T) {
	run := func(L int) float64 {
		res, err := Run(Config{
			Dataset: "cancer", Method: MethodFedCDP,
			K: 8, Kt: 4, Rounds: 2, LocalIters: L,
			ValExamples: 20, Seed: 1, EvalEvery: 10,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.FinalEpsilon()
	}
	if e1, e5 := run(1), run(5); e5 <= e1 {
		t.Fatalf("Fed-CDP ε must grow with L: ε(1)=%v ε(5)=%v", e1, e5)
	}
}

func TestWithDefaults(t *testing.T) {
	spec, _ := dataset.Get("mnist")
	c := Config{Dataset: "mnist"}.withDefaults(spec)
	if c.K != 100 || c.Kt != 10 {
		t.Fatalf("defaults K=%d Kt=%d", c.K, c.Kt)
	}
	if c.Rounds != spec.Rounds || c.BatchSize != spec.BatchSize || c.LocalIters != spec.LocalIters {
		t.Fatal("defaults must inherit benchmark spec")
	}
	if c.Clip != 4 || c.Sigma != 6 || c.Delta != 1e-5 {
		t.Fatalf("privacy defaults C=%v σ=%v δ=%v", c.Clip, c.Sigma, c.Delta)
	}
	if c.DecayFrom != 6 || c.DecayTo != 2 {
		t.Fatal("decay defaults must be 6→2")
	}
}

// leakGrads returns n raw per-example gradients of the test client's model.
func leakGrads(t *testing.T, seed int64, n int) [][]*tensor.Tensor {
	t.Helper()
	env := testEnv(t, seed)
	out := make([][]*tensor.Tensor, n)
	for i := range out {
		x, y := env.Data.Get(i)
		_, out[i] = env.Model.ExampleGradient(x, y)
	}
	return out
}

func sameGrads(a, b []*tensor.Tensor, tol float64) bool {
	for i := range a {
		if !a[i].Equal(b[i], tol) {
			return false
		}
	}
	return true
}

func TestLeakPerExampleRawForNonCDP(t *testing.T) {
	want := leakGrads(t, 10, 1)[0]
	// Fed-SDP also leaks raw per-example gradients (the paper's key point).
	for _, cfg := range []Config{{Method: MethodNonPrivate}, {Method: MethodFedSDP, Clip: 4, Sigma: 6}, {Method: MethodFedSDPSrv}, {Method: MethodDSSGD}} {
		g, err := cfg.Leak(2, 0, leakGrads(t, 10, 1), tensor.NewRNG(1))
		if err != nil {
			t.Fatal(err)
		}
		if !sameGrads(g, want, 0) {
			t.Fatalf("type-2 leak under %s must be the raw per-example gradient", cfg.Method)
		}
	}
}

func TestLeakPerExampleSanitizedForCDP(t *testing.T) {
	raw := leakGrads(t, 11, 1)[0]
	got, err := Config{Method: MethodFedCDP, Clip: 4, Sigma: 6}.Leak(2, 0, leakGrads(t, 11, 1), tensor.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	if sameGrads(got, raw, 1e-9) {
		t.Fatal("type-2 leak under Fed-CDP must be sanitized")
	}
	// Decay variant also sanitizes, at the round's bound: zero noise leaves
	// exactly the clipped gradient, so the schedule position is observable.
	norm := func(round int) float64 {
		raw := leakGrads(t, 11, 1)
		tensor.ScaleAll(raw[0], 1e6) // every layer far above any bound
		g, err := Config{Method: MethodFedCDPDecay, Sigma: 1e-300, Rounds: 11}.Leak(2, round, raw, tensor.NewRNG(2))
		if err != nil {
			t.Fatal(err)
		}
		return g[0].L2Norm()
	}
	if first, mid := norm(0), norm(5); math.Abs(first-6) > 1e-6 || math.Abs(mid-4) > 1e-6 {
		t.Fatalf("Fed-CDP(decay) clips to %v at round 0 and %v at round 5 of 11, want 6 and 4", first, mid)
	}
}

func TestLeakPerExampleUnknownMethod(t *testing.T) {
	if _, err := (Config{Method: "bogus"}).Leak(2, 0, leakGrads(t, 12, 1), tensor.NewRNG(1)); err == nil {
		t.Fatal("expected error for unknown method")
	}
}

func TestLeakRoundUpdateViews(t *testing.T) {
	// Type-1 (client view) of server-side Fed-SDP is raw; type-0 (server
	// view) is sanitized. Client-side Fed-SDP is sanitized in both.
	view := func(method string, threat int) []*tensor.Tensor {
		u, err := Config{Method: method, Clip: 4, Sigma: 6}.Leak(threat, 0, leakGrads(t, 13, 3), tensor.NewRNG(1))
		if err != nil {
			t.Fatal(err)
		}
		return u
	}
	raw := view(MethodNonPrivate, 1)
	if !sameGrads(view(MethodFedSDPSrv, 1), raw, 0) {
		t.Fatal("type-1 view of server-side Fed-SDP must be raw")
	}
	if sameGrads(view(MethodFedSDPSrv, 0), raw, 1e-9) {
		t.Fatal("type-0 view of server-side Fed-SDP must be sanitized")
	}
	if sameGrads(view(MethodFedSDP, 1), raw, 1e-9) || !sameGrads(view(MethodFedSDP, 0), view(MethodFedSDP, 1), 0) {
		t.Fatal("client-side Fed-SDP must be sanitized the same in both views")
	}
	// The raw update is the batch mean of the per-example gradients.
	mean := tensor.ZerosLike(raw)
	for _, g := range leakGrads(t, 13, 3) {
		tensor.AddAllScaled(mean, 1.0/3, g)
	}
	if !sameGrads(raw, mean, 0) {
		t.Fatal("the non-private update must be the batch mean")
	}
}

func TestLeakRoundUpdateUnknownMethod(t *testing.T) {
	if _, err := (Config{Method: "bogus"}).Leak(1, 0, leakGrads(t, 14, 1), tensor.NewRNG(1)); err == nil {
		t.Fatal("expected error for unknown method")
	}
	if _, err := (Config{Method: MethodFedSDP}).Leak(3, 0, leakGrads(t, 14, 1), tensor.NewRNG(1)); err == nil {
		t.Fatal("expected error for threat type 3")
	}
}

func TestGradNormDecaysOverTraining(t *testing.T) {
	// Figure 3's qualitative shape: the mean per-example gradient norm
	// decreases as federated training progresses.
	res, err := Run(Config{
		Dataset: "cancer", Method: MethodNonPrivate,
		K: 8, Kt: 8, Rounds: 6, LocalIters: 10,
		ValExamples: 20, Seed: 3, EvalEvery: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	series := res.GradNormSeries()
	first, last := series[0], series[len(series)-1]
	if last >= first {
		t.Fatalf("gradient norm did not decay: %v -> %v", first, last)
	}
}

// An unset clip means the paper's C = 4 to the leak oracle, a set one itself.
func TestOrDefault(t *testing.T) {
	for clip, want := range map[float64]float64{0: 4, 2: 2} {
		raw := leakGrads(t, 16, 1)
		tensor.ScaleAll(raw[0], 1e6)
		g, err := Config{Method: MethodFedCDP, Clip: clip, Sigma: 1e-300}.Leak(2, 0, raw, tensor.NewRNG(1))
		if err != nil {
			t.Fatal(err)
		}
		if got := g[0].L2Norm(); math.Abs(got-want) > 1e-6 {
			t.Fatalf("Clip %v: the oracle clipped to %v, want %v", clip, got, want)
		}
	}
}

func TestFedCDPSmallerUpdateNormThanNonPrivate(t *testing.T) {
	// Sanity: with clipping at C=4 per example and noise averaged over the
	// batch, the Fed-CDP update is bounded; compare against a run with a
	// huge learning-rate-free bound.
	dNP, _ := NonPrivate{}.ClientUpdate(testEnv(t, 15))
	dCDP, _ := FedCDP{Clip: dp.FixedClip{C: 0.5}, Sigma: 0}.ClientUpdate(testEnv(t, 15))
	if math.IsNaN(tensor.GroupL2Norm(dCDP)) || math.IsNaN(tensor.GroupL2Norm(dNP)) {
		t.Fatal("NaN update norms")
	}
}
