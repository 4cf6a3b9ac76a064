package fl

import (
	"errors"
	"sync"
	"testing"
	"time"

	"fedcdp/internal/dataset"
	"fedcdp/internal/nn"
	"fedcdp/internal/tensor"
)

// fakeClock is an injectable Clock whose deadline channel fires only when
// the test says so, making straggler-cutoff paths deterministic.
type fakeClock struct{ ch chan time.Time }

func newFakeClock() *fakeClock { return &fakeClock{ch: make(chan time.Time, 1)} }

func (c *fakeClock) Now() time.Time                         { return time.Time{} }
func (c *fakeClock) After(d time.Duration) <-chan time.Time { return c.ch }
func (c *fakeClock) fire()                                  { c.ch <- time.Time{} }

// stallStrategy returns a constant update but blocks the designated
// client until released — a controllable straggler.
type stallStrategy struct {
	stallID int
	release chan struct{}
	value   float64
}

func (stallStrategy) Name() string { return "stall" }

func (s stallStrategy) ClientUpdate(env *ClientEnv) ([]*tensor.Tensor, ClientStats) {
	if env.ClientID == s.stallID {
		<-s.release
	}
	delta := tensor.ZerosLike(env.Model.Params())
	for _, d := range delta {
		d.Fill(s.value)
	}
	return delta, ClientStats{Iters: 1, Duration: time.Millisecond}
}

// TestStreamingMatchesBarrierExactly is the parity anchor of the
// streaming refactor: because client RNG derives from (seed, round,
// client) and folding commits in cohort order, the streaming round must
// reproduce the barrier oracle's history bit-for-bit on seeded runs —
// under parallelism and dropout.
func TestStreamingMatchesBarrierExactly(t *testing.T) {
	history := func(run func(Config) (*History, error)) *History {
		cfg := smallConfig(t, sgdStrategy{})
		cfg.Parallelism = 8
		cfg.DropoutRate = 0.25
		h, err := run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	hs, hb := history(Run), history(RunBarrier)
	if len(hs.Rounds) != len(hb.Rounds) {
		t.Fatalf("round counts differ: %d vs %d", len(hs.Rounds), len(hb.Rounds))
	}
	for i := range hs.Rounds {
		s, b := hs.Rounds[i], hb.Rounds[i]
		if s.Clients != b.Clients {
			t.Fatalf("round %d clients %d vs %d", i, s.Clients, b.Clients)
		}
		if s.Accuracy != b.Accuracy {
			t.Fatalf("round %d accuracy %v vs %v", i, s.Accuracy, b.Accuracy)
		}
		if s.MeanGradNorm != b.MeanGradNorm {
			t.Fatalf("round %d grad norm %v vs %v", i, s.MeanGradNorm, b.MeanGradNorm)
		}
		if !s.Committed || !b.Committed {
			t.Fatalf("round %d not committed without quorum", i)
		}
	}
	ps, pb := hs.Final.Params(), hb.Final.Params()
	for i := range ps {
		if !ps[i].Equal(pb[i], 0) {
			t.Fatalf("streaming and barrier params diverge at tensor %d", i)
		}
	}
}

// deadlineConfig builds a 4-client single-round run whose last cohort
// member stalls until released; the fake clock controls the cutoff.
func deadlineConfig(t *testing.T, value float64) (Config, *fakeClock, chan struct{}, chan int) {
	t.Helper()
	cfg := smallConfig(t, nil)
	cfg.K, cfg.Kt, cfg.Rounds = 4, 4, 1
	// Stall the LAST client in cohort order so the three fast folds
	// commit deterministically before the test fires the deadline.
	cohort := sampleCohort(cfg, 0)
	release := make(chan struct{})
	cfg.Strategy = stallStrategy{stallID: cohort[len(cohort)-1], release: release, value: value}
	cfg.RoundDeadline = time.Second // nominal; the fake clock decides
	clk := newFakeClock()
	cfg.Clock = clk
	folds := make(chan int, 4)
	cfg.foldHook = func(round, n int) { folds <- n }
	return cfg, clk, release, folds
}

func TestDeadlineDropsStraggler(t *testing.T) {
	cfg, clk, release, folds := deadlineConfig(t, 2)
	initial := nn.Build(cfg.Model, tensor.Split(cfg.Seed, 1)).Params()

	histCh := make(chan *History, 1)
	go func() {
		h, err := Run(cfg)
		if err != nil {
			t.Error(err)
		}
		histCh <- h
	}()
	for n := 1; n <= 3; n++ {
		if got := <-folds; got != n {
			t.Errorf("fold %d reported as %d", n, got)
		}
	}
	clk.fire()
	hist := <-histCh
	close(release) // free the straggler's worker
	if hist == nil {
		t.Fatal("run failed")
	}
	rs := hist.Rounds[0]
	if rs.Clients != 3 || rs.Dropped != 1 || !rs.Committed {
		t.Fatalf("round stats %+v: want 3 folded, 1 dropped, committed", rs)
	}
	// Exactly the three survivors' mean was applied: params moved by
	// (2+2+2)·(1/3) = 2 up to the rounding of (w + δ) − w.
	for i, p := range hist.Final.Params() {
		diff := p.Clone()
		diff.Sub(initial[i])
		for _, v := range diff.Data() {
			if v < 2-1e-9 || v > 2+1e-9 {
				t.Fatalf("param delta %v, want 2", v)
			}
		}
	}
}

func TestQuorumMissLeavesModelUnchanged(t *testing.T) {
	cfg, clk, release, folds := deadlineConfig(t, 5)
	cfg.MinQuorum = 4 // the straggler's miss must sink the whole round
	initial := nn.Build(cfg.Model, tensor.Split(cfg.Seed, 1)).Params()

	histCh := make(chan *History, 1)
	go func() {
		h, err := Run(cfg)
		if err != nil {
			t.Error(err)
		}
		histCh <- h
	}()
	for n := 1; n <= 3; n++ {
		<-folds
	}
	clk.fire()
	hist := <-histCh
	close(release)
	if hist == nil {
		t.Fatal("run failed")
	}
	rs := hist.Rounds[0]
	if rs.Clients != 3 || rs.Committed {
		t.Fatalf("round stats %+v: want 3 folded, uncommitted", rs)
	}
	for i, p := range hist.Final.Params() {
		if !p.Equal(initial[i], 0) {
			t.Fatal("below-quorum round must leave the model unchanged")
		}
	}
}

// TestQuorumAppliesToBarrierRuntime pins the shared quorum semantics on
// the oracle: with every client dropping, a positive quorum keeps the
// model frozen in both rounds, no clock needed.
func TestQuorumAppliesToBarrierRuntime(t *testing.T) {
	for runtime, run := range map[string]func(Config) (*History, error){"streaming": Run, "barrier": RunBarrier} {
		cfg := smallConfig(t, echoStrategy{value: 9})
		cfg.DropoutRate = 1
		cfg.MinQuorum = 2
		initial := nn.Build(cfg.Model, tensor.Split(cfg.Seed, 1)).Params()
		hist, err := run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range hist.Rounds {
			if r.Committed {
				t.Fatalf("%s: empty round reported committed", runtime)
			}
		}
		for i, p := range hist.Final.Params() {
			if !p.Equal(initial[i], 0) {
				t.Fatalf("%s: uncommitted rounds moved the model", runtime)
			}
		}
	}
}

func TestStreamingConfigValidation(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"negative quorum", func(c *Config) { c.MinQuorum = -1 }},
		{"quorum above Kt", func(c *Config) { c.MinQuorum = c.Kt + 1 }},
		{"negative deadline", func(c *Config) { c.RoundDeadline = -time.Second }},
	}
	for _, tc := range cases {
		cfg := smallConfig(t, echoStrategy{})
		tc.mutate(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Errorf("%s: expected validation error", tc.name)
		}
	}
}

// --- TCP streaming rounds ---

// signalAgg wraps an Aggregator to announce every fold, letting tests
// sequence deadline firing deterministically against remote deliveries.
type signalAgg struct {
	Aggregator
	ch chan struct{}
}

func (a signalAgg) Fold(u []*tensor.Tensor) {
	a.Aggregator.Fold(u)
	a.ch <- struct{}{}
}

func TestStreamRoundFoldsOverTCP(t *testing.T) {
	spec, err := dataset.Get("cancer")
	if err != nil {
		t.Fatal(err)
	}
	ds := dataset.New(spec, 42)
	model := nn.Build(spec.ModelSpec(), tensor.NewRNG(7))
	before := tensor.CloneAll(model.Params())
	cfg := RoundConfig{BatchSize: 4, LocalIters: 2, LR: 0.1, TotalRounds: 1}

	srv, err := NewRoundServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const kt = 3
	var wg sync.WaitGroup
	for i := 0; i < kt; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			if err := runClient(srv.Addr(), id, sgdStrategy{}, ds.Client(id), spec.ModelSpec(), 42, ClientOptions{}); err != nil {
				t.Error(err)
			}
		}(i)
	}
	res, err := srv.StreamRound(0, model.Params(), cfg, NewFedSGD(), RoundOptions{Clients: kt})
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res.Folded != kt || res.Failed != 0 || !res.Committed {
		t.Fatalf("round result %+v, want %d folded and committed", res, kt)
	}
	moved := false
	for i, p := range model.Params() {
		if !p.Equal(before[i], 0) {
			moved = true
		}
	}
	if !moved {
		t.Fatal("committed streaming round did not move the model")
	}
}

func TestStreamRoundDeadlineOverTCP(t *testing.T) {
	spec, _ := dataset.Get("cancer")
	ds := dataset.New(spec, 42)
	model := nn.Build(spec.ModelSpec(), tensor.NewRNG(7))
	cfg := RoundConfig{BatchSize: 4, LocalIters: 1, LR: 0.1, TotalRounds: 1}

	srv, err := NewRoundServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	clk := newFakeClock()
	srv.Clock = clk

	folded := make(chan struct{}, 2)
	agg := signalAgg{Aggregator: NewFedSGD(), ch: folded}
	type outcome struct {
		res RoundResult
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		// Expect 2 clients, only 1 shows up; quorum of 1 still commits.
		res, err := srv.StreamRound(0, model.Params(), cfg, agg, RoundOptions{
			Clients: 2, Deadline: time.Second, MinQuorum: 1,
		})
		done <- outcome{res, err}
	}()
	if err := runClient(srv.Addr(), 0, sgdStrategy{}, ds.Client(0), spec.ModelSpec(), 42, ClientOptions{}); err != nil {
		t.Fatal(err)
	}
	<-folded // the lone update is in the aggregator
	clk.fire()
	out := <-done
	if out.err != nil {
		t.Fatal(out.err)
	}
	if out.res.Folded != 1 || !out.res.Committed {
		t.Fatalf("round result %+v, want 1 folded, committed", out.res)
	}
}

func TestStreamRoundQuorumMissOverTCP(t *testing.T) {
	spec, _ := dataset.Get("cancer")
	ds := dataset.New(spec, 42)
	model := nn.Build(spec.ModelSpec(), tensor.NewRNG(7))
	before := tensor.CloneAll(model.Params())
	cfg := RoundConfig{BatchSize: 4, LocalIters: 1, LR: 0.1, TotalRounds: 1}

	srv, err := NewRoundServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	clk := newFakeClock()
	srv.Clock = clk

	folded := make(chan struct{}, 2)
	type outcome struct {
		res RoundResult
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := srv.StreamRound(0, model.Params(), cfg, signalAgg{Aggregator: NewFedSGD(), ch: folded}, RoundOptions{
			Clients: 3, Deadline: time.Second, MinQuorum: 2,
		})
		done <- outcome{res, err}
	}()
	if err := runClient(srv.Addr(), 0, sgdStrategy{}, ds.Client(0), spec.ModelSpec(), 42, ClientOptions{}); err != nil {
		t.Fatal(err)
	}
	<-folded
	clk.fire()
	out := <-done
	if out.err != nil {
		t.Fatal(out.err)
	}
	if out.res.Folded != 1 || out.res.Committed {
		t.Fatalf("round result %+v, want 1 folded, uncommitted", out.res)
	}
	for i, p := range model.Params() {
		if !p.Equal(before[i], 0) {
			t.Fatal("below-quorum round must not touch the global model")
		}
	}
}

// TestWaitingSessionDeniedOnClose pins the protocol-level "round over"
// answer: a session parked between rounds must receive an explicit
// refusal when the server shuts down, not a hang or a bare reset.
func TestWaitingSessionDeniedOnClose(t *testing.T) {
	spec, _ := dataset.Get("cancer")
	ds := dataset.New(spec, 1)
	srv, err := NewRoundServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// Run one round so the accept loop is live, with its own client.
	model := nn.Build(spec.ModelSpec(), tensor.NewRNG(3))
	cfg := RoundConfig{BatchSize: 4, LocalIters: 1, LR: 0.1}
	go func() {
		_ = runClient(srv.Addr(), 0, sgdStrategy{}, ds.Client(0), spec.ModelSpec(), 1, ClientOptions{})
	}()
	if _, err := runRound(srv, 0, model.Params(), cfg, 1); err != nil {
		t.Fatal(err)
	}

	// A late client connects after the final round: it parks.
	errCh := make(chan error, 1)
	go func() {
		errCh <- runClient(srv.Addr(), 1, sgdStrategy{}, ds.Client(1), spec.ModelSpec(), 1, ClientOptions{})
	}()
	deadline := time.Now().Add(5 * time.Second)
	for srv.waitingSessions() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("late session never parked")
		}
		time.Sleep(time.Millisecond)
	}
	srv.Close()
	if err := <-errCh; !errors.Is(err, ErrRoundClosed) {
		t.Fatalf("late session got %v, want ErrRoundClosed", err)
	}
}

// TestExtraSessionsWaitForNextRound: connections beyond the round quota
// are not refused — they park and are served by the following round.
func TestExtraSessionsWaitForNextRound(t *testing.T) {
	spec, _ := dataset.Get("cancer")
	ds := dataset.New(spec, 5)
	model := nn.Build(spec.ModelSpec(), tensor.NewRNG(4))
	cfg := RoundConfig{BatchSize: 4, LocalIters: 1, LR: 0.1}
	srv, err := NewRoundServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func(id int) {
			errs <- runClient(srv.Addr(), id, sgdStrategy{}, ds.Client(id), spec.ModelSpec(), 5, ClientOptions{})
		}(i)
	}
	for round := 0; round < 2; round++ {
		res, err := srv.StreamRound(round, model.Params(), cfg, NewFedSGD(), RoundOptions{Clients: 1})
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if res.Folded != 1 {
			t.Fatalf("round %d folded %d, want 1", round, res.Folded)
		}
	}
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("client: %v", err)
		}
	}
}

// sparseEchoStrategy shares exactly one nonzero coordinate per tensor,
// exercising the sparse wire path end to end.
type sparseEchoStrategy struct{ value float64 }

func (sparseEchoStrategy) Name() string { return "sparse-echo" }

func (s sparseEchoStrategy) ClientUpdate(env *ClientEnv) ([]*tensor.Tensor, ClientStats) {
	delta := tensor.ZerosLike(env.Model.Params())
	for _, d := range delta {
		d.Data()[d.Len()-1] = s.value
	}
	return delta, ClientStats{Iters: 1}
}

func TestSparseUpdateOverTCP(t *testing.T) {
	spec, _ := dataset.Get("cancer")
	ds := dataset.New(spec, 9)
	model := nn.Build(spec.ModelSpec(), tensor.NewRNG(6))
	cfg := RoundConfig{BatchSize: 4, LocalIters: 1, LR: 0.1}
	srv, err := NewRoundServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	done := make(chan error, 1)
	go func() {
		done <- runClient(srv.Addr(), 0, sparseEchoStrategy{value: 3}, ds.Client(0), spec.ModelSpec(), 9, ClientOptions{})
	}()
	deltas, err := runRound(srv, 0, model.Params(), cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if cerr := <-done; cerr != nil {
		t.Fatal(cerr)
	}
	if len(deltas) != 1 {
		t.Fatalf("collected %d updates, want 1", len(deltas))
	}
	for j, d := range deltas[0] {
		for i, v := range d.Data() {
			want := 0.0
			if i == d.Len()-1 {
				want = 3
			}
			if v != want {
				t.Fatalf("tensor %d entry %d = %v, want %v — sparse wire corrupted", j, i, v, want)
			}
		}
	}
}
