package fl

import (
	"strings"
	"testing"
	"time"

	"fedcdp/internal/dataset"
	"fedcdp/internal/nn"
	"fedcdp/internal/tensor"
)

// The multiplexed scheduler must be a pure scheduling change: the same
// cohort served through ClientMux, at any worker count, must leave the
// server's model bit-identical to one RunRemoteClient goroutine per client —
// cmd/fedclient's path. The two share the session opener and the client
// step, so this compares what is left: a recycled worker against a fresh
// one, over real wire bytes. The fold uses the exact aggregator so arrival
// order — the one thing scheduling legitimately changes — cannot leak into
// the comparison.
func TestClientMuxMatchesPerClientGoroutines(t *testing.T) {
	spec, err := dataset.Get("cancer")
	if err != nil {
		t.Fatal(err)
	}
	ds := dataset.New(spec, 42)
	cfg := RoundConfig{BatchSize: 4, LocalIters: 2, LR: 0.1, TotalRounds: 1}
	const kt = 4

	run := func(t *testing.T, workers int) []*tensor.Tensor {
		t.Helper()
		model := nn.Build(spec.ModelSpec(), tensor.NewRNG(7))
		srv, err := NewRoundServer("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		done := make(chan []MuxResult, 1)
		if workers < 0 {
			// Reference path: one goroutine per client, fresh model each.
			go func() {
				for id := 0; id < kt; id++ {
					go func(id int) {
						if err := runClient(srv.Addr(), id, sgdStrategy{}, ds.Client(id), spec.ModelSpec(), 42, ClientOptions{}); err != nil {
							t.Error(err)
						}
					}(id)
				}
				done <- nil
			}()
		} else {
			mux := &ClientMux{Spec: spec.ModelSpec(), Data: ds, Strat: sgdStrategy{}, Seed: 42, Workers: workers}
			go func() {
				tasks := make([]MuxTask, kt)
				for i := range tasks {
					tasks[i] = MuxTask{ClientID: i, Addr: srv.Addr()}
				}
				done <- mux.RunRound(tasks)
			}()
		}
		agg, err := NewExact(AggFedSGD)
		if err != nil {
			t.Fatal(err)
		}
		res, err := srv.StreamRound(0, model.Params(), cfg, agg, RoundOptions{Clients: kt})
		results := <-done
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range results {
			if r.Err != nil {
				t.Fatalf("client %d: %v", r.ClientID, r.Err)
			}
			if r.Round != 0 {
				t.Fatalf("client %d served round %d, want 0", r.ClientID, r.Round)
			}
		}
		if res.Folded != kt || !res.Committed {
			t.Fatalf("round result %+v, want %d folded and committed", res, kt)
		}
		return model.Params()
	}

	want := run(t, -1)
	for _, workers := range []int{1, 2, kt, 0} {
		got := run(t, workers)
		for i := range want {
			if !got[i].Equal(want[i], 0) {
				t.Fatalf("workers=%d: param %d differs from per-client-goroutine round", workers, i)
			}
		}
	}
}

// An Abandon task opens its session and disconnects after the
// announcement: the server counts it failed while the trained task folds.
func TestClientMuxAbandon(t *testing.T) {
	spec, err := dataset.Get("cancer")
	if err != nil {
		t.Fatal(err)
	}
	ds := dataset.New(spec, 42)
	cfg := RoundConfig{BatchSize: 4, LocalIters: 1, LR: 0.1, TotalRounds: 1}

	model := nn.Build(spec.ModelSpec(), tensor.NewRNG(7))
	srv, err := NewRoundServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	mux := &ClientMux{Spec: spec.ModelSpec(), Data: ds, Strat: sgdStrategy{}, Seed: 42, Workers: 2}
	done := make(chan []MuxResult, 1)
	go func() {
		done <- mux.RunRound([]MuxTask{
			{ClientID: 0, Addr: srv.Addr()},
			{ClientID: 7, Addr: srv.Addr(), Abandon: true},
		})
	}()
	res, err := srv.StreamRound(3, model.Params(), cfg, NewFedSGD(), RoundOptions{
		Clients: 2, MinQuorum: 1,
	})
	results := <-done
	if err != nil {
		t.Fatal(err)
	}
	if res.Folded != 1 || res.Failed != 1 || !res.Committed {
		t.Fatalf("round result %+v, want 1 folded, 1 failed, committed", res)
	}
	if results[0].Err != nil || results[0].Round != 3 {
		t.Fatalf("client 0 result %+v, want round 3 without error", results[0])
	}
	if results[1].Err != nil || results[1].Round != 3 {
		t.Fatalf("abandoning client result %+v, want announced round 3", results[1])
	}
}

// RoundOptions.Deadline is a straggler cutoff and nothing else: a session
// that fails is a counted failure whether or not one is set, so the same
// sessions close the same round either way.
func TestStreamRoundCountsFailuresWithOrWithoutDeadline(t *testing.T) {
	spec, err := dataset.Get("cancer")
	if err != nil {
		t.Fatal(err)
	}
	cfg := RoundConfig{BatchSize: 4, LocalIters: 1, LR: 0.1, TotalRounds: 1}
	for _, tc := range []struct {
		name    string
		abandon bool
		want    RoundResult
	}{
		{"clean", false, RoundResult{Folded: 3, Committed: true}},
		{"one failed session", true, RoundResult{Folded: 2, Failed: 1}},
	} {
		for _, deadline := range []time.Duration{0, time.Hour} {
			srv, err := NewRoundServer("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			mux := &ClientMux{Spec: spec.ModelSpec(), Data: dataset.New(spec, 42), Strat: sgdStrategy{}, Seed: 42}
			done := make(chan []MuxResult, 1)
			go func() {
				done <- mux.RunRound([]MuxTask{
					{ClientID: 0, Addr: srv.Addr()},
					{ClientID: 1, Addr: srv.Addr()},
					{ClientID: 2, Addr: srv.Addr(), Abandon: tc.abandon},
				})
			}()
			model := nn.Build(spec.ModelSpec(), tensor.NewRNG(7))
			got, err := srv.StreamRound(0, model.Params(), cfg, NewFedSGD(), RoundOptions{Clients: 3, Deadline: deadline, MinQuorum: 3})
			<-done
			srv.Close()
			if err != nil || got != tc.want {
				t.Errorf("%s, deadline %v: round = %+v, %v; want %+v", tc.name, deadline, got, err, tc.want)
			}
		}
	}
}

// A mux launched from one experiment config must refuse a server running
// another, exactly as cmd/fedclient's session does: the digest check lives
// in the shared session opener. Nothing is folded.
func TestClientMuxRefusesMismatchedDigest(t *testing.T) {
	spec, err := dataset.Get("cancer")
	if err != nil {
		t.Fatal(err)
	}
	model := nn.Build(spec.ModelSpec(), tensor.NewRNG(7))
	srv, err := NewRoundServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	mux := &ClientMux{Spec: spec.ModelSpec(), Data: dataset.New(spec, 42), Strat: sgdStrategy{}, Seed: 42,
		Opt: ClientOptions{ExpectDigest: "feedfacefeedface"}}
	done := make(chan []MuxResult, 1)
	go func() { done <- mux.RunRound([]MuxTask{{ClientID: 0, Addr: srv.Addr()}}) }()
	cfg := RoundConfig{BatchSize: 4, LocalIters: 1, LR: 0.1, TotalRounds: 1, ConfigDigest: "0123456789abcdef"}
	res, err := srv.StreamRound(0, model.Params(), cfg, NewFedSGD(), RoundOptions{Clients: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Folded != 0 || res.Failed != 1 {
		t.Fatalf("round result %+v, want nothing folded and one failed session", res)
	}
	r := (<-done)[0]
	if r.Err == nil || !strings.Contains(r.Err.Error(), "server is running experiment 0123456789abcdef") {
		t.Fatalf("mux session error %v, want the experiment-digest refusal", r.Err)
	}
}
