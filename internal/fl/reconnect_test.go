package fl

import (
	"encoding/gob"
	"math"
	"strings"
	"testing"
	"time"

	"fedcdp/internal/dataset"
	"fedcdp/internal/nn"
	"fedcdp/internal/simnet"
	"fedcdp/internal/tensor"
)

// Tests for the RPC path over the simnet fabric: the whole federation —
// server, clients, reconnects, crashes, restarts — runs in-memory with
// zero real sockets and zero real-time sleeps.

// rawSession runs one hand-rolled client session over the fabric: read the
// round announcement, submit the given update for that round, return the
// server's receipt. Hand-rolled (instead of RunRemoteClient) so the test
// controls exactly what goes on the wire.
func rawSession(t *testing.T, n *simnet.Net, host string, clientID int, update []float64) AckMsg {
	t.Helper()
	conn, err := n.Dialer(host)("server")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	dec := gob.NewDecoder(conn)
	var pm ParamMsg
	if err := dec.Decode(&pm); err != nil {
		t.Fatalf("%s: reading params: %v", host, err)
	}
	if pm.Denied {
		t.Fatalf("%s: session denied: %s", host, pm.Reason)
	}
	msg := UpdateMsg{ClientID: clientID, Round: pm.Round, Weight: 1}
	msg.Delta = WireFromTensors([]*tensor.Tensor{tensor.FromSlice(append([]float64(nil), update...), len(update))})
	if err := gob.NewEncoder(conn).Encode(msg); err != nil {
		t.Fatalf("%s: sending update: %v", host, err)
	}
	var ack AckMsg
	if err := dec.Decode(&ack); err != nil {
		t.Fatalf("%s: reading ack: %v", host, err)
	}
	return ack
}

// TestReconnectDoesNotDoubleFold pins the reconnect/ack edge: a client
// whose update was folded but whose connection died before it processed
// the ack re-submits after reconnecting. The server must acknowledge the
// retry (the client's data IS in the round) without folding it a second
// time — before deduplication, the retry double-counted the client and
// consumed the round's quorum with a phantom update.
//
// It also pins the slot accounting around that retry: the duplicate must
// consume NEITHER a completion slot (a round with Clients=2 may only
// commit on two DISTINCT resolutions — a fast client's re-submission once
// closed the round before the slow client's update arrived) NOR an
// admission slot (the second distinct client below can only be admitted
// if the duplicate session returned the quota it briefly occupied;
// without the release this test deadlocks in admit()).
func TestReconnectDoesNotDoubleFold(t *testing.T) {
	n := simnet.New(1, nil)
	ln, err := n.Listen("server")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewRoundServerOn(ln)
	defer srv.Close()

	params := []*tensor.Tensor{tensor.FromSlice([]float64{0, 0, 0, 0}, 4)}
	cfg := RoundConfig{BatchSize: 1, LocalIters: 1, LR: 0.1, TotalRounds: 1}
	agg := NewFedSGD()
	type outcome struct {
		res RoundResult
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := srv.StreamRound(0, params, cfg, agg, RoundOptions{Clients: 2, MinQuorum: 2})
		done <- outcome{res, err}
	}()

	// Client 0 submits and is folded — but "never sees" the ack and
	// re-submits the same round over a fresh connection.
	if ack := rawSession(t, n, "c0", 0, []float64{1, 2, 3, 4}); !ack.Accepted {
		t.Fatalf("first submission rejected: %s", ack.Reason)
	}
	ack := rawSession(t, n, "c0", 0, []float64{1, 2, 3, 4})
	if !ack.Accepted {
		t.Fatalf("duplicate retry must be acknowledged (the data was folded): %s", ack.Reason)
	}
	if !strings.Contains(ack.Reason, "duplicate") {
		t.Fatalf("duplicate ack should say so, got %q", ack.Reason)
	}
	// The duplicate resolved the round's second SESSION, but not its
	// second CLIENT: the round must still be open, waiting for c1 — and
	// must still have an admission slot to give it.
	select {
	case o := <-done:
		t.Fatalf("round closed on a duplicate session: %+v (err %v)", o.res, o.err)
	default:
	}
	if ack := rawSession(t, n, "c1", 1, []float64{3, 4, 5, 6}); !ack.Accepted {
		t.Fatalf("second client rejected: %s", ack.Reason)
	}

	o := <-done
	if o.err != nil {
		t.Fatal(o.err)
	}
	if o.res.Folded != 2 || o.res.Duplicates != 1 || o.res.Failed != 0 {
		t.Fatalf("round result %+v, want 2 folded / 1 duplicate / 0 failed", o.res)
	}
	if !o.res.Committed {
		t.Fatal("round with 2 distinct folds must meet quorum 2")
	}
	// The aggregate is the mean of the two DISTINCT updates — the
	// double-submission must not have shifted it.
	want := []float64{2, 3, 4, 5}
	for i, v := range params[0].Data() {
		if v != want[i] {
			t.Fatalf("params %v, want %v (duplicate folded?)", params[0].Data(), want)
		}
	}
}

// TestHostileUpdateRejected sends structurally hostile updates through the
// fabric: the server must answer with a reasoned receipt and survive —
// never panic, never fold the poison.
func TestHostileUpdateRejected(t *testing.T) {
	n := simnet.New(1, nil)
	ln, _ := n.Listen("server")
	srv := NewRoundServerOn(ln)
	srv.Clock = n.Clock()
	defer srv.Close()

	params := []*tensor.Tensor{tensor.FromSlice([]float64{0, 0}, 2)}
	cfg := RoundConfig{BatchSize: 1, LocalIters: 1, LR: 0.1, TotalRounds: 1}
	type outcome struct {
		res RoundResult
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := srv.StreamRound(0, params, cfg, NewFedSGD(), RoundOptions{Clients: 3, MinQuorum: 1})
		done <- outcome{res, err}
	}()

	if ack := rawSession(t, n, "evil0", 7, []float64{math.NaN(), 1}); ack.Accepted || ack.Reason == "" {
		t.Fatalf("NaN update must be refused with a reason, got %+v", ack)
	}
	if ack := rawSession(t, n, "evil1", 8, []float64{1, 2, 3, 4, 5}); ack.Accepted || ack.Reason == "" {
		t.Fatalf("mis-shaped update must be refused with a reason, got %+v", ack)
	}
	if ack := rawSession(t, n, "c0", 0, []float64{2, 4}); !ack.Accepted {
		t.Fatalf("honest update rejected: %s", ack.Reason)
	}

	o := <-done
	if o.err != nil {
		t.Fatal(o.err)
	}
	if o.res.Folded != 1 || o.res.Failed != 2 {
		t.Fatalf("round result %+v, want 1 folded / 2 failed", o.res)
	}
	if got := params[0].Data(); got[0] != 2 || got[1] != 4 {
		t.Fatalf("params %v, want the honest update applied", got)
	}
}

// TestRemoteClientOverSimnetFabric runs the real client logic (training
// included) against a server across the fabric, with a crashed cohort
// member injected via AbandonSession — the full deployment loop with no
// real network.
func TestRemoteClientOverSimnetFabric(t *testing.T) {
	spec, err := dataset.Get("cancer")
	if err != nil {
		t.Fatal(err)
	}
	ds := dataset.New(spec, 42)
	n := simnet.New(42, simnet.MustParsePlan("latency=10ms,jitter=5ms"))
	ln, _ := n.Listen("server")
	srv := NewRoundServerOn(ln)
	srv.Clock = n.Clock()
	defer srv.Close()

	model := tensorsForSpec(t, spec)
	cfg := RoundConfig{BatchSize: 4, LocalIters: 2, LR: 0.1, TotalRounds: 1}
	agg := NewFedSGD()
	type outcome struct {
		res RoundResult
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := srv.StreamRound(0, model, cfg, agg, RoundOptions{Clients: 3, MinQuorum: 1})
		done <- outcome{res, err}
	}()

	clientErr := make(chan error, 2)
	for id := 0; id < 2; id++ {
		go func(id int) {
			clientErr <- runClient("server", id, sgdStrategy{}, ds.Client(id), spec.ModelSpec(), 42,
				ClientOptions{Dial: n.Dialer("c" + string(rune('0'+id)))})
		}(id)
	}
	// The third cohort member crashes mid-round.
	if _, err := AbandonSession("server", ClientOptions{Dial: n.Dialer("c2")}); err != nil {
		t.Fatalf("crash client could not even read the announcement: %v", err)
	}

	for i := 0; i < 2; i++ {
		if err := <-clientErr; err != nil {
			t.Fatalf("live client: %v", err)
		}
	}
	o := <-done
	if o.err != nil {
		t.Fatal(o.err)
	}
	if o.res.Folded != 2 || o.res.Failed != 1 || !o.res.Committed {
		t.Fatalf("round result %+v, want 2 folded / 1 failed / committed", o.res)
	}
	if n.Clock().Now().Sub(time.Unix(0, 0).UTC()) <= 0 {
		t.Fatal("virtual link latency never advanced the virtual clock")
	}
}

// TestServerRestartOverFabric restarts the server between rounds: the old
// listener closes, a new server rebinds the same fabric address, and the
// next round proceeds — the reconnect surface cmd/fedclient retries
// against, exercised with zero real sockets.
func TestServerRestartOverFabric(t *testing.T) {
	n := simnet.New(7, nil)
	params := []*tensor.Tensor{tensor.FromSlice([]float64{0, 0}, 2)}
	cfg := RoundConfig{BatchSize: 1, LocalIters: 1, LR: 0.1, TotalRounds: 2}

	runRound := func(round int, update []float64) RoundResult {
		t.Helper()
		ln, err := n.Listen("server")
		if err != nil {
			t.Fatal(err)
		}
		srv := NewRoundServerOn(ln)
		type outcome struct {
			res RoundResult
			err error
		}
		done := make(chan outcome, 1)
		go func() {
			res, err := srv.StreamRound(round, params, cfg, NewFedSGD(), RoundOptions{Clients: 1})
			done <- outcome{res, err}
		}()
		if ack := rawSessionRound(t, n, "c0", 0, round, update); !ack.Accepted {
			t.Fatalf("round %d update rejected: %s", round, ack.Reason)
		}
		o := <-done
		if o.err != nil {
			t.Fatal(o.err)
		}
		// Restart: everything about the server dies except the model.
		srv.Close()
		return o.res
	}

	if res := runRound(0, []float64{1, 1}); res.Folded != 1 {
		t.Fatalf("round 0: %+v", res)
	}
	if res := runRound(1, []float64{2, 2}); res.Folded != 1 {
		t.Fatalf("round 1 after restart: %+v", res)
	}
	if got := params[0].Data(); got[0] != 3 || got[1] != 3 {
		t.Fatalf("params %v after two rounds across a restart, want [3 3]", got)
	}
}

// rawSessionRound is rawSession asserting the announced round.
func rawSessionRound(t *testing.T, n *simnet.Net, host string, clientID, wantRound int, update []float64) AckMsg {
	t.Helper()
	conn, err := n.Dialer(host)("server")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	dec := gob.NewDecoder(conn)
	var pm ParamMsg
	if err := dec.Decode(&pm); err != nil {
		t.Fatal(err)
	}
	if pm.Denied || pm.Round != wantRound {
		t.Fatalf("announcement %+v, want round %d", pm, wantRound)
	}
	msg := UpdateMsg{ClientID: clientID, Round: pm.Round, Weight: 1}
	msg.Delta = WireFromTensors([]*tensor.Tensor{tensor.FromSlice(append([]float64(nil), update...), len(update))})
	if err := gob.NewEncoder(conn).Encode(msg); err != nil {
		t.Fatal(err)
	}
	var ack AckMsg
	if err := dec.Decode(&ack); err != nil {
		t.Fatal(err)
	}
	return ack
}

// tensorsForSpec builds a fresh parameter set for a benchmark's model.
func tensorsForSpec(t *testing.T, spec dataset.Spec) []*tensor.Tensor {
	t.Helper()
	return nn.Build(spec.ModelSpec(), tensor.NewRNG(7)).Params()
}
