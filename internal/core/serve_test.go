package core

import (
	"io"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"

	"fedcdp/internal/dataset"
	"fedcdp/internal/fl"
	"fedcdp/internal/fltest"
)

// serveFleet runs cfg as a dial-in deployment on a loopback port: core.Serve
// plus cfg.Kt library clients, each dialing until the server is gone. A
// stray, if any, runs to completion first, so it has its session before the
// fleet dials.
func serveFleet(t *testing.T, cfg Config, stray func(addr string) error) (*Result, error) {
	t.Helper()
	r, err := cfg.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	client := func(id int) {
		defer wg.Done()
		opt := fl.ClientOptions{Codec: r.Cfg.Codec}
		for {
			// Any error ends the client: the refusal or dead socket of a
			// finished server, or a session the server counted as failed.
			_, err := fl.RunRemoteClientRound(ln.Addr().String(), id, r.FL.Strategy, r.FL.Data.Client(id), r.FL.Model, r.Cfg.Seed, opt)
			if err != nil {
				return
			}
		}
	}
	wg.Add(r.Cfg.Kt)
	go func() {
		if stray != nil {
			if err := stray(ln.Addr().String()); err != nil {
				t.Error(err)
			}
		}
		for id := 0; id < r.Cfg.Kt; id++ {
			go client(id)
		}
	}()
	res, err := Serve(cfg, ln, false, io.Discard)
	wg.Wait()
	return res, err
}

// Clients are unstable (Section IV-A) and a listening port meets strangers: a
// peer that fails its session costs the round that slot, not the run. With no
// deadline configured the server still finishes every round and charges the
// ε of the clean run, on either wire codec: neither does I/O before a
// session is admitted, so every failure is counted. (What fedserve prints
// meanwhile: cmd/fedserve's twin.)
func TestServeSurvivesHostilePeers(t *testing.T) {
	cfg := acceptanceConfig()
	cfg.Faults = ""
	clean, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg.Codec = range []string{fl.CodecGob, fl.CodecBinary} {
		for peerName, peer := range fltest.HostilePeers {
			name := cfg.Codec + ": " + peerName
			res, err := serveFleet(t, cfg, peer)
			if err != nil {
				t.Errorf("%s: the peer ended the run: %v", name, err)
				continue
			}
			folded, dropped := 0, 0
			for _, rs := range res.Rounds {
				folded, dropped = folded+rs.Clients, dropped+rs.Dropped
				if !rs.Committed {
					t.Errorf("%s: round %d did not commit", name, rs.Round)
				}
			}
			if want := cfg.Rounds*cfg.Kt - 1; len(res.Rounds) != cfg.Rounds || dropped != 1 || folded != want {
				t.Errorf("%s: %d rounds folded %d and dropped %d, want %d rounds, %d folded, the peer's slot dropped",
					name, len(res.Rounds), folded, dropped, cfg.Rounds, want)
			}
			if res.FinalEpsilon() != clean.FinalEpsilon() {
				t.Errorf("%s: ε %v, clean run %v", name, res.FinalEpsilon(), clean.FinalEpsilon())
			}
		}
	}
}

// The TCP deployment is the same round engine as Run and RunSimnet, so for
// one Config all three fold the same number of updates per round, commit the
// same rounds, evaluate on the same schedule and are charged the same ε —
// with the dropout coin thinning the dial-in quota as it thins a cohort, and
// a quorum miss leaving ε where it was. (Which clients fill a dial-in round
// is whoever dials, so models and accuracies are not compared.)
func TestServeEpsilonParity(t *testing.T) {
	clean := acceptanceConfig()
	clean.Faults = ""
	thinned := clean
	thinned.DropoutRate, thinned.EvalEvery = 0.5, 2
	starved := thinned
	starved.MinQuorum = 3
	type round struct {
		Clients   int
		Committed bool
		Evaluated bool
		Epsilon   float64
	}
	vector := func(res *Result, err error) []round {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		out := make([]round, len(res.Rounds))
		for i, rs := range res.Rounds {
			out[i] = round{rs.Clients, rs.Committed, rs.Evaluated, rs.Epsilon}
		}
		return out
	}
	for name, cfg := range map[string]Config{"clean": clean, "dropout": thinned, "dropout below quorum": starved} {
		inproc := vector(Run(cfg))
		if got := vector(RunSimnet(cfg)); !reflect.DeepEqual(got, inproc) {
			t.Errorf("%s: RunSimnet %+v, Run %+v", name, got, inproc)
		}
		if got := vector(serveFleet(t, cfg, nil)); !reflect.DeepEqual(got, inproc) {
			t.Errorf("%s: Serve %+v, Run %+v", name, got, inproc)
		}
		if last := inproc[len(inproc)-1]; last.Epsilon == 0 {
			t.Errorf("%s: no ε charged: %+v", name, inproc)
		}
	}
	if got := vector(Run(starved)); got[0].Committed || got[0].Epsilon != 0 || !got[3].Committed {
		t.Errorf("the starved run should miss quorum until its last round: %+v", got)
	}
}

// A dial-in server replays no plan; core.Serve's callers refuse them
// (config.Experiment.DialIn). Should a restart reach the runner anyway it
// fails the run, rather than closing the server under clients that read
// "no further rounds" as a clean finish.
func TestServeFailsOnPlannedRestart(t *testing.T) {
	cfg := acceptanceConfig()
	cfg.Faults = "restart@1"
	if _, err := serveFleet(t, cfg, nil); err == nil || !strings.Contains(err.Error(), "cannot replay a planned restart (round 1)") {
		t.Fatalf("Serve replayed a planned restart: %v", err)
	}
}

// The shard a fedclient trains on did not move when the binaries stopped
// building their own dataset: the resolved partition's view of (id, round)
// is, example for example, the IID view repartitioned by the published
// scenario that fedclient used to hand the session.
func TestResolvedShardMatchesRepartition(t *testing.T) {
	for _, sc := range []dataset.Scenario{{}, {Name: "dirichlet", Alpha: 0.1}, {Name: "incremental", Period: 2}} {
		cfg := acceptanceConfig()
		cfg.Scenario = sc
		r, err := cfg.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		p, err := sc.Partitioner()
		if err != nil {
			t.Fatal(err)
		}
		iid := dataset.New(r.Spec, cfg.Seed)
		for _, id := range []int{0, 5, 11} {
			for _, round := range []int{0, 3} {
				want := iid.Client(id).RepartitionAt(p, round)
				// What a session does with the view fedclient hands it now,
				// and the engine's own view of the same (id, round).
				for name, got := range map[string]*dataset.ClientData{
					"Client+RepartitionAt": r.FL.Data.Client(id).RepartitionAt(p, round),
					"ClientAt":             r.FL.Data.ClientAt(id, round),
				} {
					if got.Len() != want.Len() {
						t.Fatalf("%s %s client %d round %d: %d examples, want %d", sc, name, id, round, got.Len(), want.Len())
					}
					for i := 0; i < want.Len(); i++ {
						gx, gy := got.Get(i)
						wx, wy := want.Get(i)
						if gy != wy || !reflect.DeepEqual(gx.Data(), wx.Data()) {
							t.Fatalf("%s %s client %d round %d: example %d differs", sc, name, id, round, i)
						}
					}
				}
			}
		}
	}
}
