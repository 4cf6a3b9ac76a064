package core

import (
	"runtime"
	"runtime/debug"
	"testing"

	"fedcdp/internal/dataset"
	"fedcdp/internal/fl"
	"fedcdp/internal/nn"
	"fedcdp/internal/simnet"
	"fedcdp/internal/tensor"
)

// Tests for the simnet fault-injection layer at the whole-system level:
// the acceptance anchor is bit-reproducibility of a faulted streaming run
// — identical final-model FNV digest and ε across invocations and
// GOMAXPROCS/parallelism settings — plus the simnet RPC deployment
// harness's deterministic fault realization.

// acceptanceConfig is the issue's pinned scenario: dirichlet(0.1) label skew, Fed-CDP, 20% update drop + 2 mid-round
// crashes + 1 server restart.
func acceptanceConfig() Config {
	return Config{
		Dataset: "cancer",
		Method:  MethodFedCDP,
		K:       12, Kt: 6, Rounds: 4,
		LocalIters:  3,
		Sigma:       0.06,
		Seed:        42,
		ValExamples: 60,
		EvalEvery:   1,
		Scenario:    dataset.Scenario{Name: "dirichlet", Alpha: 0.1},
		Faults:      "drop=0.2,crash=2,restart=1",
		MinQuorum:   1,
	}
}

func TestFaultedRunBitReproducible(t *testing.T) {
	type fingerprint struct {
		digest  uint64
		epsilon float64
		clients []int
	}
	take := func(par, maxprocs int) fingerprint {
		t.Helper()
		if maxprocs > 0 {
			old := runtime.GOMAXPROCS(maxprocs)
			defer runtime.GOMAXPROCS(old)
		}
		cfg := acceptanceConfig()
		cfg.Parallelism = par
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		fp := fingerprint{digest: digestTensors(res.Final.Params()), epsilon: res.FinalEpsilon()}
		for _, r := range res.Rounds {
			fp.clients = append(fp.clients, r.Clients)
		}
		return fp
	}

	base := take(0, 0)
	for _, alt := range []fingerprint{take(0, 0), take(1, 0), take(8, 0), take(4, 2)} {
		if alt.digest != base.digest {
			t.Fatalf("final-model digest %x differs from %x across scheduling settings", alt.digest, base.digest)
		}
		if alt.epsilon != base.epsilon {
			t.Fatalf("ε %v differs from %v across scheduling settings", alt.epsilon, base.epsilon)
		}
		for i := range base.clients {
			if alt.clients[i] != base.clients[i] {
				t.Fatalf("round %d folded %d vs %d across scheduling settings", i, alt.clients[i], base.clients[i])
			}
		}
	}
	// The plan must actually have injected something: with 20% drop and 2
	// crashes over 4 rounds of 6, losing zero contributions is (0.8)^24-
	// unlikely and would mean the plan silently no-opped.
	lost := 0
	for _, c := range base.clients {
		lost += 6 - c
	}
	if lost == 0 {
		t.Fatal("fault plan injected nothing")
	}
}

func TestFaultedRunDiffersFromClean(t *testing.T) {
	faulted := acceptanceConfig()
	clean := acceptanceConfig()
	clean.Faults = ""
	rf, err := Run(faulted)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := Run(clean)
	if err != nil {
		t.Fatal(err)
	}
	if digestTensors(rf.Final.Params()) == digestTensors(rc.Final.Params()) {
		t.Fatal("a plan that loses contributions must change the trajectory")
	}
}

func TestCheckpointResumeWithFaults(t *testing.T) {
	// The fault plan binds over the full horizon, so a checkpointed run
	// resumed mid-plan meets exactly the failures the uninterrupted run
	// met — bit-for-bit.
	base := acceptanceConfig()
	full, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	half := base
	half.Rounds = 2
	half.PlannedRounds = 4
	first, err := Run(half)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := CheckpointFrom(first).Resume(2)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := digestTensors(resumed.Final.Params()), digestTensors(full.Final.Params()); got != want {
		t.Fatalf("resumed faulted run digest %x, uninterrupted %x", got, want)
	}
	if resumed.FinalEpsilon() != full.FinalEpsilon() {
		t.Fatalf("resumed ε %v, uninterrupted %v", resumed.FinalEpsilon(), full.FinalEpsilon())
	}
}

func TestBadFaultPlanRejected(t *testing.T) {
	cfg := acceptanceConfig()
	cfg.Faults = "drop=1.5"
	if _, err := Run(cfg); err == nil {
		t.Fatal("invalid fault plan must be rejected")
	}
	if _, err := RunSimnet(cfg); err == nil {
		t.Fatal("invalid fault plan must be rejected by the simnet harness too")
	}
}

func simnetBaseConfig() Config {
	return Config{
		Dataset: "cancer",
		Method:  MethodNonPrivate,
		K:       8, Kt: 4, Rounds: 3,
		LocalIters:  2,
		Seed:        42,
		ValExamples: 40,
		EvalEvery:   1,
	}
}

func TestRunSimnetCleanDeployment(t *testing.T) {
	res, err := RunSimnet(simnetBaseConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) != 3 {
		t.Fatalf("recorded %d rounds, want 3", len(res.Rounds))
	}
	for _, r := range res.Rounds {
		if r.Clients != 4 || r.Dropped != 0 || !r.Committed {
			t.Fatalf("clean round %+v, want 4 folded / 0 dropped / committed", r)
		}
	}
	if acc, ok := res.FinalAccuracy(); !ok || acc <= 0 {
		t.Fatal("deployment never evaluated")
	}
}

func TestRunSimnetFaultedDeterministicFolds(t *testing.T) {
	run := func() []fl.RoundStats {
		cfg := simnetBaseConfig()
		cfg.Method = MethodFedCDP
		cfg.Sigma = 0.06
		cfg.Faults = "drop=0.3,crash=1,restart=1"
		cfg.MinQuorum = 1
		res, err := RunSimnet(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Rounds
	}
	a, b := run(), run()
	lost := 0
	for i := range a {
		if a[i].Clients != b[i].Clients || a[i].Committed != b[i].Committed || a[i].Epsilon != b[i].Epsilon {
			t.Fatalf("round %d differs across identical simnet runs: %+v vs %+v", i, a[i], b[i])
		}
		lost += a[i].Dropped
		if a[i].Epsilon <= 0 {
			t.Fatalf("round %d: Fed-CDP ε must be positive, got %v", i, a[i].Epsilon)
		}
		if i > 0 && a[i].Epsilon <= a[i-1].Epsilon {
			t.Fatalf("ε must grow monotonically: round %d %v after %v", i, a[i].Epsilon, a[i-1].Epsilon)
		}
	}
	if lost == 0 {
		t.Fatal("the plan destroyed nothing over three faulted rounds")
	}
}

func TestRunSimnetSurvivesLinkChaos(t *testing.T) {
	// Message cuts and duplicate deliveries kill sessions mid-protocol on
	// ANY client; the harness must count those as injected failures and
	// keep going, not abort the run — and fates stay deterministic. Rates
	// are per gob wire message and a session is ~14 of them, so these
	// "mild" rates already kill a third of all sessions.
	run := func() []fl.RoundStats {
		cfg := simnetBaseConfig()
		cfg.Faults = "msgdrop=0.02,dup=0.02"
		res, err := RunSimnet(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Rounds
	}
	a, b := run(), run()
	folded := 0
	for i := range a {
		if a[i].Clients != b[i].Clients || a[i].Dropped != b[i].Dropped {
			t.Fatalf("round %d differs across identical chaotic runs: %+v vs %+v", i, a[i], b[i])
		}
		folded += a[i].Clients
	}
	if folded == 0 {
		t.Fatal("no update ever survived moderate link chaos")
	}
}

func TestRunSimnetPartition(t *testing.T) {
	cfg := simnetBaseConfig()
	cfg.K, cfg.Kt = 4, 4 // the whole population participates every round
	cfg.Rounds = 2
	cfg.Faults = "partition=c0>server@0-0"
	res, err := RunSimnet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r := res.Rounds[0]; r.Clients != 3 || r.Dropped != 1 {
		t.Fatalf("partitioned round %+v, want 3 folded / 1 dropped", r)
	}
	if r := res.Rounds[1]; r.Clients != 4 {
		t.Fatalf("post-partition round %+v, want the full cohort back", r)
	}
}

func TestRunSimnetQuorum(t *testing.T) {
	cfg := simnetBaseConfig()
	cfg.K, cfg.Kt = 4, 4
	cfg.Rounds = 1
	cfg.MinQuorum = 4
	cfg.Faults = "crash@0:0"
	res, err := RunSimnet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r := res.Rounds[0]; r.Committed || r.Clients != 3 {
		t.Fatalf("round %+v must miss quorum 4 with a crashed client", r)
	}
}

// TestRunSimnetBinaryCodec deploys the whole federation over the fabric
// with the binary wire codec — including a mid-run server restart, after
// which every client session opens against a reborn server tier that
// speaks binary from its first byte, as the one before it did.
// The codec changes the bytes, never the protocol outcome: per-round
// folded counts, commits and ε must match the gob deployment exactly.
func TestRunSimnetBinaryCodec(t *testing.T) {
	run := func(codec string) []fl.RoundStats {
		cfg := simnetBaseConfig()
		cfg.Method = MethodFedCDP
		cfg.Sigma = 0.06
		cfg.Faults = "drop=0.2,restart=1"
		cfg.MinQuorum = 1
		cfg.Codec = codec
		res, err := RunSimnet(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Rounds
	}
	gob, bin := run(""), run(fl.CodecBinary)
	for i := range gob {
		if gob[i].Clients != bin[i].Clients || gob[i].Committed != bin[i].Committed || gob[i].Epsilon != bin[i].Epsilon {
			t.Fatalf("round %d diverged across codecs: gob %+v vs binary %+v", i, gob[i], bin[i])
		}
	}
}

// TestRunSimnetClientSideSDPSanitizes pins that the Fed-SDP placement the
// deployment accepts really perturbs what is folded: at the same seed its
// committed model differs from the non-private run's, and it charges ε.
// (Server-side placement, which RunSimnet would fold raw, is refused — see
// TestSimnetTreeConfigRejected.)
func TestRunSimnetClientSideSDPSanitizes(t *testing.T) {
	run := func(method string) *Result {
		cfg := simnetBaseConfig()
		cfg.Method = method
		res, err := RunSimnet(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	sdp, raw := run(MethodFedSDP), run(MethodNonPrivate)
	if digestTensors(sdp.Final.Params()) == digestTensors(raw.Final.Params()) {
		t.Fatal("simnet fedsdp committed the non-private model: the update left the client without clip or noise")
	}
	if sdp.FinalEpsilon() <= 0 || raw.FinalEpsilon() != 0 {
		t.Fatalf("ε: fedsdp %v (want > 0), non-private %v (want 0)", sdp.FinalEpsilon(), raw.FinalEpsilon())
	}
}

// TestRunSimnetUnknownCodecRejected pins the config gate.
func TestRunSimnetUnknownCodecRejected(t *testing.T) {
	cfg := simnetBaseConfig()
	cfg.Codec = "msgpack"
	if _, err := RunSimnet(cfg); err == nil {
		t.Fatal("unknown codec must be rejected")
	}
}

// TestMuxRoundSteadyStateAllocations pins that the model crosses each
// boundary of a wire round without a fresh copy once the round's buffers
// exist: the broadcast and the update ride pooled fabric frames, decode into
// reused messages, and the client's global snapshot and ΔW come from its
// worker's arena. A second ClientMux round over simnet therefore allocates
// less than one model's bytes per client session — the first paid for the
// buffers. The collector is off while it runs, so no pool is emptied
// between the rounds, and it runs on one P: a sync.Pool's per-P private
// slot is invisible to other Ps, so on more than one a second-round miss
// (a mux worker rebuilt with a cold arena) would be a scheduling accident.
func TestMuxRoundSteadyStateAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc counts are meaningless")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	spec, err := dataset.Get("cancer")
	if err != nil {
		t.Fatal(err)
	}
	ds := dataset.New(spec, 42)
	model := nn.Build(spec.ModelSpec(), tensor.NewRNG(7))
	modelBytes := uint64(8 * model.NumParams())
	cfg := fl.RoundConfig{BatchSize: 4, LocalIters: 2, LR: 0.1, TotalRounds: 2}
	const sessions = 8

	n := simnet.New(42, nil)
	ln, err := n.Listen("server")
	if err != nil {
		t.Fatal(err)
	}
	srv := fl.NewRoundServerOn(ln)
	srv.Codec = fl.CodecBinary
	defer srv.Close()
	mux := &fl.ClientMux{
		Spec: spec.ModelSpec(), Data: ds, Strat: NewFedCDP(4, 0.06), Seed: 42, Workers: 2,
		Opt: fl.ClientOptions{Dial: n.Dialer("clients"), Codec: fl.CodecBinary},
	}
	agg := fl.NewFedSGD()
	tasks := make([]fl.MuxTask, sessions)
	for i := range tasks {
		tasks[i] = fl.MuxTask{ClientID: i, Addr: "server"}
	}
	round := func(r int) {
		done := make(chan []fl.MuxResult, 1)
		go func() { done <- mux.RunRound(tasks) }()
		res, err := srv.StreamRound(r, model.Params(), cfg, agg, fl.RoundOptions{Clients: sessions})
		for _, mr := range <-done {
			if mr.Err != nil {
				t.Fatalf("round %d client %d: %v", r, mr.ClientID, mr.Err)
			}
		}
		if err != nil || res.Folded != sessions {
			t.Fatalf("round %d: %+v, %v", r, res, err)
		}
	}

	round(0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	round(1)
	runtime.ReadMemStats(&after)
	if got, limit := after.TotalAlloc-before.TotalAlloc, sessions*modelBytes; got >= limit {
		t.Fatalf("second round allocated %d B over %d sessions; want < %d (one %d-byte model per session)", got, sessions, limit, modelBytes)
	}
}
