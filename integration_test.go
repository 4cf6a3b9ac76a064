package fedcdp

// End-to-end integration: the complete story of the paper in one test file.
// A federated task trains under each privacy regime; the three adversaries
// of the threat model mount their reconstruction attacks; the accountant
// prices the privacy. These tests cross every module boundary the way a
// downstream user would.

import (
	"bufio"
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"fedcdp/internal/attack"
	"fedcdp/internal/config"
	"fedcdp/internal/core"
	"fedcdp/internal/dataset"
	"fedcdp/internal/dp"
	"fedcdp/internal/tensor"
)

// TestEndToEndPrivacyStory trains non-private and Fed-CDP models on the
// same task and verifies the paper's three headline claims: comparable
// utility, bounded privacy spending, and type-2 attack resilience.
func TestEndToEndPrivacyStory(t *testing.T) {
	base := core.Config{
		Dataset: "cancer",
		K:       8, Kt: 4, Rounds: 4, LocalIters: 20,
		Sigma: 0.06, AccountantSigma: 6,
		Seed: 77, ValExamples: 100, EvalEvery: 100,
	}

	nonPrivate := base
	nonPrivate.Method = core.MethodNonPrivate
	np, err := core.Run(nonPrivate)
	if err != nil {
		t.Fatal(err)
	}

	private := base
	private.Method = core.MethodFedCDP
	cdp, err := core.Run(private)
	if err != nil {
		t.Fatal(err)
	}

	// Claim 1: competitive accuracy.
	npAcc, _ := np.FinalAccuracy()
	cdpAcc, _ := cdp.FinalAccuracy()
	if npAcc < 0.9 {
		t.Fatalf("non-private reference accuracy %v too low", npAcc)
	}
	if cdpAcc < npAcc-0.15 {
		t.Fatalf("Fed-CDP accuracy %v not competitive with %v", cdpAcc, npAcc)
	}
	// Claim 2: a finite, increasing privacy budget.
	if eps := cdp.FinalEpsilon(); eps <= 0 || eps > 1 {
		t.Fatalf("Fed-CDP ε = %v, want small positive (paper-scale accounting)", eps)
	}
	if np.FinalEpsilon() != 0 {
		t.Fatal("non-private training must not report a guarantee")
	}
}

// TestEndToEndConfigDrivenRun is the declarative path end to end: a config
// document determines a run, -set overrides it the way the binaries do, and
// the digest stamped through core.Config identifies exactly the experiment
// that produced the result.
func TestEndToEndConfigDrivenRun(t *testing.T) {
	doc := []byte(`version: 1
seed: 77

data:
  dataset: cancer

method:
  name: fedcdp
  sigma: 0.06
  accountant-sigma: 6

training:
  k: 8
  kt: 4
  rounds: 4
  iters: 20
  val-examples: 100
  eval-every: 100
`)
	exp, err := config.Parse(doc)
	if err != nil {
		t.Fatal(err)
	}
	if err := exp.Validate(); err != nil {
		t.Fatal(err)
	}
	cfg := exp.CoreConfig()
	if cfg.ConfigDigest != exp.Digest() {
		t.Fatalf("resolved config digest %q, want %q", cfg.ConfigDigest, exp.Digest())
	}
	res, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cfg.ConfigDigest != exp.Digest() {
		t.Fatalf("result carries digest %q, want %q", res.Cfg.ConfigDigest, exp.Digest())
	}
	if acc, ok := res.FinalAccuracy(); !ok || acc < 0.75 {
		t.Fatalf("config-driven Fed-CDP run accuracy %v (ok=%v)", acc, ok)
	}

	// The override path the binaries use: -set on the command line wins over
	// the file, through the same setter and validator, and the overridden
	// experiment digests differently.
	path := filepath.Join(t.TempDir(), "exp.yaml")
	if err := os.WriteFile(path, doc, 0o644); err != nil {
		t.Fatal(err)
	}
	fs := flag.NewFlagSet("fedtrain", flag.ContinueOnError)
	var cf config.Flags
	cf.Register(fs)
	if err := fs.Parse([]string{"-config", path, "-set", "method.name=" + core.MethodNonPrivate}); err != nil {
		t.Fatal(err)
	}
	overridden, err := cf.Load()
	if err != nil {
		t.Fatal(err)
	}
	if overridden.Method.Name != core.MethodNonPrivate {
		t.Fatalf("override landed %q", overridden.Method.Name)
	}
	if overridden.Digest() == exp.Digest() {
		t.Fatal("an overridden experiment must change identity")
	}
	np, err := core.Run(overridden.CoreConfig())
	if err != nil {
		t.Fatal(err)
	}
	if np.FinalEpsilon() != 0 {
		t.Fatal("non-private override must not report a guarantee")
	}
	if acc, ok := np.FinalAccuracy(); !ok || acc < 0.9 {
		t.Fatalf("non-private override accuracy %v (ok=%v)", acc, ok)
	}
}

// TestEndToEndAttackMatrix replays Table VII's key row pair: type-2 leakage
// defeats Fed-SDP but not Fed-CDP, on the same victim.
func TestEndToEndAttackMatrix(t *testing.T) {
	spec, err := dataset.Get("mnist")
	if err != nil {
		t.Fatal(err)
	}
	ds := dataset.New(spec, 7)
	x, y := ds.Client(0).Get(0)
	victim := attack.NewMLP([]int{spec.Features, 32, spec.Classes}, attack.ActSigmoid, tensor.NewRNG(7))

	// Fed-SDP: the per-example gradient leaks raw during local training.
	_, gw, gb := victim.Gradients(x, y)
	label := attack.InferLabel(gb[victim.Layers()-1])
	if label != y {
		t.Fatalf("iDLG inferred %d, want %d", label, y)
	}
	sdpView := attack.Reconstruct(victim, gw, gb, []int{label}, []*tensor.Tensor{x},
		attack.Config{Seed: 1, MaxIters: 200})
	if !sdpView.Revealed {
		t.Fatalf("type-2 attack must succeed against Fed-SDP (dist %v)", sdpView.Distance)
	}

	// Fed-CDP: the same adversary sees only sanitized gradients.
	_, gw2, gb2 := victim.Gradients(x, y)
	dp.Sanitize(append(gw2, gb2...), 4, 6, tensor.NewRNG(99))
	cdpView := attack.Reconstruct(victim, gw2, gb2, []int{label}, []*tensor.Tensor{x},
		attack.Config{Seed: 1, MaxIters: 200})
	if cdpView.Revealed {
		t.Fatalf("type-2 attack must fail against Fed-CDP (dist %v)", cdpView.Distance)
	}
	if cdpView.Distance < 4*sdpView.Distance {
		t.Fatalf("defense margin too small: %v vs %v", cdpView.Distance, sdpView.Distance)
	}
}

// TestEndToEndCheckpointedDeployment exercises the operational path: train,
// checkpoint, resume, and verify the resumed model serves predictions.
func TestEndToEndCheckpointedDeployment(t *testing.T) {
	cfg := core.Config{
		Dataset: "cancer", Method: core.MethodFedCDPDecay,
		K: 6, Kt: 3, Rounds: 2, PlannedRounds: 4, LocalIters: 10,
		Sigma: 0.06, Seed: 5, ValExamples: 60, EvalEvery: 1,
	}
	first, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := core.CheckpointFrom(first).Resume(2)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(resumed.Rounds); got != 2 {
		t.Fatalf("resumed run recorded %d rounds, want 2", got)
	}
	if acc, ok := resumed.FinalAccuracy(); !ok || acc < 0.85 {
		t.Fatalf("deployed model accuracy %v (ok=%v) after resume", acc, ok)
	}
	spec, _ := dataset.Get("cancer")
	ds := dataset.New(spec, 5)
	xs, ys := ds.Validation(10)
	for i, x := range xs {
		if p := resumed.Final.Predict(x); p < 0 || p >= spec.Classes {
			t.Fatalf("prediction %d out of range for example %d (label %d)", p, i, ys[i])
		}
	}
}

// binaries builds the five commands once per test process; the tests below
// drive them as a user would, from configs/*.yaml.
var binaries struct {
	once sync.Once
	dir  string
	err  error
}

func binary(t *testing.T, name string) string {
	t.Helper()
	binaries.once.Do(func() {
		if binaries.dir, binaries.err = os.MkdirTemp("", "fedcdp-bin"); binaries.err != nil {
			return
		}
		if out, err := exec.Command("go", "build", "-o", binaries.dir+string(filepath.Separator), "./cmd/...").CombinedOutput(); err != nil {
			binaries.err = fmt.Errorf("go build ./cmd/...: %v\n%s", err, out)
		}
	})
	if binaries.err != nil {
		t.Fatal(binaries.err)
	}
	return filepath.Join(binaries.dir, name)
}

func TestMain(m *testing.M) {
	code := m.Run()
	if binaries.dir != "" {
		os.RemoveAll(binaries.dir)
	}
	os.Exit(code)
}

// TestBinariesFlagSurface pins the whole command-line surface: -config and
// -set name the experiment, and the only other flags are the ones that are
// not experiment identity. A flag that respells a schema key fails here.
func TestBinariesFlagSurface(t *testing.T) {
	want := map[string][]string{
		"fedtrain":  {"checkpoint-in", "checkpoint-out", "config", "set", "sweep-workers"},
		"fedserve":  {"addr", "config", "secure", "set"},
		"fedclient": {"addr", "backoff", "config", "give-up", "id", "max-backoff", "secure", "set"},
		"fedattack": {"batch", "client", "config", "mask", "max-iters", "optimizer", "out", "set", "type"},
		"tables":    {"config", "format", "set", "sweep-workers"},
	}
	flagLine := regexp.MustCompile(`(?m)^  -([a-z-]+)`)
	total := 0
	for name, flags := range want {
		usage, _ := exec.Command(binary(t, name), "-h").CombinedOutput()
		var got []string
		for _, m := range flagLine.FindAllSubmatch(usage, -1) {
			got = append(got, string(m[1]))
		}
		sort.Strings(got)
		if !reflect.DeepEqual(got, flags) {
			t.Errorf("%s defines flags %v, want %v", name, got, flags)
		}
		total += len(got)
	}
	if total > 32 {
		t.Errorf("the five binaries define %d flags, want at most 32", total)
	}
}

// TestEndToEndTCPDeployment launches the fleet the README describes:
// fedserve and kt fedclients given the same config file, the same override
// clearing its fault plan (a fleet of real processes replays none), and
// nothing else but transport flags. Both sides must name the same
// experiment digest and finish all training.rounds rounds — fedclient once
// took its horizon from a private -rounds flag that also collided with
// training.rounds and moved its digest off the server's — and fedserve must
// close with the ε fedtrain prints for that experiment: it is the same
// round engine under the same accountant.
func TestEndToEndTCPDeployment(t *testing.T) {
	experiment := []string{"-config", "configs/fault-acceptance.yaml", "-set", "faults.plan="}
	exp, err := (&config.Flags{Path: experiment[1], Sets: experiment[3:]}).Load()
	if err != nil {
		t.Fatal(err)
	}
	// A lost process would leave the others waiting on it: bound them all.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	srv := exec.CommandContext(ctx, binary(t, "fedserve"), append(experiment, "-addr", "127.0.0.1:0")...)
	srvOut, err := srv.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	var srvErr bytes.Buffer
	srv.Stderr = &srvErr
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	lines := bufio.NewScanner(srvOut)
	if !lines.Scan() {
		t.Fatalf("fedserve printed nothing: %s", srvErr.String())
	}
	banner := lines.Text()
	m := regexp.MustCompile(`experiment ([0-9a-f]{16}): cancer on (127\.0\.0\.1:\d+) `).FindStringSubmatch(banner)
	if m == nil {
		t.Fatalf("unexpected fedserve banner %q", banner)
	}
	if m[1] != exp.Digest() {
		t.Fatalf("fedserve runs experiment %s, the file digests to %s", m[1], exp.Digest())
	}

	clientOut := make([]bytes.Buffer, exp.Training.Kt)
	clients := make([]*exec.Cmd, exp.Training.Kt)
	for i := range clients {
		clients[i] = exec.CommandContext(ctx, binary(t, "fedclient"), append(experiment, "-addr", m[2], "-id", fmt.Sprint(i), "-give-up", "20s")...)
		clients[i].Stdout = &clientOut[i]
		clients[i].Stderr = &clientOut[i]
		if err := clients[i].Start(); err != nil {
			t.Fatal(err)
		}
	}
	var served []string
	for lines.Scan() {
		served = append(served, lines.Text())
	}
	if err := srv.Wait(); err != nil {
		t.Fatalf("fedserve: %v\n%s\n%s", err, strings.Join(served, "\n"), srvErr.String())
	}
	for r := 0; r < exp.Training.Rounds; r++ {
		// Fast clients re-submit a round still collecting; those count as duplicates.
		want := regexp.MustCompile(fmt.Sprintf(`^round %d: %d/%d updates folded \(0 failed(, \d+ duplicate)?\), committed`, r, exp.Training.Kt, exp.Training.Kt))
		if r >= len(served) || !want.MatchString(served[r]) {
			t.Fatalf("round %d: want %s, server log:\n%s", r, want, strings.Join(served, "\n"))
		}
	}
	trained, err := exec.CommandContext(ctx, binary(t, "fedtrain"), experiment...).Output()
	if err != nil {
		t.Fatalf("fedtrain: %v", err)
	}
	// The ε column of the per-round table, then the final: line's.
	epsilons := func(out string) (col []string) {
		for _, m := range regexp.MustCompile(`(?m)^ +\d+  .* (\d+\.\d{4})$|^final: .* epsilon=(\d+\.\d{4}) `).FindAllStringSubmatch(out, -1) {
			col = append(col, m[1]+m[2])
		}
		return col
	}
	want, got := epsilons(string(trained)), epsilons(strings.Join(served, "\n"))
	if len(want) != exp.Training.Rounds+1 || !reflect.DeepEqual(got, want) || want[len(want)-1] == "0.0000" {
		t.Errorf("fedserve reports ε %v, fedtrain on the same experiment %v; server log:\n%s", got, want, strings.Join(served, "\n"))
	}
	for i, c := range clients {
		if err := c.Wait(); err != nil {
			t.Fatalf("fedclient %d: %v\n%s", i, err, clientOut[i].String())
		}
		out := clientOut[i].String()
		if !strings.Contains(out, "experiment "+exp.Digest()) {
			t.Errorf("fedclient %d does not name the server's experiment %s:\n%s", i, exp.Digest(), out)
		}
		if last := fmt.Sprintf("update %d/%d sent (round %d)", exp.Training.Rounds, exp.Training.Rounds, exp.Training.Rounds-1); !strings.Contains(out, last) {
			t.Errorf("fedclient %d did not contribute all %d rounds:\n%s", i, exp.Training.Rounds, out)
		}
	}
}
