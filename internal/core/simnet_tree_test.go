package core

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"fedcdp/internal/fl"
)

// Whole-deployment parity: the hierarchical simnet harness at any shard
// count must commit parameters BIT-IDENTICAL to the flat exact deployment
// (Shards=1), with matching per-round folded counts, commits and ε. The
// fault plans used here are restricted to crash/drop/restart clauses,
// which are keyed by (round, client) / (round) and therefore
// topology-invariant; link-level chaos (latency, message loss) keys fault
// streams by host-name pairs and legitimately differs across topologies.
func TestSimnetTreeMatchesFlatExactly(t *testing.T) {
	type variant struct {
		name   string
		codec  string
		faults string
		agg    string
	}
	variants := []variant{
		{"gob/clean/fedsgd", "", "", fl.AggFedSGD},
		{"binary/faulted/fedsgd", fl.CodecBinary, "drop=0.2,crash=2,restart=1", fl.AggFedSGD},
		{"gob/faulted/weighted", "", "drop=0.2,crash=2,restart=1", fl.AggWeighted},
		{"binary/clean/weighted", fl.CodecBinary, "", fl.AggWeighted},
	}
	type fingerprint struct {
		digest    uint64
		epsilon   float64
		clients   []int
		committed []bool
	}
	take := func(t *testing.T, v variant, shards int) fingerprint {
		t.Helper()
		cfg := simnetBaseConfig()
		cfg.K, cfg.Kt, cfg.Rounds = 12, 6, 3
		cfg.Method = MethodFedCDP
		cfg.Sigma = 0.06
		cfg.MinQuorum = 1
		cfg.Codec = v.codec
		cfg.Faults = v.faults
		cfg.Aggregation = v.agg
		cfg.Shards = shards
		res, err := RunSimnet(cfg)
		if err != nil {
			t.Fatal(err)
		}
		fp := fingerprint{digest: digestTensors(res.Final.Params()), epsilon: res.FinalEpsilon()}
		for _, r := range res.Rounds {
			fp.clients = append(fp.clients, r.Clients)
			fp.committed = append(fp.committed, r.Committed)
		}
		return fp
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			flat := take(t, v, 1)
			for _, shards := range []int{2, 3, 4, 6, 12} {
				tree := take(t, v, shards)
				if tree.digest != flat.digest {
					t.Fatalf("shards=%d: final-model digest %x differs from flat %x", shards, tree.digest, flat.digest)
				}
				if tree.epsilon != flat.epsilon {
					t.Fatalf("shards=%d: ε %v differs from flat %v", shards, tree.epsilon, flat.epsilon)
				}
				for i := range flat.clients {
					if tree.clients[i] != flat.clients[i] || tree.committed[i] != flat.committed[i] {
						t.Fatalf("shards=%d round %d: folded/committed %d/%v vs flat %d/%v",
							shards, i, tree.clients[i], tree.committed[i], flat.clients[i], flat.committed[i])
					}
				}
			}
		})
	}
}

// The exact deployments change float arithmetic (exact sums round once),
// so their digests differ from the legacy float harness in general — but
// round ACCOUNTING (folded counts, commits, ε) must agree, since the same
// cohorts train and the same faults fire.
func TestSimnetExactStatsMatchLegacyFloat(t *testing.T) {
	run := func(shards int) *Result {
		cfg := simnetBaseConfig()
		cfg.K, cfg.Kt, cfg.Rounds = 12, 6, 3
		cfg.Method = MethodFedCDP
		cfg.Sigma = 0.06
		cfg.MinQuorum = 1
		cfg.Faults = "drop=0.2,crash=2,restart=1"
		cfg.Shards = shards
		res, err := RunSimnet(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	legacy := run(0)
	exact := run(1)
	if got, want := exact.FinalEpsilon(), legacy.FinalEpsilon(); got != want {
		t.Fatalf("ε %v differs from legacy %v", got, want)
	}
	for i := range legacy.Rounds {
		l, e := legacy.Rounds[i], exact.Rounds[i]
		if e.Clients != l.Clients || e.Committed != l.Committed || e.Dropped != l.Dropped {
			t.Fatalf("round %d stats %+v differ from legacy %+v", i, e, l)
		}
	}
}

// Legacy cohort sampling and Floyd sampling draw different cohorts, but a
// Floyd deployment must still be deterministic and self-consistent.
func TestSimnetTreeFloydSampler(t *testing.T) {
	run := func() uint64 {
		cfg := simnetBaseConfig()
		cfg.K, cfg.Kt, cfg.Rounds = 12, 6, 2
		cfg.Shards = 3
		cfg.Sampler = fl.SamplerFloyd
		res, err := RunSimnet(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return digestTensors(res.Final.Params())
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("floyd-sampled tree run not reproducible: %x vs %x", a, b)
	}
}

// Invalid topology and sampler configurations — and the two settings the
// deployment would silently not honor: server-side Fed-SDP (the round
// servers fold without clip or noise while ε is still charged) and a round
// deadline (the fabric clock is virtual, nothing would ever be cut), flat
// and tree — must be rejected up front.
func TestSimnetTreeConfigRejected(t *testing.T) {
	for _, mutate := range []func(*Config){
		func(c *Config) { c.Shards = -1 },
		func(c *Config) { c.Shards = c.K + 1 },
		func(c *Config) { c.Sampler = "reservoir" },
		func(c *Config) { c.Method = MethodFedSDPSrv },
		func(c *Config) { c.Method, c.Shards = MethodFedSDPSrv, 4 },
		func(c *Config) { c.RoundDeadline = time.Second },
		func(c *Config) { c.RoundDeadline, c.Shards = time.Second, 4 },
	} {
		cfg := simnetBaseConfig()
		mutate(&cfg)
		if _, err := RunSimnet(cfg); err == nil {
			t.Fatalf("expected config rejection, got success (%+v)", cfg)
		}
	}
}

// TestTopologyShardOfMatchesRanges pins the fabric's shard assignment:
// every shard owns a non-empty contiguous range, ranges come in id order,
// and their sizes are balanced — the first K mod S shards own one extra.
func TestTopologyShardOfMatchesRanges(t *testing.T) {
	for k := 1; k <= 40; k++ {
		for s := 1; s <= k; s++ {
			size := make([]int, s)
			prev := 0
			for id := 0; id < k; id++ {
				sh := shardOf(id, k, s)
				if sh != prev && sh != prev+1 || id == 0 && sh != 0 {
					t.Fatalf("K=%d S=%d: id %d → shard %d after shard %d", k, s, id, sh, prev)
				}
				size[sh]++
				prev = sh
			}
			for sh, n := range size {
				want := k / s
				if sh < k%s {
					want++
				}
				if n != want {
					t.Fatalf("K=%d S=%d: shard %d owns %d clients, want %d", k, s, sh, n, want)
				}
			}
		}
	}
}

// In process the shard count selects exact arithmetic and nothing else:
// Run commits one model and one ε at every Shards ≥ 1, and a non-zero
// TreeFanout — which would shape nothing — is refused by name.
func TestRunShardsSelectExactFoldOnly(t *testing.T) {
	take := func(shards int) (uint64, float64) {
		cfg := checkpointBaseConfig()
		cfg.Rounds, cfg.Shards = 3, shards
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return digestTensors(res.Final.Params()), res.FinalEpsilon()
	}
	d1, e1 := take(1)
	for _, shards := range []int{2, 4} {
		if d, e := take(shards); d != d1 || e != e1 {
			t.Fatalf("shards=%d: digest %x ε %v, shards=1 committed %x ε %v", shards, d, e, d1, e1)
		}
	}
	cfg := checkpointBaseConfig()
	cfg.Shards, cfg.TreeFanout = 4, 2
	if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "TreeFanout") {
		t.Fatalf("Run with TreeFanout=2: %v, want a refusal naming TreeFanout", err)
	}
}

// The issue's scale acceptance: a seeded K=100,000 / Kt=1,000 hierarchical
// deployment completes and is bit-reproducible — identical final-model
// digest and ε across invocations and GOMAXPROCS settings.
func TestSimnetScale100k(t *testing.T) {
	if testing.Short() {
		t.Skip("K=100k deployment skipped in -short")
	}
	take := func(maxprocs int) (uint64, float64, int64) {
		if maxprocs > 0 {
			old := runtime.GOMAXPROCS(maxprocs)
			defer runtime.GOMAXPROCS(old)
		}
		cfg := Config{
			Dataset: "cancer",
			Method:  MethodFedCDP,
			K:       100_000, Kt: 1000, Rounds: 2,
			LocalIters:  1,
			Sigma:       0.06,
			Seed:        42,
			ValExamples: 40,
			EvalEvery:   1,
			MinQuorum:   1,
			Shards:      32,
			Sampler:     fl.SamplerFloyd,
			Codec:       fl.CodecBinary,
		}
		res, err := RunSimnet(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var wire int64
		for _, r := range res.Rounds {
			if r.Clients != 1000 || !r.Committed {
				t.Fatalf("round %+v, want 1000 folded and committed", r)
			}
			wire += r.WireBytes
		}
		if wire <= 0 {
			t.Fatal("deployment recorded no wire traffic")
		}
		return digestTensors(res.Final.Params()), res.FinalEpsilon(), wire
	}
	d1, e1, w1 := take(0)
	d2, e2, w2 := take(2)
	if d1 != d2 || e1 != e2 {
		t.Fatalf("scale run not bit-reproducible: digest %x/%x ε %v/%v", d1, d2, e1, e2)
	}
	if w1 != w2 {
		t.Fatalf("scale run wire bytes differ: %d vs %d", w1, w2)
	}
}
