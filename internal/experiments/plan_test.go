package experiments

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"strings"
	"testing"

	"fedcdp/internal/attack"
	"fedcdp/internal/config"
	"fedcdp/internal/core"
	"fedcdp/internal/dataset"
	"fedcdp/internal/fl"
	"fedcdp/internal/tensor"
)

// observe runs the experiment's driver with the training and attack seams
// replaced by recorders: what comes back is every core.Config the driver
// would train (digest blanked — it moves with any key) and a hash of every
// leaked gradient, truth and budget it would hand the reconstruction attack.
// Nothing trains, so a whole driver plans in milliseconds.
func observe(t testing.TB, e *config.Experiment) (cfgs []core.Config, attacks []uint64, err error) {
	t.Helper()
	realRun, realReconstruct := run, reconstruct
	defer func() { run, reconstruct = realRun, realReconstruct }()
	run = func(cfg core.Config) (*core.Result, error) {
		spec, err := dataset.Get(cfg.Dataset)
		if err != nil {
			return nil, err
		}
		cfg.ConfigDigest = ""
		cfgs = append(cfgs, cfg)
		return &core.Result{History: &fl.History{}, Spec: spec, Cfg: cfg}, nil
	}
	reconstruct = func(m *attack.MLP, gw, gb []*tensor.Tensor, labels []int, truth []*tensor.Tensor, cfg attack.Config) attack.Result {
		h := fnv.New64a()
		fmt.Fprint(h, labels, cfg)
		var word [8]byte
		for _, ts := range [][]*tensor.Tensor{gw, gb, truth} {
			for _, x := range ts {
				for _, v := range x.Data() {
					binary.LittleEndian.PutUint64(word[:], math.Float64bits(v))
					h.Write(word[:])
				}
			}
		}
		attacks = append(attacks, h.Sum64())
		return attack.Result{}
	}
	_, err = Run(e.Experiment.Name, e)
	return cfgs, attacks, err
}

// planned is observe's training half, for an experiment that must plan.
func planned(t testing.TB, e *config.Experiment) []core.Config {
	t.Helper()
	cfgs, _, err := observe(t, e)
	if err != nil {
		t.Fatal(err)
	}
	return cfgs
}

// schemaKeys walks the schema the way a user sees it: every key of the
// canonical document, as -set spells it, with its default value.
func schemaKeys() (keys []string, defaults map[string]string) {
	defaults = map[string]string{}
	section := ""
	for _, line := range strings.Split(string(config.Default().Canonical()), "\n") {
		key, value, _ := strings.Cut(strings.TrimSpace(line), ": ")
		switch {
		case line == "" || strings.HasPrefix(line, "#"):
		case !strings.HasPrefix(line, " ") && strings.HasSuffix(line, ":"):
			section = strings.TrimSuffix(line, ":") + "."
		case strings.HasPrefix(line, " "):
			key = section + key
			fallthrough
		default:
			keys = append(keys, key)
			defaults[key] = value
		}
	}
	return keys, defaults
}

// offDefault moves every run-describing key off its default, to a value that
// validates beside every driver's own sets. The keys core never sees by
// design are absent, as in config's TestEveryKeyReachesCore: the schema
// version, the deployment switch (refused with experiment.name), and the
// experiment and sweep blocks, which select and fan out drivers.
var offDefault = map[string]string{
	"seed":            "7",
	"model.precision": "fp32",
	"data.dataset":    "cancer", "data.scenario": "dirichlet", "data.alpha": "0.1", "data.shards": "3", "data.period": "4",
	"method.name": "dssgd", "method.clip": "2.5", "method.sigma": "0.5", "method.accountant-sigma": "6",
	"method.delta": "1e-06", "method.decay-from": "8", "method.decay-to": "1", "method.share": "0.25", "method.compress": "0.3",
	"runtime.deadline": "150ms", "runtime.quorum": "2", "runtime.dropout": "0.25",
	"faults.plan": "drop=0.2", "faults.population": "churn=0.1",
	"aggregation.rule": "trimmed:0.34", "aggregation.shards": "4", "aggregation.tree-fanout": "2",
	"aggregation.sampler": "floyd", "aggregation.mux-workers": "3",
	"codec.wire": "binary",
	"training.k": "12", "training.kt": "6", "training.rounds": "4", "training.planned-rounds": "9", "training.batch": "5",
	"training.iters": "3", "training.lr": "0.15", "training.val-examples": "60", "training.eval-every": "2", "training.parallelism": "2",
}

// inert is the explicit allow-list of the metamorphic table: per driver that
// trains nothing, the key classes (a key or a "section." prefix) it has no
// use for, each with the reason. Every other (driver, key) must change a run
// or be refused.
var inert = map[string]map[string]string{
	"table6": {"": "a pure computation at the paper's exact parameters (Table VI): it reads no key"},
}

func init() {
	// The attack-only drivers reconstruct from one victim's first local
	// batch: they read the data, seed and defense keys, and nothing else.
	for _, name := range []string{"table7", "fig1", "fig4"} {
		inert[name] = map[string]string{
			"model.precision":         "the attack MLP is float64; no federation is trained",
			"training.":               "no federation is trained: the victim's first local iteration, at round 0, is attacked on a fixed batch",
			"runtime.":                "no rounds are run, so nothing straggles, drops or needs a quorum",
			"faults.":                 "no rounds are run, so no plan is replayed (fedattack stages a poisoned victim)",
			"aggregation.":            "nothing is folded: the adversary reads one client's gradients",
			"codec.":                  "nothing crosses a wire",
			"method.accountant-sigma": "no privacy is accounted",
			"method.delta":            "no privacy is accounted",
			"method.decay-to":         "round 0 sits at the decay schedule's start, decay-from",
			"data.alpha":              "parameterizes the dirichlet scenario only, and data.scenario is the default here",
			"data.shards":             "parameterizes the pathological scenario only",
			"data.period":             "parameterizes the time-varying scenarios only",
		}
	}
	// Non-private victims have no defense to parameterize.
	for _, k := range []string{"method.clip", "method.decay-from", "method.share"} {
		inert["fig1"][k] = "fig1 attacks non-private training, which has no mechanism to parameterize"
	}
	inert["table7"]["method.share"] = "table7's defenses exclude dssgd"
}

func allowed(driver, key string) (reason string, ok bool) {
	for class, why := range inert[driver] {
		if key == class || class == "" || (strings.HasSuffix(class, ".") && strings.HasPrefix(key, class)) {
			return why, true
		}
	}
	return "", false
}

// ROADMAP item 4's metamorphic property on the fifth runner: for every
// run-describing schema key and every driver, moving the key off its default
// either changes something the driver trains or attacks, or is refused naming
// the driver and the key — never a report identical to the default's under a
// different digest. The allow-list above is the only exception, and an entry
// there that turns out to matter is an error too.
func TestMetamorphicEveryKeyEveryDriver(t *testing.T) {
	keys, defaults := schemaKeys()
	if len(keys) != 42 {
		t.Fatalf("schema has %d keys, want 42: %v", len(keys), keys)
	}
	for _, key := range keys {
		_, perturbed := offDefault[key]
		exempt := key == "version" || key == "runtime.simnet" || strings.HasPrefix(key, "experiment.") || strings.HasPrefix(key, "sweep.")
		if perturbed == exempt {
			t.Fatalf("%s: every key is either perturbed by offDefault or exempt by design", key)
		}
		if perturbed && offDefault[key] == defaults[key] {
			t.Fatalf("%s: offDefault %q is the default", key, offDefault[key])
		}
	}
	for _, driver := range Names() {
		base := exp(t, "experiment.name="+driver, "experiment.scale=0.3")
		baseCfgs, baseAttacks, err := observe(t, base)
		if err != nil {
			t.Fatal(err)
		}
		// outcome moves the keys and says whether the driver's runs moved
		// with them or it refused, naming itself and the first key.
		outcome := func(keys ...string) (moved, refused bool) {
			e := *base
			for _, key := range keys {
				if err := config.Set(&e, key, offDefault[key]); err != nil {
					t.Fatal(err)
				}
			}
			cfgs, attacks, err := observe(t, &e)
			refused = err != nil && strings.Contains(err.Error(), driver) && strings.Contains(err.Error(), keys[0])
			if err != nil && !refused {
				t.Errorf("%s + %v: failed without naming the driver and the key: %v", driver, keys, err)
			}
			return !reflect.DeepEqual(cfgs, baseCfgs) || !reflect.DeepEqual(attacks, baseAttacks), refused
		}
		var listed []string
		for _, key := range keys {
			if _, ok := offDefault[key]; !ok {
				continue
			}
			if _, ok := allowed(driver, key); ok {
				listed = append(listed, key)
			} else if moved, refused := outcome(key); !moved && !refused {
				t.Errorf("%s + %s=%s: silently ignored — plans the default's runs under a different digest", driver, key, offDefault[key])
			}
		}
		// The allow-list is checked too, all of a driver's entries in one run:
		// a key listed as inert that the driver honors or refuses is a stale entry.
		if len(listed) > 0 {
			if moved, refused := outcome(listed...); moved || refused {
				t.Errorf("%s: allow-listed as inert but honored or refused (moved %v, refused %v) among %v", driver, moved, refused, listed)
			}
		}
	}
}

// tables honors data.period: the incremental scenario reveals classes on the
// period's cadence, so fig3's planned run differs between periods — it did
// not while FromExperiment's Scenario literal had no Period.
func TestTablesHonorsDataPeriod(t *testing.T) {
	at := func(period string) []core.Config {
		return planned(t, exp(t, "experiment.name=fig3", "data.scenario=incremental", "data.period="+period))
	}
	p1, p6 := at("1"), at("6")
	if len(p1) != 1 || p1[0].Scenario.Period != 1 || p6[0].Scenario.Period != 6 {
		t.Fatalf("fig3 under incremental plans periods %+v and %+v, want 1 and 6", p1, p6)
	}
}

// The two silent-ignore reproductions of the issue, on the binary's path.
func TestTwiceSetKeysAreRefused(t *testing.T) {
	for _, tc := range []struct{ driver, set, want string }{
		{"churn", "training.lr=0.9", ""},
		{"churn", "method.clip=0.5", ""},
		{"churn", "training.k=50", "churn sets training.k itself (training.k=10 in one of its runs); clear it"},
		{"churn", "training.kt=20", "churn sets training.kt itself"},
		{"churn", "runtime.quorum=1", "churn sets runtime.quorum itself"},
		{"table2", "training.k=50", "table2 sets training.k itself (training.k=40 in one of its runs); clear it"},
		{"byzantine", "aggregation.rule=median", "byzantine sets aggregation.rule itself"},
		{"table5", "method.sigma=0.1", "table5 sets method.sigma itself"},
		{"fig5", "method.sigma=0.1", "fig5 sets method.sigma itself (method.sigma=6 in one of its runs)"},
	} {
		e := exp(t, "experiment.name="+tc.driver, "experiment.scale=0.5")
		baseline := planned(t, e)
		key, value, _ := strings.Cut(tc.set, "=")
		if err := config.Set(e, key, value); err != nil {
			t.Fatal(err)
		}
		cfgs, _, err := observe(t, e)
		switch {
		case tc.want == "" && (err != nil || reflect.DeepEqual(cfgs, baseline)):
			t.Errorf("%s + %s: want the key honored in the planned runs, got err %v", tc.driver, tc.set, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s + %s: error %v, want one containing %q", tc.driver, tc.set, err, tc.want)
		}
	}
}
