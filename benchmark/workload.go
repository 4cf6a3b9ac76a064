package main

import (
	"embed"
	"fmt"
	"regexp"
	"strconv"
	"strings"

	"fedcdp/internal/config"
	"fedcdp/internal/core"
	"fedcdp/internal/fl"
	"fedcdp/internal/simnet"
)

//go:embed workloads/*.yaml
var workloadFS embed.FS

// workloadDef is the part of a workload's identity that is not in its YAML
// file: why it exists (copied into BENCHMARK.json) and what its checks may
// assume.
type workloadDef struct {
	Name string
	Why  string
	// AccuracyFloor catches a broken run (chance is 0.1 on mnist, 0.5 on the
	// tabular sets); drift is the job of the final_accuracy bound. Set with
	// room below the worst of 34 seeds surveyed when the benchmark was added
	// (0.78, 0.925, 0.98, 0.69 in table order).
	AccuracyFloor float64
	// BitIdentical: the final model digest must repeat across deployments.
	// False only where the runtime folds in arrival order by design.
	BitIdentical bool
}

var workloadDefs = []workloadDef{
	{"cnn-inproc", "paper setting: MNIST CNN with Fed-CDP(decay) in process; tensor, nn and dp do the work, no wire and no fabric", 0.60, true},
	{"tree-100k", "scale anchor: K=100,000 over simnet through a 32-shard edge tree; exact fold, cold shards, mux, codec and fabric carry it", 0.70, true},
	{"flat-faulted", "flat simnet under drops, crashes, restarts and Byzantine clients; per-client sessions and a buffered trimmed-mean fold", 0.80, false},
	{"churn-2k", "open-world population: per-round active sets, active-set cohort draw and the per-user RDP ledger dominate", 0.55, true},
}

func workloadDefFor(name string) (workloadDef, error) {
	for _, d := range workloadDefs {
		if d.Name == name {
			return d, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames(), ", "))
}

func workloadNames() []string {
	names := make([]string, len(workloadDefs))
	for i, d := range workloadDefs {
		names[i] = d.Name
	}
	return names
}

// workload is one loaded, seeded, validated deployment configuration.
type workload struct {
	workloadDef
	Exp         *config.Experiment
	Cfg         core.Config
	DroppedKeys []string
}

// loadWorkload reads the workload's YAML through the same path a user's
// config takes (config.Parse → Validate → CoreConfig), with the benchmark
// seed in place of the file's. roundsDiv > 1 shortens the deployment for the
// smoke test while the fault and population plans stay bound to the full
// horizon where the runtime allows it.
func loadWorkload(name string, seed int64, roundsDiv int) (*workload, error) {
	def, err := workloadDefFor(name)
	if err != nil {
		return nil, err
	}
	doc, err := workloadFS.ReadFile("workloads/" + name + ".yaml")
	if err != nil {
		return nil, err
	}
	exp, dropped, err := parseTolerant(doc, config.Parse)
	if err != nil {
		return nil, fmt.Errorf("workload %s: %w", name, err)
	}
	exp.Seed = seed
	if roundsDiv > 1 {
		def.AccuracyFloor = 0 // a shortened run cannot be held to the full run's floor
		exp.Training.PlannedRounds = exp.Training.Rounds
		exp.Training.Rounds /= roundsDiv
	}
	if err := exp.Validate(); err != nil {
		return nil, fmt.Errorf("workload %s: %w", name, err)
	}
	return &workload{workloadDef: def, Exp: exp, Cfg: exp.CoreConfig(), DroppedKeys: dropped}, nil
}

// deploy is the one call a benchmark sample times.
func (w *workload) deploy() (*core.Result, error) {
	if w.Exp.Runtime.Simnet {
		return core.RunSimnet(w.Cfg)
	}
	return core.Run(w.Cfg)
}

// planSpec joins the fault and population clauses into the one plan string
// the runtimes bind.
func planSpec(cfg core.Config) string {
	if cfg.Faults != "" && cfg.Population != "" {
		return cfg.Faults + "," + cfg.Population
	}
	return cfg.Faults + cfg.Population
}

// boundPlan binds the workload's fault and population clauses exactly as the
// runtime under test does, so the benchmark's cohort arithmetic and probes
// see the same plan. nil means no plan.
func (w *workload) boundPlan() (*simnet.Plan, error) {
	cfg := w.Cfg
	spec := planSpec(cfg)
	if spec == "" {
		return nil, nil
	}
	plan, err := simnet.ParsePlan(spec)
	if err != nil {
		return nil, err
	}
	horizon := cfg.Rounds
	if !w.Exp.Runtime.Simnet && cfg.PlannedRounds > horizon {
		horizon = cfg.PlannedRounds
	}
	return plan.Bind(cfg.Seed, horizon, cfg.K)
}

// population is the round-indexed client registry of the workload.
func population(k int, plan *simnet.Plan) fl.Population {
	if plan == nil {
		return fl.PopulationOf(k, nil)
	}
	return fl.PopulationOf(k, plan)
}

var (
	optionalKeysRe = regexp.MustCompile(`(?m)^#\s*optional-keys:\s*(.*)$`)
	unknownKeyRe   = regexp.MustCompile(`line (\d+): unknown key "([^"]+)" in section (\S+)`)
)

// parseTolerant parses a workload document, and when the parser rejects as
// unknown a key the document itself lists under "# optional-keys:", drops
// that line and retries. This lets a later change delete a legacy switch
// (ROADMAP item 1) without editing the benchmark in the same change; every
// other parse error is returned as is.
func parseTolerant(doc []byte, parse func([]byte) (*config.Experiment, error)) (*config.Experiment, []string, error) {
	optional := map[string]bool{}
	if m := optionalKeysRe.FindSubmatch(doc); m != nil {
		for _, k := range strings.Fields(string(m[1])) {
			optional[k] = true
		}
	}
	var dropped []string
	for {
		exp, err := parse(doc)
		if err == nil {
			return exp, dropped, nil
		}
		m := unknownKeyRe.FindStringSubmatch(err.Error())
		if m == nil || !optional[m[3]+"."+m[2]] {
			return nil, dropped, err
		}
		lineNo, _ := strconv.Atoi(m[1])
		lines := strings.Split(string(doc), "\n")
		if lineNo < 1 || lineNo > len(lines) {
			return nil, dropped, err
		}
		lines = append(lines[:lineNo-1], lines[lineNo:]...)
		doc = []byte(strings.Join(lines, "\n"))
		key := m[3] + "." + m[2]
		dropped = append(dropped, key)
		delete(optional, key) // a key is dropped at most once, so the loop ends
	}
}
