// Command tables regenerates the paper's tables and figures from the
// reproduction library.
//
// Usage:
//
//	tables -exp table6            # one experiment
//	tables -exp all -scale 0.5    # everything, at half the default effort
//	tables -config configs/attack-matrix.yaml
//	tables -exp bench             # replay the BENCH_*.json perf baselines
//
// Scale trades fidelity for time: 1 is the CPU-friendly default, larger
// values approach the paper's GPU-scale parameters. Table VI always runs at
// the paper's exact parameters (it is a pure computation).
//
// Beyond the paper's tables, "-exp faults" renders the fault-sensitivity
// matrix: {scenario × method × fault plan} under deterministic
// fault injection (see DESIGN.md, "Simnet").
//
// "-exp bench" is the perf regression gate: it re-runs the six recorded
// BENCH_*.json baselines (partition, sanitize, simnet, wire, scale,
// robust), compares the median ns/op of each benchmark against the
// recorded number, and exits non-zero with a per-benchmark diff when a
// median regresses past -bench-threshold. -bench-update rewrites the
// recorded numbers instead (see DESIGN.md, "Experiment configs").
//
// -config loads a declarative experiment file (internal/config): the
// file's experiment block selects the driver, flags given alongside
// override the file, every report is stamped with the config's canonical
// digest, and a sweep block fans the suite out over seeds in parallel.
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"time"

	"fedcdp/internal/config"
	"fedcdp/internal/dataset"
	"fedcdp/internal/experiments"
)

// writeCSV emits the report rows as CSV (experiment id and scenario
// prefixed, so heterogeneity sweeps stay distinguishable in the
// machine-readable output), for downstream plotting.
func writeCSV(out io.Writer, rep *experiments.Report) {
	w := csv.NewWriter(out)
	defer w.Flush()
	scenario := rep.Scenario
	if scenario == "" {
		scenario = "iid"
	}
	w.Write(append([]string{"experiment", "scenario"}, rep.Header...))
	for _, row := range rep.Rows {
		w.Write(append([]string{rep.Name, scenario}, row...))
	}
}

func main() {
	exp := flag.String("exp", "all", "experiment id (table1..table7, fig1, fig3, fig4, fig5, faults, byzantine, churn), 'all', or 'bench' (perf regression gate)")
	scale := flag.Float64("scale", 1, "effort multiplier (1 = default scaled-down run)")
	seed := flag.Int64("seed", 42, "root random seed")
	format := flag.String("format", "text", "output format: text or csv")
	scenario := flag.String("scenario", "", "data-heterogeneity scenario: "+strings.Join(dataset.ScenarioNames(), ", ")+" (default iid)")
	alpha := flag.Float64("alpha", 0, "dirichlet concentration (0 = default 0.5)")
	shards := flag.Int("shards", 0, "pathological label shards per client (0 = default 2)")
	aggRule := flag.String("agg", "", "aggregation rule: fedsgd (default), fedavg, weighted (pair with -scenario quantity), or robust — median, trimmed[:beta], krum[:f]")
	precision := flag.String("precision", "", "client GEMM precision: fp64 (default, parity oracle) or fp32 (see DESIGN.md)")
	codec := flag.String("codec", "", "wire codec: gob (default, parity oracle) or binary (see DESIGN.md)")
	cfgPath := flag.String("config", "", "declarative experiment config file; flags given alongside override it (see DESIGN.md, \"Experiment configs\")")
	sweepWorkers := flag.Int("sweep-workers", 0, "parallel runs for a config sweep block (0 = GOMAXPROCS)")
	benchThreshold := flag.Float64("bench-threshold", 0, "bench gate: allowed fractional median slowdown (0 = default, see DESIGN.md)")
	benchUpdate := flag.Bool("bench-update", false, "bench gate: rewrite the BENCH_*.json baselines with the new medians")
	benchCount := flag.Int("bench-count", 3, "bench gate: runs per benchmark (median taken)")
	benchTime := flag.String("bench-time", "1x", "bench gate: -benchtime per run")
	benchOnly := flag.String("bench-only", "", "bench gate: only baselines whose file name contains this substring")
	flag.Parse()

	if *exp == "bench" {
		ok, err := experiments.RunBench(experiments.BenchOptions{
			Threshold: *benchThreshold,
			Count:     *benchCount,
			Benchtime: *benchTime,
			Update:    *benchUpdate,
			Only:      *benchOnly,
			Out:       os.Stdout,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "tables: bench:", err)
			os.Exit(1)
		}
		if !ok {
			fmt.Fprintln(os.Stderr, "tables: bench: perf regression past threshold (see diff above; -bench-update re-records)")
			os.Exit(1)
		}
		return
	}

	name := *exp
	var opts experiments.Options
	var runs []*config.Experiment
	if *cfgPath != "" {
		ec, err := config.Load(*cfgPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tables:", err)
			os.Exit(1)
		}
		config.ApplyFlagOverrides(flag.CommandLine, ec, flagExperiment(*seed, *exp, *scale, *scenario, *alpha, *shards, *aggRule, *precision, *codec))
		if err := ec.Validate(); err != nil {
			fmt.Fprintln(os.Stderr, "tables:", err)
			os.Exit(1)
		}
		runs = ec.Expand()
		if ec.Experiment.Name != "" {
			name = ec.Experiment.Name
		}
	} else {
		opts = experiments.Options{
			Scale: *scale, Seed: *seed,
			Scenario:    dataset.Scenario{Name: *scenario, Alpha: *alpha, Shards: *shards},
			Aggregation: *aggRule,
			Precision:   *precision,
			Codec:       *codec,
		}
	}

	if len(runs) > 1 {
		// A sweep block fans the suite out over seeds, in parallel across
		// cores; reports are buffered and printed in sweep order.
		out := make([]string, len(runs))
		var mu sync.Mutex
		err := config.RunSweep(runs, *sweepWorkers, func(i int, e *config.Experiment) error {
			var b strings.Builder
			if rerr := runExperiments(name, experiments.FromExperiment(e), *format, &b); rerr != nil {
				return fmt.Errorf("seed %d: %w", e.Seed, rerr)
			}
			mu.Lock()
			out[i] = fmt.Sprintf("--- sweep seed=%d digest=%s ---\n%s", e.Seed, e.Digest(), b.String())
			mu.Unlock()
			return nil
		})
		for _, s := range out {
			fmt.Print(s)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "tables:", err)
			os.Exit(1)
		}
		return
	}
	if len(runs) == 1 {
		opts = experiments.FromExperiment(runs[0])
	}
	if err := runExperiments(name, opts, *format, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tables:", err)
		os.Exit(1)
	}
}

// runExperiments executes one experiment id (or "all") and renders every
// report to w; per-experiment timing still goes to stderr.
func runExperiments(name string, opts experiments.Options, format string, w io.Writer) error {
	names := experiments.Names()
	if name != "all" {
		names = []string{name}
	}
	for _, n := range names {
		start := time.Now()
		rep, err := experiments.Run(n, opts)
		if err != nil {
			return fmt.Errorf("%s: %w", n, err)
		}
		if format == "csv" {
			writeCSV(w, rep)
		} else {
			rep.Fprint(w)
		}
		fmt.Fprintf(os.Stderr, "(%s completed in %s)\n", n, time.Since(start).Round(time.Millisecond))
	}
	return nil
}

func flagExperiment(seed int64, exp string, scale float64, scenario string, alpha float64, shards int, aggRule, precision, codec string) *config.Experiment {
	e := config.Default()
	e.Seed = seed
	e.Experiment.Name = exp
	e.Experiment.Scale = scale
	e.Data.Scenario = scenario
	e.Data.Alpha = alpha
	e.Data.Shards = shards
	e.Aggregation.Rule = aggRule
	e.Model.Precision = precision
	e.Codec.Wire = codec
	return e
}
