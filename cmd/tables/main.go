// Command tables regenerates the paper's tables and figures from the
// reproduction library.
//
//	tables -set experiment.name=table6                   # one experiment
//	tables -set experiment.scale=0.5                     # everything, at half the default effort
//	tables -config configs/attack-matrix.yaml
//	tables -set experiment.name=table2 -set data.scenario=dirichlet -set data.alpha=0.1 -format csv
//
// experiment.name selects the driver (table1..table7, fig1, fig3, fig4,
// fig5, faults, byzantine, churn); unset, every driver runs.
// experiment.scale trades fidelity for time: 1 is the CPU-friendly default,
// larger values approach the paper's GPU-scale parameters (Table VI always
// runs at the paper's exact parameters — it is a pure computation). A
// driver's runs are the experiment (-config, -set; see internal/config) plus
// the keys that define each of its cells: every key it leaves alone —
// training.lr, method.clip, data.scenario, runtime.*, aggregation.*, … —
// reaches the run, and one it sets itself is refused if the experiment moved
// it too ("table2 sets training.k itself …; clear it"). Every report is
// stamped with the experiment's canonical digest, and a sweep block fans the
// suite out over seeds, -sweep-workers at a time.
package main

import (
	"encoding/csv"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"fedcdp/internal/config"
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
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "tables:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("tables", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cf config.Flags
	cf.Register(fs)
	format := fs.String("format", "text", "output format: text or csv")
	sweepWorkers := fs.Int("sweep-workers", 0, "parallel runs for a config sweep block (0 = GOMAXPROCS)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	exp, err := cf.Load()
	if err != nil {
		return err
	}
	runs := exp.Expand()
	if len(runs) == 1 {
		return runExperiments(runs[0], *format, stdout, stderr)
	}
	// A sweep block fans the suite out over seeds, in parallel across
	// cores; reports are buffered and printed in sweep order.
	out := make([]strings.Builder, len(runs))
	err = config.RunSweep(runs, *sweepWorkers, func(i int, e *config.Experiment) error {
		fmt.Fprintf(&out[i], "--- sweep seed=%d digest=%s ---\n", e.Seed, e.Digest())
		if rerr := runExperiments(e, *format, &out[i], stderr); rerr != nil {
			return fmt.Errorf("seed %d: %w", e.Seed, rerr)
		}
		return nil
	})
	for i := range out {
		fmt.Fprint(stdout, out[i].String())
	}
	return err
}

// runExperiments executes the experiment's driver (every driver when
// experiment.name is unset) and renders each report to w; per-experiment
// timing goes to stderr.
func runExperiments(e *config.Experiment, format string, w, stderr io.Writer) error {
	names := experiments.Names()
	if e.Experiment.Name != "" {
		names = []string{e.Experiment.Name}
	}
	for _, n := range names {
		start := time.Now()
		rep, err := experiments.Run(n, e)
		if err != nil {
			return fmt.Errorf("%s: %w", n, err)
		}
		if format == "csv" {
			writeCSV(w, rep)
		} else {
			rep.Fprint(w)
		}
		fmt.Fprintf(stderr, "(%s completed in %s)\n", n, time.Since(start).Round(time.Millisecond))
	}
	return nil
}
