// Command benchmark is the repository's benchmark: four deployment
// workloads driven through the path a user takes (config.Parse →
// Experiment.CoreConfig → core.Run / core.RunSimnet), end-to-end metrics
// with tracing off, and an outside-in per-layer trace. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

func main() {
	var (
		workloadName = flag.String("workload", "", "run one workload and end with the one-line JSON result (default: all four, as a table)")
		seed         = flag.Int64("seed", 42, "workload seed; overrides the YAML's seed")
		seconds      = flag.Float64("seconds", runSeconds, "length of the timed window per workload")
		trace        = flag.Int("trace", 0, "1 = per-layer trace run, 0 = end-to-end metrics with tracing off")
		out          = flag.String("o", "", "with all workloads: write the result set to this file (input of -compare)")
		compare      = flag.Bool("compare", false, "compare two result sets: -compare a.json b.json")
		spec         = flag.Bool("spec", false, "print BENCHMARK.json as the code defines it")
		child        = flag.String("child", "", "internal: the role of a re-executed child process")
	)
	flag.Parse()
	// All concurrency is the program's own, on at most two cores, so that
	// "less work" and "same work on more cores" stay distinguishable.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))

	var err error
	switch {
	case *spec:
		err = printSpec(os.Stdout)
	case *compare:
		err = runCompare(flag.Args())
	case *child != "":
		err = runChild(*child, *workloadName, *seed, time.Duration(*seconds*float64(time.Second)))
	case *workloadName != "":
		err = runOne(*workloadName, *seed, *seconds, *trace == 1)
	default:
		err = runAll(*seed, *seconds, *trace == 1, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// runChild is the body of a re-executed child: it does one role's work in a
// fresh process — so cold caches are really cold and peak RSS is per
// workload — and prints one JSON document on standard output.
func runChild(role, name string, seed int64, window time.Duration) error {
	var v any
	switch role {
	case "setup":
		// Set-up only: load, validate and one cold deployment.
		w, err := loadWorkload(name, seed, 1)
		if err != nil {
			return err
		}
		if _, err := w.deploy(); err != nil {
			return err
		}
		v = map[string]float64{"setup_s": time.Since(processStart).Seconds()}
	case "measure":
		run, _, err := measureE2E(name, seed, window, 3, 1)
		if err != nil {
			return err
		}
		v = run
	case "trace":
		run, err := measureTrace(name, seed, window, 1, outDir())
		if err != nil {
			return err
		}
		v = run
	default:
		return fmt.Errorf("unknown child role %q", role)
	}
	return json.NewEncoder(os.Stdout).Encode(v)
}
