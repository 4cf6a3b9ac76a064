package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// Verdicts of -compare, per (workload, metric).
const (
	improved   = "improved"
	unchanged  = "unchanged"
	regressed  = "regressed"
	unresolved = "unresolved" // the spread within a result set is wider than the bound
)

// wireBytesBoundInexact is the bound on wire_bytes_per_round where the runtime
// folds in arrival order and the count is not bit-reproducible by design.
const wireBytesBoundInexact = 0.01

// judge compares a base value a with a new value b. rel is how much worse b
// is as a share of a (negative = better); spread is the wider of the two
// sets' interquartile ranges as a share of their medians.
func judge(a, b metric, better string, bound float64) (verdict string, rel, spread float64) {
	if a.Value != 0 {
		rel = (b.Value - a.Value) / a.Value
	} else if b.Value != 0 {
		rel = 1
	}
	if better == "higher" {
		rel = -rel
	}
	for _, m := range []metric{a, b} {
		if m.N > 0 && m.Value != 0 {
			if s := (m.Q3 - m.Q1) / m.Value; s > spread {
				spread = s
			}
		}
	}
	switch {
	case rel > bound && rel > spread:
		return regressed, rel, spread
	case rel < -bound && -rel > spread:
		return improved, rel, spread
	case spread > bound:
		return unresolved, rel, spread
	}
	return unchanged, rel, spread
}

func readResultSet(path string) (*resultSet, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set resultSet
	if err := json.Unmarshal(b, &set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &set, nil
}

// readSpec finds BENCHMARK.json from the repository root or from benchmark/.
func readSpec() (*benchmarkSpec, error) {
	var firstErr error
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		b, err := os.ReadFile(path)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var spec benchmarkSpec
		if err := json.Unmarshal(b, &spec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &spec, nil
	}
	return nil, firstErr
}

// runCompare applies the bounds in BENCHMARK.json to two result sets of the
// same kind (both end-to-end or both traced) and fails on any regression,
// which includes any exact count that differs (a larger failed_share among
// them). Unresolved metrics are reported, not failed: they ask for more runs.
func runCompare(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: -compare a.json b.json")
	}
	base, err := readResultSet(args[0])
	if err != nil {
		return err
	}
	cur, err := readResultSet(args[1])
	if err != nil {
		return err
	}
	if base.Trace != cur.Trace {
		return fmt.Errorf("%s and %s are not the same kind of run (trace %v vs %v)", args[0], args[1], base.Trace, cur.Trace)
	}
	spec, err := readSpec()
	if err != nil {
		return err
	}
	byName := map[string]workloadResult{}
	for _, w := range cur.Workloads {
		byName[w.Workload] = w
	}
	fmt.Printf("base %s (seed %d, %s, %d cpus)  vs  %s (seed %d, %s, %d cpus)\n",
		args[0], base.Seed, base.GoVersion, base.NumCPU, args[1], cur.Seed, cur.GoVersion, cur.NumCPU)
	counts := map[string]int{}
	for _, a := range base.Workloads {
		b, ok := byName[a.Workload]
		if !ok {
			return fmt.Errorf("workload %s is missing from %s", a.Workload, args[1])
		}
		def, err := workloadDefFor(a.Workload)
		if err != nil {
			return err
		}
		row := func(name, better string, bound float64) {
			ma, okA := a.Metrics[name]
			mb, okB := b.Metrics[name]
			if !okA || !okB {
				return
			}
			verdict, rel, spread := judge(ma, mb, better, bound)
			counts[verdict]++
			fmt.Printf("%-13s %-30s %14.6g → %-14.6g %-8s worse by %+.2f%% of %.6g  (bound %.1f%%, spread %.1f%%)  %s\n",
				a.Workload, name, ma.Value, mb.Value, ma.Unit, 100*rel, ma.Value, 100*bound, 100*spread, verdict)
		}
		if !base.Trace {
			for _, m := range spec.EndToEnd {
				row(m.Name, m.Better, *m.Bound)
			}
		}
		for _, name := range exactCounts {
			bound := 0.0
			if name == "wire_bytes_per_round" && !def.BitIdentical {
				bound = wireBytesBoundInexact
			}
			row(name, "lower", bound)
		}
	}
	fmt.Printf("%d improved, %d unchanged, %d regressed, %d unresolved\n", counts[improved], counts[unchanged], counts[regressed], counts[unresolved])
	if counts[regressed] > 0 {
		return fmt.Errorf("%d regressed", counts[regressed])
	}
	return nil
}
