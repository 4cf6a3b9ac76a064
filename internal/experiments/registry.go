package experiments

import (
	"fmt"
	"sort"

	"fedcdp/internal/config"
	"fedcdp/internal/dataset"
)

// Driver runs one experiment of the paper's evaluation on the user's
// experiment (see plan).
type Driver func(*config.Experiment) (*Report, error)

// Registry maps experiment ids (table/figure numbers) to their drivers.
func Registry() map[string]Driver {
	return map[string]Driver{
		"table1":    Table1,
		"table2":    Table2,
		"table3":    Table3,
		"table4":    Table4,
		"table5":    Table5,
		"table6":    Table6,
		"table7":    Table7,
		"fig1":      Fig1,
		"fig3":      Fig3,
		"fig4":      Fig4,
		"fig5":      Fig5,
		"faults":    FaultMatrix,
		"byzantine": AttackMatrix,
		"churn":     ChurnMatrix,
	}
}

// Names returns all experiment ids in sorted order.
func Names() []string {
	reg := Registry()
	names := make([]string, 0, len(reg))
	for n := range reg {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Run executes the named experiment and stamps the report with the digest of
// the experiment it ran on. When a non-default heterogeneity scenario is set,
// the report also carries it and the realized per-client dataset statistics
// (shard sizes, classes per client, label entropy) of every benchmark the
// experiment touched, measured over the experiment's K clients.
func Run(name string, e *config.Experiment) (*Report, error) {
	d, ok := Registry()[name]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", name, Names())
	}
	r, err := d(e)
	if err != nil {
		return nil, err
	}
	r.ConfigDigest = e.Digest()
	if e.Data.Scenario != "" {
		cfg := e.CoreConfig()
		part, err := cfg.Scenario.Partitioner()
		if err != nil {
			return nil, err
		}
		r.Scenario = cfg.Scenario.String()
		for _, dsName := range reportDatasets(r) {
			spec, serr := dataset.Get(dsName)
			if serr != nil {
				continue
			}
			ds := dataset.NewPartitioned(spec, e.Seed, part)
			r.Notes = append(r.Notes, fmt.Sprintf("%s partition: %s", dsName, ds.Stats(e.Training.K)))
		}
	}
	return r, nil
}

// reportDatasets lists the benchmarks an experiment report touched, in
// column order, by scanning its rows' first cells for benchmark names.
func reportDatasets(r *Report) []string {
	known := map[string]bool{}
	for _, n := range dataset.Names() {
		known[n] = true
	}
	var out []string
	seen := map[string]bool{}
	add := func(cell string) {
		if known[cell] && !seen[cell] {
			seen[cell] = true
			out = append(out, cell)
		}
	}
	for _, h := range r.Header {
		add(h)
	}
	for _, row := range r.Rows {
		if len(row) > 0 {
			add(row[0])
		}
	}
	if len(out) == 0 {
		// Method-major tables (table2, table3, fig5) span fixed benchmarks;
		// fall back to the flagship one so the note is never empty.
		out = []string{"mnist"}
	}
	return out
}
