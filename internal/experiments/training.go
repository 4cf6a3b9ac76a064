package experiments

import (
	"fmt"

	"fedcdp/internal/config"
	"fedcdp/internal/core"
	"fedcdp/internal/dataset"
)

// simNoiseFactor rescales the paper's noise scale σ to the simulation's
// reduced averaging budget. The paper's accuracy results rest on B·√(L·Kt)
// averaging with L=100 local iterations and up to Kt=5000 participants; the
// CPU-scale simulation runs L=20 and Kt≈8-48, so running the paper's σ=6
// verbatim floods every method with noise (see DESIGN.md, noise-compensation
// substitution). The factor is calibrated so that the default C=4, σ=6
// setting lands in the paper's regime: Fed-SDP partially degraded, Fed-CDP
// close to non-private, Fed-CDP(decay) best. Privacy accounting (Table 6)
// always uses the paper's true parameters and is unaffected.
const simNoiseFactor = 1.0 / 100

// sigmaNote is how every report that trained under simNoiseFactor says so
// where it says σ.
var sigmaNote = fmt.Sprintf("accuracy is trained at the paper's σ × simNoiseFactor (σ=6 → %g, the default method.sigma; DESIGN.md, noise scaling); attack and timing rows use σ=6 verbatim", 6*simNoiseFactor)

// scaled is what the accuracy drivers set on top of the user's experiment:
// the horizon at experiment.scale — rounds and local iterations floored at
// the learning threshold of the synthetic CNN benchmarks (T·L ≈ 400 SGD
// steps), growing toward the paper's budget above scale 1 — and one
// evaluation, of the final round. K = 16, Kt = 8 and σ = 0.06 are
// config.Default()'s and, like every other key, the user's to move.
func (p plan) scaled(sets ...string) []string {
	return append([]string{
		kv("training.rounds", p.n(20, 20)),
		kv("training.iters", p.n(20, 20)),
		kv("training.val-examples", p.n(300, 100)),
		"training.eval-every=100",
	}, sets...)
}

var accuracyMethods = []string{core.MethodNonPrivate, core.MethodFedSDP, core.MethodFedCDP, core.MethodFedCDPDecay}

// Table1 reproduces Table I: benchmark setup and non-private accuracy/cost.
func Table1(e *config.Experiment) (*Report, error) {
	p := plan{"table1", e}
	r := &Report{
		Name:   "table1",
		Title:  "Benchmark datasets and parameters (non-private federated learning)",
		Header: []string{"dataset", "#feat", "#cls", "data/client", "B", "L(paper)", "T(paper)", "acc", "acc(paper)", "ms/iter", "ms/iter(paper)"},
		Notes: []string{
			"synthetic stand-ins for the paper's datasets (see DESIGN.md); L and T are scaled for CPU runs",
			"absolute ms/iter differs from the paper's GPU numbers; Table 3 compares the method ratios",
		},
	}
	runs, err := p.matrix(p.scaled("method.name="+core.MethodNonPrivate), each("data.dataset", dataset.Names()...))
	if err != nil {
		return nil, err
	}
	for _, res := range runs {
		spec := res.Spec
		r.Rows = append(r.Rows, []string{
			spec.Name,
			fmt.Sprint(spec.Features),
			fmt.Sprint(spec.Classes),
			fmt.Sprint(spec.PerClient),
			fmt.Sprint(spec.BatchSize),
			fmt.Sprint(spec.LocalIters),
			fmt.Sprint(spec.Rounds),
			f3ok(res.FinalAccuracy()),
			f3(paperNonPrivateAcc[spec.Name]),
			f1ok(res.MeanMsPerIter()),
			f1(paperNonPrivateCost[spec.Name]),
		})
	}
	return r, nil
}

// Table2 reproduces Table II: MNIST accuracy across population sizes,
// participation rates and methods. The paper's K ∈ {100, 1000, 10000} maps
// to scaled populations with the same participation fractions.
func Table2(e *config.Experiment) (*Report, error) {
	p := plan{"table2", e}
	ks := []int{40, 80, 160} // stand-ins for the paper's K = 100 / 1k / 10k
	kLabel := []string{"K~100", "K~1000", "K~10000"}
	fracs := []float64{0.05, 0.10, 0.20, 0.50}
	switch scale := p.scale(); { // gate grid breadth by effort level
	case scale < 1: // quick mode: smallest population only
		ks = ks[:1]
	case scale < 2: // default: two populations
		ks = ks[:2]
	}

	r := &Report{
		Name:   "table2",
		Title:  fmt.Sprintf("Accuracy by #total clients and Kt/K on MNIST (C=%g, trained at σ=%g)", e.Method.Clip, e.Method.Sigma),
		Header: []string{"method"},
		Notes: []string{
			"expected shape: accuracy grows with K and Kt/K; Fed-CDP > Fed-SDP; Fed-CDP(decay) >= Fed-CDP",
			"paper values for K=100 row span: non-private 0.924..0.965, Fed-SDP 0.803..0.872, Fed-CDP 0.815..0.903, decay 0.833..0.909",
			sigmaNote,
		},
	}
	var cohorts axis
	for ki, k := range ks {
		for _, f := range fracs {
			r.Header = append(r.Header, fmt.Sprintf("%s/%d%%", kLabel[ki], int(f*100)))
			// Cohorts below 4 clients hit a non-IID trap (2 classes per
			// client) that the paper's smallest cohort (Kt=5) avoids.
			kt := max(int(float64(k)*f), 4)
			cohorts = append(cohorts, []string{kv("training.k", k), kv("training.kt", kt)})
		}
	}
	runs, err := p.matrix(p.scaled("data.dataset=mnist"), each("method.name", accuracyMethods...), cohorts)
	if err != nil {
		return nil, err
	}
	for i, m := range accuracyMethods {
		row := []string{p.label(m)}
		for _, res := range runs[i*len(cohorts) : (i+1)*len(cohorts)] {
			row = append(row, f3ok(res.FinalAccuracy()))
		}
		r.Rows = append(r.Rows, row)
	}
	return r, nil
}

// Table3 reproduces Table III: per-iteration local training cost by method.
func Table3(e *config.Experiment) (*Report, error) {
	p := plan{"table3", e}
	r := &Report{
		Name:   "table3",
		Title:  "Time cost per local iteration per client (ms)",
		Header: []string{"method", "mnist", "cifar10", "lfw", "adult", "cancer", "x-over-np", "x-over-np(paper)"},
		Notes: []string{
			"expected shape: Fed-CDP ≈ 3-4x non-private (per-example clip+noise); decay ≈ Fed-CDP; Fed-SDP ≈ non-private",
		},
	}
	names := dataset.Names()
	runs, err := p.matrix([]string{
		"training.k=4", "training.kt=2", "training.rounds=1", kv("training.iters", p.n(10, 5)),
		"training.val-examples=10", "training.eval-every=100",
		"method.sigma=6",         // timing uses the paper's real noise scale
		"training.parallelism=1", // stable timing
	}, each("method.name", accuracyMethods...), each("data.dataset", names...))
	if err != nil {
		return nil, err
	}
	for i, m := range accuracyMethods {
		row := []string{p.label(m)}
		var ratioSum float64
		for j := range names {
			ms, _ := runs[i*len(names)+j].MeanMsPerIter()
			row = append(row, f1(ms))
			// accuracyMethods[0] is the non-private baseline.
			if base, _ := runs[j].MeanMsPerIter(); base > 0 {
				ratioSum += ms / base
			}
		}
		row = append(row, fmt.Sprintf("%.2f", ratioSum/float64(len(names))), paperRatioOverNP(p.label(m)))
		r.Rows = append(r.Rows, row)
	}
	return r, nil
}

func paperRatioOverNP(label string) string {
	p, ok := paperTable3[label]
	if !ok {
		return "-"
	}
	np := paperTable3["non-private"]
	var s float64
	for _, name := range dataset.Names() {
		s += p[name] / np[name]
	}
	return fmt.Sprintf("%.2f", s/float64(len(dataset.Names())))
}

// Table4 reproduces Table IV: Fed-CDP accuracy across clipping bounds.
func Table4(e *config.Experiment) (*Report, error) {
	return sweepTable(plan{"table4", e},
		fmt.Sprintf("Fed-CDP accuracy by clipping bound C (trained at σ=%g)", e.Method.Sigma),
		func(v float64) string { return kv("method.clip", v) },
		paperTable4,
		"expected shape: interior optimum (too-small C prunes signal, too-large C inflates noise variance)",
	)
}

// Table5 reproduces Table V: Fed-CDP accuracy across noise scales.
func Table5(e *config.Experiment) (*Report, error) {
	return sweepTable(plan{"table5", e},
		fmt.Sprintf("Fed-CDP accuracy by the paper's noise scale σ, each trained at σ·%g (C=%g)", simNoiseFactor, e.Method.Clip),
		func(v float64) string { return kv("method.sigma", v*simNoiseFactor) },
		paperTable5,
		"expected shape: accuracy decreases monotonically (mildly) with σ",
	)
}

// sweepTable trains Fed-CDP on every benchmark at each value of one swept
// key, beside the paper's accuracy for that value.
func sweepTable(p plan, title string, set func(v float64) string, paper map[string]map[float64]float64, note string) (*Report, error) {
	values := []float64{0.5, 1, 2, 4, 6, 8}
	r := &Report{Name: p.name, Title: title, Notes: []string{note, sigmaNote}}
	r.Header = []string{"dataset"}
	sweep := make(axis, len(values))
	for i, v := range values {
		r.Header = append(r.Header, fmt.Sprintf("%g", v), fmt.Sprintf("%g(paper)", v))
		sweep[i] = []string{set(v)}
	}
	names := dataset.Names()
	if p.scale() < 1 { // quick mode: one image + one tabular benchmark
		names = []string{"mnist", "adult"}
	}
	runs, err := p.matrix(p.scaled("method.name="+core.MethodFedCDP), each("data.dataset", names...), sweep)
	if err != nil {
		return nil, err
	}
	for i, ds := range names {
		row := []string{ds}
		for j, v := range values {
			row = append(row, f3ok(runs[i*len(values)+j].FinalAccuracy()), f3(paper[ds][v]))
		}
		r.Rows = append(r.Rows, row)
	}
	return r, nil
}

// Fig3 reproduces Figure 3: the decaying L2 norm of per-example gradients
// over federated training (mean across MNIST clients).
func Fig3(e *config.Experiment) (*Report, error) {
	p := plan{"fig3", e}
	// A fixed full-participation cohort gives a smooth norm series (the
	// paper averages a fixed set of 100 clients).
	k := p.n(20, 8)
	res, err := p.run(p.scaled("data.dataset=mnist", "method.name="+core.MethodNonPrivate,
		kv("training.k", k), kv("training.kt", k), kv("training.rounds", p.n(25, 8)), "training.eval-every=1000")...)
	if err != nil {
		return nil, err
	}
	r := &Report{
		Name:   "fig3",
		Title:  "Mean L2 norm of per-example gradients by round (MNIST, non-private)",
		Header: []string{"round", "mean-L2-norm"},
		Notes: []string{
			"expected shape: monotone-ish decay — early gradients are larger and more informative (drives Fed-CDP(decay))",
		},
	}
	for _, rs := range res.Rounds {
		r.Rows = append(r.Rows, []string{fmt.Sprint(rs.Round), f4(rs.MeanGradNorm)})
	}
	series := res.GradNormSeries()
	if len(series) >= 2 && series[len(series)-1] < series[0] {
		r.Notes = append(r.Notes, fmt.Sprintf("decay confirmed: %.4f -> %.4f", series[0], series[len(series)-1]))
	}
	return r, nil
}

// label is a method's report label: the Name of the strategy its row in
// core's method table builds, without the pruning a cell may wrap it in.
func (p plan) label(method string) string {
	c := p.e.CoreConfig()
	c.Method, c.CompressRatio = method, 0
	s, _ := c.Strategy() // a driver names only methods of core.Methods()
	return s.Name()
}
