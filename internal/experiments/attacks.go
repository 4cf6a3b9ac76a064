package experiments

import (
	"fmt"

	"fedcdp/internal/attack"
	"fedcdp/internal/config"
	"fedcdp/internal/core"
	"fedcdp/internal/dataset"
	"fedcdp/internal/tensor"
)

// Attack experiment machinery. A victim client runs the paper's first local
// iteration (where gradients leak the most, Section VII-C); the adversary
// observes the gradients each threat type exposes under each defense — what
// core.Config.Leak says it does — and runs the gradient-matching
// reconstruction attack.

const attackHidden = 32

// attackModel returns the victim MLP for a benchmark (see DESIGN.md for the
// CNN→MLP substitution note).
func attackModel(spec dataset.Spec, seed int64) *attack.MLP {
	return attack.NewMLP([]int{spec.Features, attackHidden, spec.Classes}, attack.ActSigmoid, tensor.NewRNG(seed))
}

// victim resolves an attack cell: the experiment whose defense the leak
// oracle reads, bound to its benchmark — at the paper's verbatim σ = 6, not
// the σ·simNoiseFactor the accuracy rows train at.
func (p plan) victim(sets ...string) (*core.Resolved, error) {
	c, err := p.cell(append(sets[:len(sets):len(sets)], "method.sigma=6")...)
	if err != nil {
		return nil, err
	}
	return c.CoreConfig().Resolve()
}

// leak returns what an adversary of the threat type reads off victim m
// training on its first local batch (xs, ys), in its first round, under
// cfg's defense.
func leak(m *attack.MLP, cfg core.Config, threat int, xs []*tensor.Tensor, ys []int, rng *tensor.RNG) (gw, gb []*tensor.Tensor, err error) {
	g, err := cfg.Leak(threat, 0, m.ExampleGradients(xs, ys), rng)
	if err != nil {
		return nil, nil, err
	}
	return g[:m.Layers()], g[m.Layers():], nil
}

// attackStats aggregates reconstruction attempts.
type attackStats struct {
	successes int
	attempts  int
	sumDist   float64
	sumIters  int
}

func (s *attackStats) add(r attack.Result) {
	s.attempts++
	if r.Revealed {
		s.successes++
	}
	s.sumDist += r.Distance
	s.sumIters += r.Iterations
}

func (s attackStats) row() (success string, dist, iters string) {
	n := float64(s.attempts)
	return yn(s.successes*2 >= s.attempts), f4(s.sumDist / n), fmt.Sprintf("%d", s.sumIters/s.attempts)
}

// Table7 reproduces Table VII: attack effectiveness on MNIST and LFW across
// defenses, averaged over clients, with the 300-iteration attack budget.
func Table7(e *config.Experiment) (*Report, error) {
	p := plan{"table7", e}
	nClients := p.n(5, 2)
	maxIters := p.n(300, 60)

	r := &Report{
		Name:   "table7",
		Title:  fmt.Sprintf("Attack effectiveness, avg of %d clients, max %d attack iterations", nClients, maxIters),
		Header: []string{"dataset", "type", "method", "succeed", "succ(paper)", "distance", "dist(paper)", "iters", "iters(paper)"},
		Notes: []string{
			"expected shape: non-private leaks everywhere; Fed-SDP stops type-0&1 but NOT type-2; Fed-CDP(+decay) stops all",
			"distances: success => small, failure => large; decay > cdp (stronger masking)",
		},
	}

	for _, dsName := range []string{"mnist", "lfw"} {
		for _, typ := range []string{"type01", "type2"} {
			threat, batch := 1, 3
			if typ == "type2" {
				threat, batch = 2, 1
			}
			for _, method := range accuracyMethods {
				v, err := p.victim("data.dataset="+dsName, "method.name="+method)
				if err != nil {
					return nil, err
				}
				var st attackStats
				for c := 0; c < nClients; c++ {
					m := attackModel(v.Spec, e.Seed+int64(c))
					xs, ys := v.FL.Data.Client(c).Batch(0, batch)
					gw, gb, err := leak(m, v.Cfg, threat, xs, ys, tensor.Split(e.Seed, 7, int64(c)))
					if err != nil {
						return nil, err
					}
					if threat == 2 {
						ys = []int{attack.InferLabel(gb[m.Layers()-1])}
					}
					st.add(reconstruct(m, gw, gb, ys, xs, attack.Config{MaxIters: maxIters, Seed: e.Seed + int64(100+c)}))
				}
				succ, dist, iters := st.row()
				paper := paperTable7[dsName+"-"+typ][p.label(method)]
				r.Rows = append(r.Rows, []string{
					dsName, typ, p.label(method),
					succ, yn(paper.Succeed),
					dist, f4(paper.Distance),
					iters, fmt.Sprint(paper.Iters),
				})
			}
		}
	}
	return r, nil
}

// Fig1 reproduces Figure 1b: gradient leakage succeeds on non-private FL for
// all three image benchmarks, via both batched (type-0&1) and per-example
// (type-2) leakage.
func Fig1(e *config.Experiment) (*Report, error) {
	p := plan{"fig1", e}
	r := &Report{
		Name:   "fig1",
		Title:  "Gradient leakage attacks on non-private FL (reconstruction demo)",
		Header: []string{"dataset", "leak", "succeed", "distance", "iters"},
		Notes: []string{
			"paper: all three types succeed by iteration ~50 with T=300; type-2 converges fastest",
			"fedattack -type 2 -out <dir> renders a reconstruction and its truth as PGM images",
		},
	}
	for _, dsName := range []string{"mnist", "lfw", "cifar10"} {
		v, err := p.victim("data.dataset="+dsName, "method.name="+core.MethodNonPrivate)
		if err != nil {
			return nil, err
		}
		m := attackModel(v.Spec, e.Seed)
		noise := tensor.Split(e.Seed, 8)
		acfg := attack.Config{MaxIters: p.n(300, 60), Seed: e.Seed}

		// Type-0&1 on a batch of 3.
		xs, ys := v.FL.Data.Client(0).Batch(0, 3)
		gw, gb, err := leak(m, v.Cfg, 1, xs, ys, noise)
		if err != nil {
			return nil, err
		}
		res := reconstruct(m, gw, gb, ys, xs, acfg)
		r.Rows = append(r.Rows, []string{dsName, "type-0&1 (B=3)", yn(res.Revealed), f4(res.Distance), fmt.Sprint(res.Iterations)})

		// Type-2 on one example.
		gw, gb, err = leak(m, v.Cfg, 2, xs[:1], ys[:1], noise)
		if err != nil {
			return nil, err
		}
		res = reconstruct(m, gw, gb, []int{attack.InferLabel(gb[m.Layers()-1])}, xs[:1], acfg)
		r.Rows = append(r.Rows, []string{dsName, "type-2", yn(res.Revealed), f4(res.Distance), fmt.Sprint(res.Iterations)})
	}
	return r, nil
}

// Fig4 reproduces Figure 4: visual resilience of each FL privacy module
// against the three leakage types on LFW, including the DSSGD baseline.
func Fig4(e *config.Experiment) (*Report, error) {
	p := plan{"fig4", e}
	r := &Report{
		Name:   "fig4",
		Title:  "Reconstruction distance by defense and leakage type (LFW)",
		Header: []string{"module", "type-0 dist", "type-1 dist", "type-2 dist"},
		Notes: []string{
			"expected shape: non-private and DSSGD vulnerable to all types (small distances);",
			"fed-sdp(client) blocks type-0&1 only; fed-sdp(server) blocks type-0 only; fed-cdp(+decay) block all",
		},
	}
	for _, method := range []string{core.MethodNonPrivate, core.MethodDSSGD, core.MethodFedSDP, core.MethodFedSDPSrv, core.MethodFedCDP, core.MethodFedCDPDecay} {
		v, err := p.victim("data.dataset=lfw", "method.name="+method)
		if err != nil {
			return nil, err
		}
		m := attackModel(v.Spec, e.Seed)
		xs, ys := v.FL.Data.Client(0).Batch(0, 3)
		acfg := attack.Config{MaxIters: p.n(300, 60), Seed: e.Seed}
		row := []string{p.label(method)}
		if method == core.MethodFedSDP {
			row[0] = "fed-sdp(client)"
		}
		// Type-0 is the server's view, type-1 the client's (server-only
		// sanitization leaks it raw), type-2 the per-example view during
		// training — dense, so only the shared updates are mask-matched.
		for threat := 0; threat <= 2; threat++ {
			tcfg, n := acfg, 3
			if threat == 2 {
				n = 1
			} else {
				tcfg.MaskNonzero = method == core.MethodDSSGD
			}
			gw, gb, err := leak(m, v.Cfg, threat, xs[:n], ys[:n], tensor.Split(e.Seed, int64(9+threat)))
			if err != nil {
				return nil, err
			}
			row = append(row, f4(reconstruct(m, gw, gb, ys[:n], xs[:n], tcfg).Distance))
		}
		r.Rows = append(r.Rows, row)
	}
	return r, nil
}

// Fig5 reproduces Figure 5: accuracy and type-2 resilience under
// communication-efficient federated learning (gradient pruning).
func Fig5(e *config.Experiment) (*Report, error) {
	p := plan{"fig5", e}
	ratios := []float64{0, 0.1, 0.2, 0.3, 0.5, 0.7}
	if p.scale() < 1 { // quick mode: endpoints and the paper's 30% point
		ratios = []float64{0, 0.3, 0.7}
	}

	r := &Report{
		Name:   "fig5",
		Title:  "Communication-efficient FL: accuracy and type-2 attack distance by prune ratio (MNIST)",
		Header: []string{"method", "metric"},
		Notes: []string{
			"paper: compressed non-private/Fed-SDP gradients still leak up to ~30% compression;",
			"Fed-CDP is resilient at all ratios and Fed-CDP(decay) the most resilient",
			fmt.Sprintf("accuracy rows are trained at σ=%g, t2-attack-dist rows attack gradients sanitized at σ=6", e.Method.Sigma),
			sigmaNote,
		},
	}
	for _, ratio := range ratios {
		r.Header = append(r.Header, fmt.Sprintf("prune=%.0f%%", ratio*100))
	}

	for _, method := range accuracyMethods {
		accRow := []string{p.label(method), "accuracy"}
		distRow := []string{p.label(method), "t2-attack-dist"}
		for _, ratio := range ratios {
			sets := p.scaled("data.dataset=mnist", "method.name="+method,
				kv("training.k", p.n(20, 8)), kv("training.kt", p.n(8, 4)), kv("method.compress", ratio))
			res, err := p.run(sets...)
			if err != nil {
				return nil, err
			}
			accRow = append(accRow, f3ok(res.FinalAccuracy()))

			// Type-2 attack on the compressed per-example gradient.
			v, err := p.victim(sets...)
			if err != nil {
				return nil, err
			}
			m := attackModel(v.Spec, e.Seed)
			xs, ys := v.FL.Data.Client(0).Batch(0, 1)
			gw, gb, err := leak(m, v.Cfg, 2, xs, ys, tensor.Split(e.Seed, 12, int64(ratio*100)))
			if err != nil {
				return nil, err
			}
			ares := reconstruct(m, gw, gb, ys, xs, attack.Config{MaxIters: p.n(300, 60), Seed: e.Seed, MaskNonzero: ratio > 0})
			distRow = append(distRow, f4(ares.Distance))
		}
		r.Rows = append(r.Rows, accRow, distRow)
	}
	return r, nil
}
