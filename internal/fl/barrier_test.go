package fl

import (
	"sync"

	"fedcdp/internal/nn"
	"fedcdp/internal/tensor"
)

// The lockstep ("barrier") round is the parity oracle for runStreamingRound:
// it was the production round before the streaming scheduler replaced it and
// lives on here, in test code only, so every plan family (faults, adversaries,
// weighted folds, populations, deadlines off) can pin the streaming round
// bit-identical to it. RunBarrier drives it through the same round engine as
// Run; the external tests in parity_test.go reach it by the same name.

// RunBarrier is Run with every round executed by the lockstep oracle.
func RunBarrier(cfg Config) (*History, error) {
	return RunWith(cfg, func(cfg Config) (RoundRunner, error) { return barrierRunner{newLocalRunner(cfg)}, nil })
}

// barrierRunner is the in-process runner with its round swapped for the
// oracle's.
type barrierRunner struct{ *localRunner }

func (b barrierRunner) Round(round int, cohort []int, global *nn.Model) (RoundStats, error) {
	return runBarrierRound(b.cfg, global, cohort, round, b.workers, b.agg, b.clock), nil
}

// faultLost reports whether a cohort member's contribution is lost to the
// fault plan this round.
func faultLost(cfg Config, round, client int) bool {
	f := cfg.Plan
	return f != nil && (f.CrashClient(round, client) || f.DropUpdate(round, client))
}

// runBarrierRound is the original lockstep round: train the whole cohort,
// materialize every update, sanitize them as one batch, then aggregate.
// Kept as the semantic/parity reference for the streaming round (the
// aggregation arithmetic itself is shared — both fold through the same
// Aggregator). It has no deadline, so the clock is unused.
func runBarrierRound(cfg Config, global *nn.Model, cohort []int, round int, workers *workerPool, agg Aggregator, _ Clock) RoundStats {
	updates, stats, weights := trainCohort(cfg, global, cohort, round, workers)
	// Fault injection: contributions lost to the plan (crashes never
	// trained — trainCohort skipped them; drops trained but never arrive)
	// are removed before sanitization and folding, so the barrier round
	// commits exactly the survivors, in exactly the cohort order, the
	// streaming runtime commits.
	live := make([]int, 0, len(cohort))
	for i, id := range cohort {
		if updates[i] != nil && !faultLost(cfg, round, id) {
			live = append(live, i)
		}
	}
	if san, ok := cfg.Strategy.(ServerSanitizer); ok {
		noise := ServerNoise(cfg.Seed, round)
		for _, i := range live {
			// Keyed by original cohort position, matching the streaming
			// runtime's per-update streams under any survivor set.
			san.ServerSanitize(round, i, updates[i], noise)
		}
	}
	params := global.Params()
	agg.Begin(params)
	for _, i := range live {
		foldInto(agg, updates[i], weights[i])
	}
	rs := RoundStats{Clients: len(live), Dropped: len(cohort) - len(live)}
	for _, i := range live {
		rs.MeanGradNorm += stats[i].MeanGradNorm
		rs.MsPerIter += stats[i].MsPerIter()
	}
	if n := float64(len(live)); n > 0 {
		rs.MeanGradNorm /= n
		rs.MsPerIter /= n
	}
	rs.Committed = len(live) >= cfg.MinQuorum
	if rs.Committed {
		agg.Commit(params)
	}
	return rs
}

// trainCohort runs local training for every cohort member on the worker
// pool and returns updates, stats and aggregation weights (the client's
// local example count) aligned with the cohort order.
func trainCohort(cfg Config, global *nn.Model, cohort []int, round int, workers *workerPool) ([][]*tensor.Tensor, []ClientStats, []float64) {
	updates := make([][]*tensor.Tensor, len(cohort))
	stats := make([]ClientStats, len(cohort))
	weights := make([]float64, len(cohort))
	globalParams := tensor.CloneAll(global.Params())

	var wg sync.WaitGroup
	for i, id := range cohort {
		wg.Add(1)
		w := workers.acquire()
		go func(i, id int, w *worker) {
			defer wg.Done()
			defer workers.release(w)
			if cfg.Plan != nil && cfg.Plan.CrashClient(round, id) {
				// Mid-round crash: the update never materializes (the nil
				// slot marks the loss for the caller).
				return
			}
			w.model.SetParams(globalParams)
			data := clientShard(cfg, round, id)
			weights[i] = float64(data.Len())
			updates[i], stats[i] = cfg.Strategy.ClientUpdate(w.envFor(cfg.Seed, cfg.Round, round, id, data))
			// Byzantine corruption happens client-side, after training and
			// before the update "leaves" — the same point the streaming
			// runtime and the transport harness apply it.
			if cfg.Plan != nil {
				cfg.Plan.CorruptUpdate(round, id, updates[i])
			}
		}(i, id, w)
	}
	wg.Wait()
	return updates, stats, weights
}
