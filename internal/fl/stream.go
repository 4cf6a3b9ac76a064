package fl

import (
	"time"

	"fedcdp/internal/nn"
	"fedcdp/internal/tensor"
)

// This file implements the streaming round scheduler of the in-process
// simulator: cohort members are dispatched onto the worker pool and their
// updates are folded into the round's Aggregator the moment they arrive,
// so the server side of the simulation holds O(model) update state
// instead of materializing the whole cohort (O(Kt × model)). A per-round
// deadline turns stragglers into dropouts — the deployment failure mode
// that DropoutRate's coin flip only approximates — and a minimum quorum
// decides whether the round commits at all.

// clientResult carries one finished client's contribution back to the
// round scheduler. idx is the client's position in the cohort, which the
// scheduler uses to commit in cohort order; weight is the client's local
// example count, consumed by weight-aware aggregators.
// lost marks a contribution the fault plan destroyed (mid-round crash,
// update dropped in transit): the scheduler must still account for the
// cohort slot, but nothing is folded.
type clientResult struct {
	idx    int
	update []*tensor.Tensor
	stats  ClientStats
	weight float64
	lost   bool
}

// dispatchCohort hands every cohort member to the worker pool and streams
// results into the (fully buffered) results channel; sends never block,
// so stragglers cut off by a deadline finish quietly, release their
// worker, and have their late result ignored with the channel. Once
// cancel closes (the round is over), members not yet dispatched are
// skipped entirely — without this, a deadline round would keep training
// its abandoned tail and starve every following round's workers.
func dispatchCohort(cfg Config, cohort []int, round int, workers *workerPool, globalParams []*tensor.Tensor, results chan<- clientResult, cancel <-chan struct{}) {
	for i, id := range cohort {
		select {
		case <-cancel:
			return
		default:
		}
		w := workers.acquire()
		select {
		case <-cancel: // the round ended while waiting for a worker
			workers.release(w)
			return
		default:
		}
		go func(i, id int, w *worker) {
			defer workers.release(w)
			if cfg.Plan != nil && cfg.Plan.CrashClient(round, id) {
				// Mid-round crash: the client dies before its update (or
				// even its stats) exist. The slot still resolves so the
				// round's accounting closes.
				results <- clientResult{idx: i, lost: true}
				return
			}
			data := clientShard(cfg, round, id)
			upd, st := w.step(cfg.Strategy, cfg.Seed, round, id, globalParams, cfg.Round, data, cfg.Plan)
			if cfg.Plan != nil && cfg.Plan.DropUpdate(round, id) {
				// The update was computed but lost in transit.
				results <- clientResult{idx: i, lost: true}
				return
			}
			results <- clientResult{idx: i, update: upd, stats: st, weight: float64(data.Len())}
		}(i, id, w)
	}
}

// Round implements RoundRunner: the streaming round.
func (l *localRunner) Round(round int, cohort []int, global *nn.Model) (RoundStats, error) {
	cfg, agg := l.cfg, l.agg
	params := global.Params()
	agg.Begin(params)

	rs := RoundStats{}
	folded := 0

	// commit sanitizes and folds exactly one update. It runs in cohort
	// order, which makes the float fold — and so the whole round — a pure
	// function of the seed and the survivor set (barrier_test.go pins it
	// bit-identical to the lockstep oracle).
	san, _ := cfg.Strategy.(ServerSanitizer)
	commit := func(res clientResult) {
		if san != nil {
			san.ServerSanitize(round, res.idx, res.update, ServerNoise(cfg.Seed, round))
		}
		foldInto(agg, res.update, res.weight)
		folded++
		rs.MeanGradNorm += res.stats.MeanGradNorm
		rs.MsPerIter += res.stats.MsPerIter()
		if cfg.foldHook != nil {
			cfg.foldHook(round, folded)
		}
	}

	pending := make(map[int]clientResult)
	next := 0
	// handle parks out-of-order results until their cohort predecessors
	// have folded (the reorder buffer is bounded by the scheduler's
	// out-of-orderness — in practice Parallelism, in the worst case the
	// cohort).
	handle := func(res clientResult) {
		pending[res.idx] = res
		for {
			r, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			next++
			if !r.lost {
				commit(r)
			}
		}
	}
	// flushPending commits in-order whatever arrived before a cutoff left
	// holes in the cohort sequence (ascending index keeps it deterministic
	// given the set of survivors).
	flushPending := func() {
		for len(pending) > 0 {
			for i := next; ; i++ {
				if r, ok := pending[i]; ok {
					delete(pending, i)
					next = i + 1
					if !r.lost {
						commit(r)
					}
					break
				}
			}
		}
	}

	if len(cohort) > 0 {
		results := make(chan clientResult, len(cohort))
		cancel := make(chan struct{})
		defer close(cancel)
		go dispatchCohort(cfg, cohort, round, l.workers, tensor.CloneAll(params), results, cancel)

		var deadlineC <-chan time.Time
		if cfg.RoundDeadline > 0 {
			deadlineC = l.clock.After(cfg.RoundDeadline)
		}
		received := 0
	collect:
		for received < len(cohort) {
			select {
			case res := <-results:
				received++
				handle(res)
			case <-deadlineC:
				// Straggler cutoff: fold everything already delivered,
				// then close the round. Trainers still running write into
				// the buffered channel and are ignored.
				for {
					select {
					case res := <-results:
						received++
						handle(res)
					default:
						flushPending()
						break collect
					}
				}
			}
		}
		flushPending()
	}

	if n := float64(folded); n > 0 {
		rs.MeanGradNorm /= n
		rs.MsPerIter /= n
	}
	rs.Clients = folded
	rs.Dropped = len(cohort) - folded
	rs.Committed = folded >= cfg.MinQuorum
	if rs.Committed {
		agg.Commit(params)
	}
	return rs, nil
}
