package fl

import (
	"math"
	"sync"

	"fedcdp/internal/tensor"
)

// Aggregator is the server-side fold of a federated round: updates are
// absorbed one at a time the moment they arrive, so server memory stays
// O(model) regardless of how many clients report (the barrier-era code
// materialized every update as [][]*tensor.Tensor — O(Kt × model)).
//
// Lifecycle per round: Begin(params) resets the accumulator against the
// current global parameters, Fold(update) absorbs one client update, and
// Commit(params) applies the aggregate — a no-op when nothing was folded,
// and skipped entirely by the runtime when the round misses its quorum.
// Fold is safe for concurrent use (the TCP server folds from concurrent
// client sessions); note that concurrent folding trades away bit-exact
// run-to-run reproducibility, which is why the simulator's deterministic
// mode serializes folds in cohort order (see DESIGN.md). Fold must not
// retain update past its return: a wire round's update aliases a decode
// buffer that is reused once it is folded, and an in-process round hands
// the update back to a worker's arena, where the next client's ΔW is
// drawn from it (robustBuffer copies for this).
type Aggregator interface {
	Begin(params []*tensor.Tensor)
	Fold(update []*tensor.Tensor)
	Count() int
	Commit(params []*tensor.Tensor)
}

// FedSGDAggregator folds updates into a running sum and commits
// W ← W + (1/n)·ΣΔW (Section IV-A). The accumulator buffers are reused
// across rounds, so steady-state aggregation allocates nothing.
type FedSGDAggregator struct {
	mu  sync.Mutex
	sum []*tensor.Tensor
	n   int
}

// NewFedSGD returns an empty FedSGD fold.
func NewFedSGD() *FedSGDAggregator { return &FedSGDAggregator{} }

// Begin implements Aggregator.
func (a *FedSGDAggregator) Begin(params []*tensor.Tensor) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.sum = resetLike(a.sum, params)
	a.n = 0
}

// Fold implements Aggregator.
func (a *FedSGDAggregator) Fold(update []*tensor.Tensor) {
	a.mu.Lock()
	defer a.mu.Unlock()
	tensor.AddAllScaled(a.sum, 1, update)
	a.n++
}

// Count implements Aggregator.
func (a *FedSGDAggregator) Count() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.n
}

// Commit implements Aggregator.
func (a *FedSGDAggregator) Commit(params []*tensor.Tensor) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.n == 0 {
		return
	}
	tensor.AddAllScaled(params, 1/float64(a.n), a.sum)
}

// WeightedFolder is implemented by aggregators that weight each folded
// update — example-count-weighted FedAvg under quantity-skewed partitions.
// The runtimes probe for it and pass the client's local example count; a
// plain Fold is equivalent to FoldWeighted with weight 1.
type WeightedFolder interface {
	FoldWeighted(update []*tensor.Tensor, weight float64)
}

// WeightedFedAvgAggregator folds client models with example-count weights
// and commits W ← Σ n_k·(W + ΔW_k) / Σ n_k — FedAvg as McMahan et al.
// define it, which plain FedAvg only matches when every client holds the
// same amount of data. The fold keeps a running weighted sum and a weight
// total, so server memory stays O(model) and the commit is a single scale:
// the result depends only on the multiset of (update, weight) pairs, not
// on arrival order, up to floating-point commutativity (the runtimes'
// cohort-order fold pins even that — see DESIGN.md, "Scenario engine").
type WeightedFedAvgAggregator struct {
	unit bool // every fold weighs 1 (NewFedAvg)
	mu   sync.Mutex
	sum  []*tensor.Tensor
	base []*tensor.Tensor // W at Begin, added back per fold
	wsum float64
	n    int
}

// NewWeightedFedAvg returns an empty weighted-FedAvg fold.
func NewWeightedFedAvg() *WeightedFedAvgAggregator { return &WeightedFedAvgAggregator{} }

// NewFedAvg returns an empty FedAveraging fold: the weighted fold with every
// weight ignored, W ← (1/n)·Σ(W + ΔW_k) — algebraically the same map as
// FedSGD, the equivalence the paper invokes to treat the two interchangeably.
func NewFedAvg() *WeightedFedAvgAggregator { return &WeightedFedAvgAggregator{unit: true} }

// Begin implements Aggregator.
func (a *WeightedFedAvgAggregator) Begin(params []*tensor.Tensor) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.sum = resetLike(a.sum, params)
	if geometryMatches(a.base, params) {
		for i, p := range params {
			a.base[i].CopyFrom(p)
		}
	} else {
		a.base = tensor.CloneAll(params)
	}
	a.wsum = 0
	a.n = 0
}

// Fold implements Aggregator: an unweighted fold counts as weight 1.
func (a *WeightedFedAvgAggregator) Fold(update []*tensor.Tensor) { a.FoldWeighted(update, 1) }

// maxFoldWeight caps a single fold's weight. Weights are client example
// counts — far below a million in any real federation — so the cap only
// bites on malformed or hostile wire values, where an enormous finite
// weight would otherwise overflow the running sum or let one client
// dictate the aggregate.
const maxFoldWeight = 1e6

// FoldWeighted implements WeightedFolder. Weights that are non-positive
// (a remote client predating the weight field reports 0) or not finite
// (NaN/Inf from a malformed or hostile wire message would otherwise
// poison every parameter at Commit) are clamped to 1; finite weights are
// capped at maxFoldWeight.
func (a *WeightedFedAvgAggregator) FoldWeighted(update []*tensor.Tensor, weight float64) {
	if a.unit || !(weight > 0) || math.IsInf(weight, 1) {
		weight = 1
	} else if weight > maxFoldWeight {
		weight = maxFoldWeight
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	tensor.AddAllScaled(a.sum, weight, a.base)
	tensor.AddAllScaled(a.sum, weight, update)
	a.wsum += weight
	a.n++
}

// Count implements Aggregator.
func (a *WeightedFedAvgAggregator) Count() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.n
}

// Commit implements Aggregator.
func (a *WeightedFedAvgAggregator) Commit(params []*tensor.Tensor) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.n == 0 || a.wsum == 0 {
		return
	}
	inv := 1 / a.wsum
	for i, p := range params {
		p.Zero()
		p.AddScaled(inv, a.sum[i])
	}
}

// foldInto routes one update into agg with its weight when the aggregator
// is weight-aware — the single dispatch rule shared by the in-process and
// RPC runtimes.
func foldInto(agg Aggregator, update []*tensor.Tensor, weight float64) {
	if wf, ok := agg.(WeightedFolder); ok {
		wf.FoldWeighted(update, weight)
		return
	}
	agg.Fold(update)
}

// geometryMatches reports whether buf can hold params' values tensor for
// tensor.
func geometryMatches(buf, params []*tensor.Tensor) bool {
	if len(buf) != len(params) {
		return false
	}
	for i, t := range buf {
		if t.Len() != params[i].Len() {
			return false
		}
	}
	return true
}

// resetLike returns a zeroed accumulator shaped like params, reusing buf
// when its geometry already matches.
func resetLike(buf, params []*tensor.Tensor) []*tensor.Tensor {
	if geometryMatches(buf, params) {
		for _, t := range buf {
			t.Zero()
		}
		return buf
	}
	return tensor.ZerosLike(params)
}

// AggregateFedSGD applies FedSGD in place: params ← params + mean(ΔW) over
// the collected updates (Section IV-A), implemented as a fold over a
// FedSGDAggregator so batch and streaming callers share one arithmetic
// (sum first, scale once at commit). Empty update sets leave the
// parameters unchanged.
func AggregateFedSGD(params []*tensor.Tensor, updates [][]*tensor.Tensor) {
	agg := NewFedSGD()
	agg.Begin(params)
	for _, u := range updates {
		agg.Fold(u)
	}
	agg.Commit(params)
}
