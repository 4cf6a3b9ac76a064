package fl

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"fedcdp/internal/tensor"
)

// Robust aggregation folds: coordinate-wise median and trimmed mean (Yin et
// al., ICML'18) and Krum (Blanchard et al., NeurIPS'17) — the classic
// defenses against Byzantine cohort members, selected via AggMedian /
// AggTrimmed / AggKrum.
//
// Unlike the streaming folds (FedSGD and friends hold one O(model)
// accumulator), a robust statistic needs the raw per-client updates: every
// fold CLONES its update into a buffer, so server memory is O(Kt·model) per
// round — the explicit price of robustness, paid only when a robust rule is
// selected. The buffered statistics are pure functions of the update
// MULTISET: the median picks sorted middles ((a+b)/2 for even n), the
// trimmed mean sorts before trimming and sums survivors in exact fixed-point
// arithmetic (ExactVec), and Krum's pairwise distances are symmetric with a
// deterministic total-order tie-break — so Commit is bit-identical in any
// arrival order, at any GOMAXPROCS, even over the simnet fabric's
// arrival-order folds.
//
// Robust folds intentionally ignore aggregation weights (a hostile client
// could inflate its own) and client identity, and they are NOT
// grouping-invariant: an edge tree cannot compute a median of medians and
// get the median. NewAggregatorFor refuses robust rules on any sharded
// topology (see the tree caveat in DESIGN.md).

// robustBuffer is the shared Fold side of every robust aggregator: cloned
// updates (Fold must not retain its argument; see Aggregator), collected
// under a lock, geometry-checked against Begin's params.
type robustBuffer struct {
	mu      sync.Mutex
	shape   []*tensor.Tensor // params at Begin, for geometry checks only
	updates [][]*tensor.Tensor
}

func (b *robustBuffer) Begin(params []*tensor.Tensor) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.shape = params
	b.updates = b.updates[:0]
}

// Fold clones the update into the buffer — O(model) per fold, O(Kt·model)
// per round. Updates whose geometry does not match the round's parameters
// are dropped (the wire layer validates shapes; this guards in-process
// misuse from poisoning an order statistic).
func (b *robustBuffer) Fold(update []*tensor.Tensor) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !geometryMatches(update, b.shape) {
		return
	}
	b.updates = append(b.updates, tensor.CloneAll(update))
}

func (b *robustBuffer) Count() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.updates)
}

// column gathers coordinate (layer i, offset j) across all buffered updates
// into dst.
func (b *robustBuffer) column(dst []float64, i, j int) []float64 {
	dst = dst[:0]
	for _, u := range b.updates {
		dst = append(dst, u[i].Data()[j])
	}
	return dst
}

// sortFloatsTotal sorts ascending under a total order: the usual < on
// reals, with exactly-equal values (and non-comparable ones — NaNs, signed
// zeros) broken by their IEEE-754 bit patterns. The result is a canonical
// permutation of the multiset, so every order statistic computed from it is
// arrival-order invariant even on hostile inputs.
func sortFloatsTotal(vals []float64) {
	sort.Slice(vals, func(a, b int) bool {
		x, y := vals[a], vals[b]
		if x < y {
			return true
		}
		if y < x {
			return false
		}
		return math.Float64bits(x) < math.Float64bits(y)
	})
}

// CoordMedianAggregator commits W ← W + median(ΔW) coordinate-wise: with
// fewer than half the cohort Byzantine, each committed coordinate lies
// between two honest values. Buffers O(Kt·model); see the package note.
type CoordMedianAggregator struct {
	robustBuffer
}

// NewCoordMedian returns an empty coordinate-wise median fold.
func NewCoordMedian() *CoordMedianAggregator { return &CoordMedianAggregator{} }

// Commit implements Aggregator.
func (a *CoordMedianAggregator) Commit(params []*tensor.Tensor) {
	a.mu.Lock()
	defer a.mu.Unlock()
	n := len(a.updates)
	if n == 0 {
		return
	}
	col := make([]float64, 0, n)
	for i, p := range params {
		d := p.Data()
		for j := range d {
			col = a.column(col, i, j)
			sortFloatsTotal(col)
			if n%2 == 1 {
				d[j] += col[n/2]
			} else {
				// The midpoint of the two central sorted values — symmetric,
				// so it too depends only on the multiset.
				d[j] += (col[n/2-1] + col[n/2]) / 2
			}
		}
	}
}

// TrimmedMeanAggregator commits W ← W + trimmedmean_β(ΔW) coordinate-wise:
// each coordinate sorts its Kt values, discards the ⌊β·Kt⌋ smallest and
// largest, and averages the survivors in exact fixed-point arithmetic (one
// reused single-element ExactVec, zeroed in O(window) per coordinate),
// rounding once — so at β=0 the commit is bit-identical to the flat exact
// mean fold (NewExact, the repo's mean parity oracle), and at any β the
// result is arrival-order invariant. Buffers O(Kt·model).
type TrimmedMeanAggregator struct {
	robustBuffer
	// Beta is the per-tail trim fraction, in [0, 0.5): ⌊β·n⌋ values are cut
	// from EACH end. A β that would trim everything is clamped so at least
	// one value survives.
	Beta float64
}

// NewTrimmedMean returns an empty β-trimmed-mean fold.
func NewTrimmedMean(beta float64) (*TrimmedMeanAggregator, error) {
	if !(beta >= 0 && beta < 0.5) {
		return nil, fmt.Errorf("fl: trimmed-mean β %v outside [0, 0.5)", beta)
	}
	return &TrimmedMeanAggregator{Beta: beta}, nil
}

// Commit implements Aggregator.
func (a *TrimmedMeanAggregator) Commit(params []*tensor.Tensor) {
	a.mu.Lock()
	defer a.mu.Unlock()
	n := len(a.updates)
	if n == 0 {
		return
	}
	t := int(a.Beta * float64(n))
	if 2*t >= n {
		t = (n - 1) / 2
	}
	m := n - 2*t
	inv := 1 / float64(m)
	col := make([]float64, 0, n)
	sum := NewExactVec(1)
	for i, p := range params {
		d := p.Data()
		for j := range d {
			col = a.column(col, i, j)
			sortFloatsTotal(col)
			sum.Zero()
			for _, v := range col[t : n-t] {
				sum.Add(0, v)
			}
			d[j] += inv * sum.Round(0)
		}
	}
}

// KrumAggregator commits W ← W + ΔW_k* where k* is the Krum selection: the
// update whose summed squared L2 distance to its n−f−2 nearest cohort
// neighbours is smallest — under f Byzantine members (n ≥ 2f+3) the winner
// sits inside an honest cluster, so the commit IS one honest client's
// update. Distances are symmetric pure functions of the two vectors and
// ties break by (score, then lexicographic total order on the update
// vectors), so selection is arrival-order invariant. Buffers O(Kt·model)
// and scores in O(Kt²·model).
type KrumAggregator struct {
	robustBuffer
	// F is the number of Byzantine members the selection tolerates; the
	// neighbour count n−F−2 is clamped to [1, n−1] when the cohort is too
	// small for the nominal guarantee.
	F int
}

// NewKrum returns an empty Krum fold tolerating f Byzantine members.
func NewKrum(f int) (*KrumAggregator, error) {
	if f < 0 {
		return nil, fmt.Errorf("fl: negative Krum f %d", f)
	}
	return &KrumAggregator{F: f}, nil
}

// Commit implements Aggregator.
func (a *KrumAggregator) Commit(params []*tensor.Tensor) {
	a.mu.Lock()
	defer a.mu.Unlock()
	n := len(a.updates)
	if n == 0 {
		return
	}
	best := a.updates[krumSelect(a.updates, a.F)]
	tensor.AddAllScaled(params, 1, best)
}

// krumSelect returns the index of the Krum winner among updates.
func krumSelect(updates [][]*tensor.Tensor, f int) int {
	n := len(updates)
	if n == 1 {
		return 0
	}
	k := n - f - 2
	if k < 1 {
		k = 1
	}
	if k > n-1 {
		k = n - 1
	}
	// Pairwise squared distances: d(u,v) sums (u_c−v_c)² in fixed coordinate
	// order, so it is exactly symmetric — the matrix permutes with the fold
	// order, scores permute with it, and the selected VECTOR is invariant.
	dist := make([][]float64, n)
	for i := range dist {
		dist[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := sqDist(updates[i], updates[j])
			dist[i][j], dist[j][i] = d, d
		}
	}
	scores := make([]float64, n)
	row := make([]float64, 0, n-1)
	for i := 0; i < n; i++ {
		row = row[:0]
		for j := 0; j < n; j++ {
			if j != i {
				row = append(row, dist[i][j])
			}
		}
		// Sum the k nearest in ascending sorted order: a pure function of
		// the row's distance multiset.
		sortFloatsTotal(row)
		s := 0.0
		for _, d := range row[:k] {
			s += d
		}
		scores[i] = s
	}
	best := 0
	for i := 1; i < n; i++ {
		if robustLess(scores[i], scores[best]) ||
			(scores[i] == scores[best] && lexLess(updates[i], updates[best])) {
			best = i
		}
	}
	return best
}

// sqDist returns the squared L2 distance between two aligned tensor lists.
func sqDist(a, b []*tensor.Tensor) float64 {
	s := 0.0
	for i := range a {
		da, db := a[i].Data(), b[i].Data()
		for j := range da {
			d := da[j] - db[j]
			s += d * d
		}
	}
	return s
}

// robustLess is < under the total order sortFloatsTotal sorts by.
func robustLess(a, b float64) bool {
	if a < b {
		return true
	}
	if b < a {
		return false
	}
	return math.Float64bits(a) < math.Float64bits(b)
}

// lexLess compares two aligned tensor lists lexicographically under the
// total order — the deterministic tie-break that keeps Krum's selection a
// pure function of the update multiset when scores tie exactly.
func lexLess(a, b []*tensor.Tensor) bool {
	for i := range a {
		da, db := a[i].Data(), b[i].Data()
		for j := range da {
			if math.Float64bits(da[j]) == math.Float64bits(db[j]) {
				continue
			}
			return robustLess(da[j], db[j])
		}
	}
	return false
}
