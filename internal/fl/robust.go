package fl

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
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
// fold copies its update into a buffer held across rounds, O(Kt·model) —
// the explicit price of robustness, paid only under a robust rule. The
// statistics are pure functions of the update MULTISET under orderKey's
// total order (NaNs included): the median SELECTS the middle ranks ((a+b)/2
// for even n), the trimmed mean selects away both tails and sums survivors
// in exact fixed-point arithmetic (ExactVec), and Krum's pairwise distances
// are symmetric with a total-order tie-break — so Commit is bit-identical
// in any arrival order, at any GOMAXPROCS, even over the simnet fabric.
//
// Robust folds intentionally ignore aggregation weights (a hostile client
// could inflate its own) and client identity, and they are NOT
// grouping-invariant: an edge tree cannot compute a median of medians and
// get the median. NewAggregatorFor refuses robust rules on any sharded
// topology (see the tree caveat in DESIGN.md).

// robustBuffer is the shared Fold side of every robust aggregator: update
// copies (Fold must not retain its argument; see Aggregator) in slots kept
// across rounds, under a lock, geometry-checked against Begin's params.
type robustBuffer struct {
	mu    sync.Mutex
	shape []*tensor.Tensor   // params at Begin, for geometry checks only
	slots [][]*tensor.Tensor // slots[:n] hold this round's updates
	n     int
	keys  []uint64 // Commit's block transpose
}

func (b *robustBuffer) Begin(params []*tensor.Tensor) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.shape = params
	b.n = 0
}

// Fold copies the update into slot n — O(model) per fold; a slot is cloned
// only when the model's geometry changed. Updates whose geometry does not
// match the round's parameters are dropped (the wire layer validates
// shapes; this guards in-process misuse from poisoning an order statistic).
func (b *robustBuffer) Fold(update []*tensor.Tensor) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !geometryMatches(update, b.shape) {
		return
	}
	if b.n < len(b.slots) && geometryMatches(b.slots[b.n], update) {
		for i, t := range b.slots[b.n] {
			t.CopyFrom(update[i])
		}
	} else { // a new slot, or a new model geometry: later slots are stale too
		b.slots = append(b.slots[:b.n], tensor.CloneAll(update))
	}
	b.n++
}

func (b *robustBuffer) Count() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.n
}

// columns calls col for every coordinate of params with its n buffered
// values as contiguous order keys, transposed a block of coordinates at a
// time into one reused scratch slice.
func (b *robustBuffer) columns(params []*tensor.Tensor, col func(d []float64, j int, keys []uint64)) {
	const block = 128 // coordinates per transpose
	n := b.n
	if cap(b.keys) < block*n {
		b.keys = make([]uint64, block*n)
	}
	for i, p := range params {
		d := p.Data()
		for j0 := 0; j0 < len(d); j0 += block {
			w := min(block, len(d)-j0)
			for s, u := range b.slots[:n] {
				for c, v := range u[i].Data()[j0 : j0+w] {
					b.keys[c*n+s] = orderKey(v)
				}
			}
			for c := 0; c < w; c++ {
				col(d, j0+c, b.keys[c*n:(c+1)*n])
			}
		}
	}
}

// orderKey maps v to a key whose unsigned order is the robust folds' total
// order: IEEE-754 totalOrder (−NaN < −Inf < … < +Inf < +NaN, NaNs by
// payload), except that +0 precedes −0, as the folds always ordered zeros.
func orderKey(v float64) uint64 {
	b := math.Float64bits(v)
	k := b ^ (uint64(int64(b)>>63) | 1<<63)
	if b<<1 == 0 {
		k = ^k // swaps the keys of +0 and −0, which are adjacent
	}
	return k
}

// keyValue inverts orderKey.
func keyValue(k uint64) float64 {
	if k == 1<<63 || k == 1<<63-1 {
		k = ^k
	}
	return math.Float64frombits(k ^ (uint64(int64(^k)>>63) | 1<<63))
}

// selectKey places the rank-r key at keys[r], none larger before it and none
// smaller after: quickselect on the middle key by branch-free Lomuto passes
// (x < p; x ≤ p when p equals the window's floor, so equal keys cost two
// passes, not a quadratic walk), then an insertion sort of ≤ 4 keys.
func selectKey(keys []uint64, r int) {
	var floor uint64 // no key in the window is below it; 0 is the least key
	for len(keys) > 4 {
		m, last := len(keys)/2, len(keys)-1
		keys[m], keys[last] = keys[last], keys[m]
		p, i := keys[last], 0
		_, ne := bits.Sub64(0, p^floor, 0) // 0 iff p == floor
		for k, x := range keys[:last] {    // keys[:i] below p, keys[i:k] not
			keys[k], keys[i] = keys[i], x
			_, below := bits.Sub64(x, p, 1-ne)
			i += int(below)
		}
		keys[i], keys[last] = p, keys[i]
		switch {
		case r > i:
			keys, r, floor = keys[i+1:], r-i-1, p
		case r < i && ne == 1:
			keys = keys[:i]
		default:
			return
		}
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
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
	n := a.n
	if n == 0 {
		return
	}
	a.columns(params, func(d []float64, j int, col []uint64) {
		selectKey(col, n/2)
		if n%2 == 1 {
			d[j] += keyValue(col[n/2])
			return
		}
		// The midpoint of the two central ranks: a function of the multiset.
		selectKey(col[:n/2], n/2-1)
		d[j] += (keyValue(col[n/2-1]) + keyValue(col[n/2])) / 2
	})
}

// TrimmedMeanAggregator commits W ← W + trimmedmean_β(ΔW) coordinate-wise:
// each coordinate selects away its ⌊β·Kt⌋ smallest and largest values and
// averages the survivors in exact fixed-point arithmetic (one
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
	n := a.n
	if n == 0 {
		return
	}
	t := int(a.Beta * float64(n))
	if 2*t >= n {
		t = (n - 1) / 2
	}
	inv := 1 / float64(n-2*t)
	sum := NewExactVec(1)
	a.columns(params, func(d []float64, j int, col []uint64) {
		selectKey(col, t)
		selectKey(col[t:], n-2*t)
		sum.Zero()
		for _, k := range col[t : n-t] {
			sum.Add(0, keyValue(k))
		}
		d[j] += inv * sum.Round(0)
	})
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
	if a.n == 0 {
		return
	}
	best := a.slots[krumSelect(a.slots[:a.n], a.F)]
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
	scores := make([]uint64, n)
	row := make([]uint64, 0, n-1)
	for i := 0; i < n; i++ {
		row = row[:0]
		for j := 0; j < n; j++ {
			if j != i {
				row = append(row, orderKey(dist[i][j]))
			}
		}
		// Sum the k nearest in ascending order, a function of the multiset.
		selectKey(row, k)
		slices.Sort(row[:k])
		s := 0.0
		for _, d := range row[:k] {
			s += keyValue(d)
		}
		scores[i] = orderKey(s)
	}
	best := 0
	for i := 1; i < n; i++ {
		if scores[i] < scores[best] ||
			(scores[i] == scores[best] && lexLess(updates[i], updates[best])) {
			best = i
		}
	}
	return best
}

// sqDist returns the squared L2 distance between two aligned tensor lists.
// A NaN comes back canonical: its bits may depend on operand (arrival) order.
func sqDist(a, b []*tensor.Tensor) float64 {
	s := 0.0
	for i := range a {
		da, db := a[i].Data(), b[i].Data()
		for j := range da {
			d := da[j] - db[j]
			s += d * d
		}
	}
	if s != s {
		return math.NaN()
	}
	return s
}

// lexLess compares two aligned tensor lists lexicographically under the
// total order — the deterministic tie-break that keeps Krum's selection a
// pure function of the update multiset when scores tie exactly.
func lexLess(a, b []*tensor.Tensor) bool {
	for i := range a {
		da, db := a[i].Data(), b[i].Data()
		for j := range da {
			if ka, kb := orderKey(da[j]), orderKey(db[j]); ka != kb {
				return ka < kb
			}
		}
	}
	return false
}
