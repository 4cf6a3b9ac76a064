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
// total order (NaNs included). The median and the trimmed mean load the
// order keys of 128 coordinates at a time as n slot rows and sort every
// coordinate at once with one Batcher odd–even merge network, whose
// comparators are tensor.CompareExchange over whole rows; the median reads
// the middle rows ((a+b)/2 for even n), and the trimmed mean sums the
// surviving rows exactly — a double-double head per coordinate, with what
// the head cannot hold spilled into an ExactVec — and rounds once. Krum's
// pairwise distances are symmetric with a total-order tie-break. So Commit
// is bit-identical in any arrival order, at any GOMAXPROCS and with any
// number of helpers, even over the simnet fabric.
//
// Robust folds intentionally ignore aggregation weights (a hostile client
// could inflate its own) and client identity, and they are NOT
// grouping-invariant: an edge tree cannot compute a median of medians and
// get the median. NewAggregatorFor refuses robust rules on any sharded
// topology (see the tree caveat in DESIGN.md).

// robustBuffer is the shared Fold side of every robust aggregator: update
// copies (Fold must not retain its argument; see Aggregator) in slots kept
// across rounds, under a lock, geometry-checked against Begin's params —
// and the Commit side's scratch, also kept across rounds.
type robustBuffer struct {
	mu      sync.Mutex
	shape   []*tensor.Tensor   // params at Begin, for geometry checks only
	slots   [][]*tensor.Tensor // slots[:n] hold this round's updates
	n       int
	nets    map[int][][2]int // sorting networks by cohort size
	workers []*blockScratch  // one per goroutine of a Commit
	krum    krumScratch
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

// blockWidth is the coordinates a block of Commit sorts at once: n rows of
// 1 KB, so a cohort of 32 sorts inside a 48 KB L1 data cache.
const blockWidth = 128

// blockScratch is one Commit goroutine's storage, kept across rounds.
type blockScratch struct {
	rows    []uint64            // n rows of a block's order keys
	inc     [blockWidth]float64 // what the block adds to its coordinates
	hi, lo  [blockWidth]float64 // sumRows: the double-double heads
	spilled [blockWidth]bool    // sumRows: coordinates with a residual
	spill   *ExactVec           // sumRows: the residuals, exactly
}

// sortedBlocks walks params' coordinates, flattened across tensors, in
// blocks of blockWidth: it loads each block's n buffered order keys as n
// rows (row s is slot s, in coordinate order), sorts every column at once
// through the cohort's network, calls stat to fill the scratch's inc from
// the sorted rows, and adds inc to the block's coordinates. Blocks fan out
// over the cores tensor's CPU budget has idle, each goroutine on its own
// scratch; a block's result depends on its keys alone.
func (b *robustBuffer) sortedBlocks(params []*tensor.Tensor, stat func(s *blockScratch, rows []uint64, w int)) {
	n, total := b.n, 0
	for _, p := range params {
		total += p.Len()
	}
	blocks := (total + blockWidth - 1) / blockWidth
	net := b.network(n)
	extra := 0
	if blocks > 1 {
		extra = tensor.TakeHelpers(blocks - 1)
	}
	for len(b.workers) <= extra {
		b.workers = append(b.workers, &blockScratch{spill: NewExactVec(blockWidth)})
	}
	block := func(worker, i int) {
		s := b.workers[worker]
		g := i * blockWidth
		w := min(blockWidth, total-g)
		if cap(s.rows) < n*blockWidth {
			s.rows = make([]uint64, n*blockWidth)
		}
		rows := s.rows[:n*w]
		li, off := locate(params, g)
		for k, u := range b.slots[:n] {
			loadKeys(rows[k*w:(k+1)*w], u, li, off)
		}
		for _, c := range net {
			tensor.CompareExchange(rows[c[0]*w:(c[0]+1)*w], rows[c[1]*w:(c[1]+1)*w])
		}
		stat(s, rows, w)
		addFlat(params, li, off, s.inc[:w])
	}
	if extra == 0 {
		for i := 0; i < blocks; i++ {
			block(0, i)
		}
		return
	}
	tensor.Fork(blocks, extra, block)
}

// network returns the comparators of Batcher's odd–even merge sort for n
// keys, memoized per n: the network for the next power of two N ≥ n with
// every comparator that touches a position ≥ n dropped. Those positions
// would hold keys no smaller than any real one, which a comparator never
// moves below a real key, so the dropped comparators moved nothing.
func (b *robustBuffer) network(n int) [][2]int {
	if net, ok := b.nets[n]; ok {
		return net
	}
	N := 1
	for N < n {
		N <<= 1
	}
	var net [][2]int
	for p := 1; p < N; p <<= 1 {
		for k := p; k >= 1; k >>= 1 {
			for j := k % p; j+k < N; j += 2 * k {
				for i := 0; i < k && i+j+k < n; i++ {
					if (i+j)/(2*p) == (i+j+k)/(2*p) {
						net = append(net, [2]int{i + j, i + j + k})
					}
				}
			}
		}
	}
	if b.nets == nil {
		b.nets = map[int][][2]int{}
	}
	b.nets[n] = net
	return net
}

// locate returns the tensor index and offset of flat coordinate g of ts.
func locate(ts []*tensor.Tensor, g int) (li, off int) {
	for g >= ts[li].Len() && li < len(ts)-1 {
		g -= ts[li].Len()
		li++
	}
	return li, g
}

// loadKeys fills dst with the order keys of ts's flat coordinates from
// tensor li, offset off, on.
func loadKeys(dst []uint64, ts []*tensor.Tensor, li, off int) {
	for ; len(dst) > 0; li, off = li+1, 0 {
		d := ts[li].Data()[off:]
		d = d[:min(len(d), len(dst))]
		for c, v := range d {
			dst[c] = orderKey(v)
		}
		dst = dst[len(d):]
	}
}

// addFlat adds inc to ts's flat coordinates from tensor li, offset off, on.
func addFlat(ts []*tensor.Tensor, li, off int, inc []float64) {
	for ; len(inc) > 0; li, off = li+1, 0 {
		d := ts[li].Data()[off:]
		d = d[:min(len(d), len(inc))]
		for c, x := range inc[:len(d)] {
			d[c] += x
		}
		inc = inc[len(d):]
	}
}

// twoSum returns s = fl(a+b) and the e with a + b = s + e exactly (Knuth's
// TwoSum), when a, b and every intermediate are finite. An overflow leaves
// s or e infinite or NaN instead.
func twoSum(a, b float64) (s, e float64) {
	s = a + b
	bb := s - a
	return s, (a - (s - bb)) + (b - bb)
}

// sumRows sets s.inc[:w] to the column sums of rows (whole rows of w keys),
// each the exact sum of its column's values rounded once to nearest even —
// ExactVec.Round's value — in any row order. Each column keeps a
// double-double head: TwoSum adds the value into hi and TwoSum adds its
// error into lo, so hi + lo + the residual of the second TwoSum is the sum
// so far, exactly. A nonzero residual, which needs values whose exponents
// span more than the head's 106 bits, spills into the scratch ExactVec.
// Then fl(hi + lo) is the exact sum rounded once when nothing spilled, and
// ExactVec rounds hi + lo + the residuals when something did. A value that
// is ±Inf or NaN, or a TwoSum step that overflows, leaves a non-finite
// error, and so a NaN residual: every intermediate of TwoSum feeds its
// error, and addition keeps a non-finite operand non-finite. That residual
// poisons the column's ExactVec element, and the column is summed again in
// the ExactVec alone, value by value, which merges special values and
// rounds overflow as the exact fold does.
func (s *blockScratch) sumRows(rows []uint64, w int) {
	hi, lo, spilled := s.hi[:w], s.lo[:w], s.spilled[:w]
	clear(hi)
	clear(lo)
	clear(spilled)
	for r := 0; r < len(rows); r += w {
		for c, k := range rows[r : r+w] {
			h, e := twoSum(hi[c], keyValue(k))
			l, res := twoSum(lo[c], e)
			hi[c], lo[c] = h, l
			if res != 0 {
				s.spill.Add(c, res)
				spilled[c] = true
			}
		}
	}
	v := s.spill
	for c, h := range hi {
		if !spilled[c] {
			s.inc[c] = h + lo[c]
			continue
		}
		if v.spec[c] == exactFinite {
			v.Add(c, h)
			v.Add(c, lo[c])
		} else {
			v.zero(c)
			for r := 0; r < len(rows); r += w {
				v.Add(c, keyValue(rows[r+c]))
			}
		}
		s.inc[c] = v.Round(c)
		v.zero(c)
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
	a.sortedBlocks(params, func(s *blockScratch, rows []uint64, w int) {
		mid := rows[n/2*w : (n/2+1)*w]
		if n%2 == 1 {
			for c, k := range mid {
				s.inc[c] = keyValue(k)
			}
			return
		}
		// The midpoint of the two central ranks: a function of the multiset.
		below := rows[(n/2-1)*w : n/2*w]
		for c, k := range mid {
			s.inc[c] = float64((keyValue(below[c]) + keyValue(k)) * 0.5)
		}
	})
}

// TrimmedMeanAggregator commits W ← W + trimmedmean_β(ΔW) coordinate-wise:
// each coordinate sorts away its ⌊β·Kt⌋ smallest and largest values and
// averages the survivors from their exact sum rounded once (sumRows) — so
// at β=0 the commit is bit-identical to the flat exact
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
	a.sortedBlocks(params, func(s *blockScratch, rows []uint64, w int) {
		s.sumRows(rows[t*w:(n-t)*w], w)
		for c, sum := range s.inc[:w] {
			s.inc[c] = float64(inv * sum)
		}
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
	best := a.slots[a.krum.selectWinner(a.slots[:a.n], a.F)]
	tensor.AddAllScaled(params, 1, best)
}

// krumScratch is Krum's per-Commit storage, kept across rounds.
type krumScratch struct {
	dist   []float64 // n×n pairwise squared distances
	scores []uint64
	row    []uint64
}

// selectWinner returns the index of the Krum winner among updates.
func (k *krumScratch) selectWinner(updates [][]*tensor.Tensor, f int) int {
	n := len(updates)
	if n == 1 {
		return 0
	}
	near := min(max(n-f-2, 1), n-1)
	// Pairwise squared distances: d(u,v) sums (u_c−v_c)² in fixed coordinate
	// order, so it is exactly symmetric — the matrix permutes with the fold
	// order, scores permute with it, and the selected VECTOR is invariant.
	k.dist = slices.Grow(k.dist[:0], n*n)[:n*n]
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := sqDist(updates[i], updates[j])
			k.dist[i*n+j], k.dist[j*n+i] = d, d
		}
	}
	k.scores = slices.Grow(k.scores[:0], n)[:n]
	for i := 0; i < n; i++ {
		row := k.row[:0]
		for j, d := range k.dist[i*n : (i+1)*n] {
			if j != i {
				row = append(row, orderKey(d))
			}
		}
		k.row = row
		// Sum the k nearest in ascending order, a function of the multiset.
		selectKey(row, near)
		slices.Sort(row[:near])
		s := 0.0
		for _, d := range row[:near] {
			s += keyValue(d)
		}
		k.scores[i] = orderKey(s)
	}
	best := 0
	for i := 1; i < n; i++ {
		if k.scores[i] < k.scores[best] ||
			(k.scores[i] == k.scores[best] && lexLess(updates[i], updates[best])) {
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
			s += float64(d * d)
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
