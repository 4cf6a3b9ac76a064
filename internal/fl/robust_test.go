package fl

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"testing"

	"fedcdp/internal/tensor"
)

// Tests for the robust aggregation folds (robust.go): rule parsing, the
// multiset-purity (arrival-order invariance) contract, NaN included, the
// β=0 ≡ exact-mean parity anchor, statistical correctness on known inputs,
// the sort-based reference the selecting Commits must equal bit for bit,
// and the topology guard that keeps order statistics off the sharded tree.

func robustParams(vals ...float64) []*tensor.Tensor {
	data := make([]float64, len(vals))
	copy(data, vals)
	return []*tensor.Tensor{tensor.FromSlice(data, len(data))}
}

func TestRobustAggRuleParsing(t *testing.T) {
	if _, ok := mustAgg(t, "median").(*CoordMedianAggregator); !ok {
		t.Fatal("median did not build a CoordMedianAggregator")
	}
	if a := mustAgg(t, "trimmed").(*TrimmedMeanAggregator); a.Beta != 0.25 {
		t.Fatalf("trimmed default β = %v, want 0.25", a.Beta)
	}
	if a := mustAgg(t, "trimmed:0.34").(*TrimmedMeanAggregator); a.Beta != 0.34 {
		t.Fatalf("trimmed:0.34 β = %v", a.Beta)
	}
	if a := mustAgg(t, "krum").(*KrumAggregator); a.F != 1 {
		t.Fatalf("krum default f = %d, want 1", a.F)
	}
	if a := mustAgg(t, "krum:2").(*KrumAggregator); a.F != 2 {
		t.Fatalf("krum:2 f = %d", a.F)
	}
	for _, bad := range []string{
		"median:1", "fedsgd:1", "weighted:x", // parameter on parameterless rules
		"trimmed:x", "trimmed:0.5", "trimmed:-0.1", // β outside [0, 0.5) or unparsable
		"krum:x", "krum:-1", "krum:1.5",
	} {
		if ValidAggregation(bad) {
			t.Errorf("rule %q must be rejected", bad)
		}
	}
	for _, rule := range []string{"median", "trimmed", "trimmed:0.1", "krum", "krum:0"} {
		if !ValidAggregation(rule) || !RobustAggregation(rule) {
			t.Errorf("rule %q must be valid and robust", rule)
		}
	}
	if RobustAggregation("fedsgd") || RobustAggregation("weighted") {
		t.Fatal("streaming rules misclassified as robust")
	}
}

func mustAgg(t *testing.T, rule string) Aggregator {
	t.Helper()
	a, err := NewAggregator(rule)
	if err != nil {
		t.Fatalf("NewAggregator(%q): %v", rule, err)
	}
	return a
}

// TestTrimmedMeanZeroBetaMatchesExactMean pins the parity anchor the docs
// promise: TrimmedMean(β=0) commits bit-for-bit what the flat exact mean
// fold (NewExact, the tree parity oracle) commits, because both sum every
// survivor exactly and round once through the identical expression.
func TestTrimmedMeanZeroBetaMatchesExactMean(t *testing.T) {
	const dim, n = 32, 7
	rng := tensor.Split(11, 1)
	updates := make([][]*tensor.Tensor, n)
	for i := range updates {
		u := tensor.FromSlice(make([]float64, dim), dim)
		rng.FillNormal(u, 0, 1)
		updates[i] = []*tensor.Tensor{u}
	}
	base := tensor.FromSlice(make([]float64, dim), dim)
	rng.FillNormal(base, 0, 1)

	commit := func(agg Aggregator) []float64 {
		params := []*tensor.Tensor{base.Clone()}
		agg.Begin(params)
		for _, u := range updates {
			agg.Fold(u)
		}
		agg.Commit(params)
		return params[0].Data()
	}

	tm, err := NewTrimmedMean(0)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := NewExact(AggFedSGD)
	if err != nil {
		t.Fatal(err)
	}
	got, want := commit(tm), commit(exact)
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("element %d: trimmed(0) %v ≠ exact mean %v (bit mismatch)", i, got[i], want[i])
		}
	}
}

// TestRobustFoldOrderInvariance is the multiset-purity contract: for
// every robust rule, folding the same updates in any order commits
// bit-identical parameters — the property that makes even the simnet
// fabric's arrival-order folds reproducible under a robust rule.
func TestRobustFoldOrderInvariance(t *testing.T) {
	const dim, n = 16, 6
	rng := tensor.Split(23, 2)
	updates := make([][]*tensor.Tensor, n)
	for i := range updates {
		u := tensor.FromSlice(make([]float64, dim), dim)
		rng.FillNormal(u, 0, 3)
		updates[i] = []*tensor.Tensor{u}
	}
	for _, rule := range []string{AggMedian, "trimmed:0.2", "krum:1"} {
		var ref []float64
		for perm := 0; perm < 8; perm++ {
			order := tensor.Split(51, int64(perm)).Perm(n)
			params := robustParams(make([]float64, dim)...)
			agg := mustAgg(t, rule)
			agg.Begin(params)
			for _, i := range order {
				agg.Fold(updates[i])
			}
			if agg.Count() != n {
				t.Fatalf("%s folded %d of %d", rule, agg.Count(), n)
			}
			agg.Commit(params)
			got := params[0].Data()
			if ref == nil {
				ref = append([]float64(nil), got...)
				continue
			}
			for j := range got {
				if math.Float64bits(got[j]) != math.Float64bits(ref[j]) {
					t.Fatalf("%s: element %d differs under fold order %v", rule, j, order)
				}
			}
		}
	}
}

func TestCoordMedianCorrectness(t *testing.T) {
	fold := func(cols ...[]float64) []float64 {
		params := robustParams(make([]float64, len(cols[0]))...)
		agg := NewCoordMedian()
		agg.Begin(params)
		for _, c := range cols {
			agg.Fold(robustParams(c...))
		}
		agg.Commit(params)
		return params[0].Data()
	}
	// Odd n: the middle sorted value, per coordinate.
	got := fold([]float64{1, 100}, []float64{5, -7}, []float64{3, 2})
	if got[0] != 3 || got[1] != 2 {
		t.Fatalf("odd-n median = %v, want [3 2]", got)
	}
	// Even n: the midpoint of the two central values.
	got = fold([]float64{1}, []float64{3}, []float64{100}, []float64{2})
	if got[0] != 2.5 {
		t.Fatalf("even-n median = %v, want 2.5", got[0])
	}
}

func TestTrimmedMeanTrimsOutliers(t *testing.T) {
	// n=5, β=0.25 → t=1: the hostile ±1e9 values are exactly the trimmed
	// tails, so the commit is the honest mean.
	params := robustParams(0)
	agg, err := NewTrimmedMean(0.25)
	if err != nil {
		t.Fatal(err)
	}
	agg.Begin(params)
	for _, v := range []float64{2, 1e9, 4, -1e9, 6} {
		agg.Fold(robustParams(v))
	}
	agg.Commit(params)
	if got := params[0].Data()[0]; got != 4 {
		t.Fatalf("trimmed mean = %v, want 4 (outliers must be cut)", got)
	}
}

func TestKrumSelectsHonestUpdate(t *testing.T) {
	// Five honest updates clustered near (1,1,1,1) and two attackers far
	// away: Krum(f=2) must commit EXACTLY one of the honest vectors.
	const dim = 4
	rng := tensor.Split(31, 3)
	var honest [][]*tensor.Tensor
	agg, err := NewKrum(2)
	if err != nil {
		t.Fatal(err)
	}
	params := robustParams(make([]float64, dim)...)
	agg.Begin(params)
	for i := 0; i < 5; i++ {
		u := tensor.FromSlice(make([]float64, dim), dim)
		rng.FillNormal(u, 0, 0.01)
		for j, v := range u.Data() {
			u.Data()[j] = 1 + v
		}
		hu := []*tensor.Tensor{u}
		honest = append(honest, hu)
		agg.Fold(hu)
	}
	agg.Fold(robustParams(1e6, -1e6, 1e6, -1e6))
	agg.Fold(robustParams(-1e6, 1e6, -1e6, 1e6))
	agg.Commit(params)

	got := params[0].Data()
	matched := false
	for _, hu := range honest {
		same := true
		for j, v := range hu[0].Data() {
			if math.Float64bits(got[j]) != math.Float64bits(v) {
				same = false
				break
			}
		}
		matched = matched || same
	}
	if !matched {
		t.Fatalf("Krum committed %v — not any honest update", got)
	}
}

func TestRobustFoldDropsMismatchedGeometry(t *testing.T) {
	params := robustParams(0, 0)
	agg := NewCoordMedian()
	agg.Begin(params)
	agg.Fold(robustParams(1, 2))
	agg.Fold(robustParams(1))       // wrong length
	agg.Fold([]*tensor.Tensor(nil)) // wrong arity
	if agg.Count() != 1 {
		t.Fatalf("mismatched updates folded: count %d", agg.Count())
	}
}

// TestRobustTopologyGuard pins the configuration error every surface must
// raise: robust rules are not grouping-invariant, so the exact/tree
// topologies (shards ≥ 1) refuse them up front.
func TestRobustTopologyGuard(t *testing.T) {
	for _, rule := range []string{"median", "trimmed:0.25", "krum:2"} {
		for _, shards := range []int{1, 2, 8} {
			if _, err := NewAggregatorFor(rule, shards, 0, 16); err == nil {
				t.Errorf("NewAggregatorFor(%q, shards=%d) must refuse", rule, shards)
			}
		}
		if _, err := NewAggregatorFor(rule, 0, 0, 16); err != nil {
			t.Errorf("NewAggregatorFor(%q, shards=0): %v", rule, err)
		}
	}
	cfg := smallConfig(t, sgdStrategy{})
	cfg.Aggregation = AggMedian
	cfg.Shards = 2
	if _, err := Run(cfg); err == nil {
		t.Fatal("fl.Run must refuse robust rule + sharded topology")
	}
}

// TestRobustFoldsOrderFreeWithNaN extends the multiset-purity contract to
// NaNs of both signs beside ±0: every arrival order of the six values
// commits one bit pattern under each robust rule. A comparator that breaks
// value ties by raw bits is not transitive once a NaN is present (−1 < 1 by
// value, 1 < NaN and NaN < −1 by bits), and its order statistics then
// depend on arrival order.
func TestRobustFoldsOrderFreeWithNaN(t *testing.T) {
	vals := []float64{-1, 1, math.NaN(), math.Copysign(math.NaN(), -1), 0, math.Copysign(0, -1)}
	var perms [][]int
	var permute func(p []int, k int)
	permute = func(p []int, k int) {
		if k == len(p) {
			perms = append(perms, append([]int(nil), p...))
			return
		}
		for i := k; i < len(p); i++ {
			p[k], p[i] = p[i], p[k]
			permute(p, k+1)
			p[k], p[i] = p[i], p[k]
		}
	}
	permute([]int{0, 1, 2, 3, 4, 5}, 0)
	for _, rule := range []string{AggMedian, "trimmed:0.2", "krum:1"} {
		agg := mustAgg(t, rule)
		seen := map[uint64][]int{}
		for _, order := range perms {
			params := robustParams(0.5)
			agg.Begin(params)
			for _, i := range order {
				agg.Fold(robustParams(vals[i]))
			}
			agg.Commit(params)
			bits := math.Float64bits(params[0].Data()[0])
			if _, ok := seen[bits]; !ok {
				seen[bits] = order
			}
		}
		if len(seen) != 1 {
			t.Errorf("%s commits %d bit patterns across arrival orders: %v", rule, len(seen), seen)
		}
	}
}

// sortFloatsTotal is the order the robust folds sorted by before they
// selected: ascending by <, with equal values broken by IEEE-754 bits (so
// +0 before −0). It is a total order on non-NaN values only, and it is the
// reference orderKey must reproduce there.
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

// refMedian and refTrimmedMean are the sort-based order statistics: each
// sorts a copy of the column and reads its ranks, committing through the
// same expressions as the selecting folds.
func refMedian(col []float64) float64 {
	col = append([]float64(nil), col...)
	sortFloatsTotal(col)
	n := len(col)
	if n%2 == 1 {
		return col[n/2]
	}
	return (col[n/2-1] + col[n/2]) / 2
}

func refTrimmedMean(col []float64, beta float64) float64 {
	col = append([]float64(nil), col...)
	sortFloatsTotal(col)
	n := len(col)
	t := int(beta * float64(n))
	if 2*t >= n {
		t = (n - 1) / 2
	}
	sum := NewExactVec(1)
	for _, v := range col[t : n-t] {
		sum.Add(0, v)
	}
	return 1 / float64(n-2*t) * sum.Round(0)
}

// hostileValue draws a non-NaN coordinate a Byzantine client might send:
// signed zeros, infinities, subnormals, values at the float64 range's
// edge, heavy duplicates, arbitrary bit patterns, or an honest normal.
func hostileValue(rng *tensor.RNG) float64 {
	edges := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		5e-324, -5e-324, 1e-310, -1e-310, 1e308, -1e308, math.MaxFloat64, -math.MaxFloat64}
	switch rng.Intn(5) {
	case 0:
		return edges[rng.Intn(len(edges))]
	case 1:
		return float64(rng.Intn(3) - 1)
	case 2:
		if v := math.Float64frombits(uint64(rng.Int63())<<1 | uint64(rng.Intn(2))); !math.IsNaN(v) {
			return v
		}
		return math.Inf(1)
	default:
		return rng.Normal(0, 1)
	}
}

// FuzzRobustOrderStats equates the selecting median and trimmed-mean
// Commits with the sort-based reference, bit for bit, on hostile non-NaN
// columns. shape holds three bytes per round — cohort size n in 1–64, β's
// index and a layer length — and one median and one trimmed-mean
// aggregator serve every round, so a round whose n or geometry differs
// from the last exercises the buffer kept across rounds. Every fold comes
// from one reused update buffer, as from the wire, so a fold that kept its
// argument instead of copying it fails too.
func FuzzRobustOrderStats(f *testing.F) {
	f.Add(int64(1), []byte{24, 2, 200})
	f.Add(int64(2), []byte{0, 0, 0, 63, 4, 130, 9, 1, 130, 1, 3, 7})
	f.Add(int64(3), []byte{5, 3, 255, 5, 3, 40, 40, 2, 1})
	betas := []float64{0, 0.1, 0.2, 0.34, 0.49}
	f.Fuzz(func(t *testing.T, seed int64, shape []byte) {
		rng := tensor.Split(seed, 33)
		med, tm := NewCoordMedian(), &TrimmedMeanAggregator{}
		for r := 0; r+3 <= len(shape) && r < 24; r += 3 {
			n, beta := 1+int(shape[r])%64, betas[int(shape[r+1])%len(betas)]
			dims := []int{1 + int(shape[r+2]), 1 + int(shape[r+2])%7}
			updates := make([][]float64, n)
			for s := range updates {
				updates[s] = make([]float64, dims[0]+dims[1])
				for c := range updates[s] {
					updates[s][c] = hostileValue(rng)
				}
			}
			base := make([]float64, dims[0]+dims[1])
			for c := range base {
				base[c] = rng.Normal(0, 1)
			}
			tm.Beta = beta
			for _, tc := range []struct {
				agg Aggregator
				ref func([]float64) float64
			}{
				{med, refMedian},
				{tm, func(col []float64) float64 { return refTrimmedMean(col, beta) }},
			} {
				params := layered(base, dims)
				wire := layered(base, dims)
				tc.agg.Begin(params)
				for _, u := range updates {
					copy(wire[0].Data(), u[:dims[0]])
					copy(wire[1].Data(), u[dims[0]:])
					tc.agg.Fold(wire)
				}
				for _, w := range wire {
					w.Fill(math.NaN())
				}
				tc.agg.Commit(params)
				got := append(append([]float64(nil), params[0].Data()...), params[1].Data()...)
				col := make([]float64, n)
				for c, b := range base {
					for s, u := range updates {
						col[s] = u[c]
					}
					if want := b + tc.ref(col); math.Float64bits(got[c]) != math.Float64bits(want) {
						t.Fatalf("%T n=%d β=%v coordinate %d: commit %v (%#x), sort-based %v (%#x)",
							tc.agg, n, beta, c, got[c], math.Float64bits(got[c]), want, math.Float64bits(want))
					}
				}
			}
		}
	})
}

// layered splits a copy of flat into tensors of the given lengths.
func layered(flat []float64, dims []int) []*tensor.Tensor {
	out := make([]*tensor.Tensor, len(dims))
	for i, d := range dims {
		out[i] = tensor.FromSlice(append([]float64(nil), flat[:d]...), d)
		flat = flat[d:]
	}
	return out
}

// TestSortingNetworkSorts holds the memoized Batcher networks to the 0–1
// principle — a comparator network sorts every input iff it sorts every
// 0–1 input — exhaustively for n ≤ 16, and to random keys with heavy ties
// for every n up to 130.
func TestSortingNetworkSorts(t *testing.T) {
	var b robustBuffer
	apply := func(net [][2]int, keys []uint64) {
		for _, c := range net {
			if keys[c[1]] < keys[c[0]] {
				keys[c[0]], keys[c[1]] = keys[c[1]], keys[c[0]]
			}
		}
	}
	for n := 1; n <= 16; n++ {
		net := b.network(n)
		keys := make([]uint64, n)
		for m := 0; m < 1<<n; m++ {
			for i := range keys {
				keys[i] = uint64(m >> i & 1)
			}
			apply(net, keys)
			if !slices.IsSorted(keys) {
				t.Fatalf("n=%d: network leaves 0–1 input %b unsorted: %v", n, m, keys)
			}
		}
	}
	rng := tensor.Split(7, 41)
	for n := 17; n <= 130; n++ {
		net := b.network(n)
		if &net[0] != &b.network(n)[0] {
			t.Fatalf("n=%d: network rebuilt, not memoized", n)
		}
		for trial := 0; trial < 20; trial++ {
			keys := make([]uint64, n)
			for i := range keys {
				keys[i] = uint64(rng.Intn(n/2 + 1))
			}
			want := slices.Clone(keys)
			slices.Sort(want)
			apply(net, keys)
			if !slices.Equal(keys, want) {
				t.Fatalf("n=%d: network output %v, want %v", n, keys, want)
			}
		}
	}
}

// TestSumRowsSpillMatchesExactVec drives sumRows's spill path: columns
// whose values' exponents span more than the double-double head's 106 bits
// (1, 2⁻⁶⁰, 2⁻¹²⁰, …), with sums that sit a hair off a tie at half an ulp,
// where fl(hi + lo) alone rounds the wrong way. Every column must come out
// as ExactVec rounds it — and so must random wide-range columns, columns
// with ±Inf or NaN and columns whose partial sums overflow.
func TestSumRowsSpillMatchesExactVec(t *testing.T) {
	p := math.Ldexp
	cols := [][]float64{
		{1, p(1, -60), p(1, -120)},
		{1, p(1, -53), p(1, -120)},  // a hair above a tie: rounds up
		{1, p(1, -53), -p(1, -120)}, // a hair below it: rounds down
		{-1, -p(1, -53), -p(1, -200), p(1, -300)},
		{p(1, 600), 1, p(1, -600), -p(1, 600)},
		{p(3, 1000), p(1, -1074), -p(3, 1000), p(1, -1074)},
		{math.MaxFloat64, math.MaxFloat64, -math.MaxFloat64},
		{math.Inf(1), 1, p(1, -120)},
		{math.Inf(1), math.Inf(-1), 2},
		{math.NaN(), 1, -1},
		{p(1, -53), 1, p(1, -120), p(1, -53)},
	}
	rng := tensor.Split(5, 43)
	for len(cols) < blockWidth {
		col := make([]float64, 1+rng.Intn(16))
		for i := range col {
			col[i] = p(rng.Float64()+1, rng.Intn(400)-200)
			if rng.Intn(2) == 0 {
				col[i] = -col[i]
			}
		}
		cols = append(cols, col)
	}
	for _, w := range []int{len(cols), 11, 1} {
		s := &blockScratch{spill: NewExactVec(blockWidth)}
		for c0 := 0; c0 < len(cols); c0 += w {
			m := 0
			for _, col := range cols[c0:min(c0+w, len(cols))] {
				m = max(m, len(col))
			}
			ww := min(w, len(cols)-c0)
			rows := make([]uint64, m*ww) // short columns pad with +0
			for c, col := range cols[c0 : c0+ww] {
				for r, v := range col {
					rows[r*ww+c] = orderKey(v)
				}
				for r := len(col); r < m; r++ {
					rows[r*ww+c] = orderKey(0)
				}
			}
			s.sumRows(rows, ww)
			for c, col := range cols[c0 : c0+ww] {
				ref := NewExactVec(1)
				for _, v := range col {
					ref.Add(0, v)
				}
				want := ref.Round(0)
				if got := s.inc[c]; math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("w=%d column %v: sumRows %v (%#x), ExactVec %v (%#x)",
						w, col, got, math.Float64bits(got), want, math.Float64bits(want))
				}
			}
		}
		if w == len(cols) && !slices.Contains(s.spilled[:3], true) {
			t.Fatal("the wide-exponent columns never reached the spill path")
		}
		for c := range cols[:min(w, len(cols))] {
			if s.spill.Round(c) != 0 {
				t.Fatalf("w=%d: the spill accumulator kept column %d's residual", w, c)
			}
		}
	}
}

// robustOf returns a median or trimmed-mean aggregator's buffer.
func robustOf(agg Aggregator) *robustBuffer {
	switch a := agg.(type) {
	case *CoordMedianAggregator:
		return &a.robustBuffer
	case *TrimmedMeanAggregator:
		return &a.robustBuffer
	}
	panic(fmt.Sprintf("%T buffers no updates", agg))
}

// TestRobustCommitIndependentOfHelpers commits one hostile cohort — NaNs,
// infinities, signed zeros and wide-exponent values beside honest normals,
// over layers that blocks straddle — with no helper (the budget full) and
// with every idle core, at GOMAXPROCS 1 and 2: all commit one bit pattern.
func TestRobustCommitIndependentOfHelpers(t *testing.T) {
	dims := []int{300, 7, 1, 333}
	const n = 25
	rng := tensor.Split(9, 44)
	updates := make([][]*tensor.Tensor, n)
	base := make([]float64, 641)
	for c := range base {
		base[c] = rng.Normal(0, 1)
	}
	wide := []float64{math.NaN(), math.Inf(-1), math.Copysign(0, -1), 1e300, math.Ldexp(1, -120), math.Ldexp(1, -53)}
	for s := range updates {
		flat := make([]float64, len(base))
		for c := range flat {
			if rng.Intn(8) == 0 {
				flat[c] = wide[rng.Intn(len(wide))]
			} else {
				flat[c] = rng.Normal(0, 1)
			}
		}
		updates[s] = layered(flat, dims)
	}
	for _, rule := range []string{AggMedian, "trimmed:0.2", "trimmed:0"} {
		var ref []uint64
		for _, procs := range []int{1, 2} {
			for _, full := range []bool{true, false} {
				prev := runtime.GOMAXPROCS(procs)
				if full {
					tensor.AddBusy(procs)
				}
				agg := mustAgg(t, rule)
				params := layered(base, dims)
				agg.Begin(params)
				for _, u := range updates {
					agg.Fold(u)
				}
				agg.Commit(params)
				if full {
					tensor.AddBusy(-procs)
				}
				runtime.GOMAXPROCS(prev)
				if forked := len(robustOf(agg).workers) > 1; forked == (full || procs == 1) {
					t.Fatalf("%s: GOMAXPROCS %d, full budget %v: forked %v", rule, procs, full, forked)
				}
				var got []uint64
				for _, p := range params {
					for _, v := range p.Data() {
						got = append(got, math.Float64bits(v))
					}
				}
				if ref == nil {
					ref = got
				} else if !slices.Equal(got, ref) {
					t.Fatalf("%s: GOMAXPROCS %d, full budget %v commits other bits", rule, procs, full)
				}
			}
		}
	}
}

// TestKrumCommitAllocatesNothing pins Krum's scratch — the n×n distances,
// the scores and the neighbour row — to the aggregator: once a round has
// sized it, a round of the same cohort allocates nothing.
func TestKrumCommitAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc counts are meaningless")
	}
	rng := tensor.Split(3, 45)
	updates := make([][]*tensor.Tensor, 9)
	for i := range updates {
		u := tensor.New(40)
		rng.FillNormal(u, 0, 1)
		updates[i] = []*tensor.Tensor{u}
	}
	agg := mustAgg(t, "krum:2")
	params := []*tensor.Tensor{tensor.New(40)}
	round := func() {
		agg.Begin(params)
		for _, u := range updates {
			agg.Fold(u)
		}
		agg.Commit(params)
	}
	if n := testing.AllocsPerRun(20, round); n != 0 {
		t.Fatalf("a Krum round allocates %v times, want 0", n)
	}
}
