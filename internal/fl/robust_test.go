package fl

import (
	"math"
	"testing"

	"fedcdp/internal/tensor"
)

// Tests for the robust aggregation folds (robust.go): rule parsing, the
// multiset-purity (arrival-order invariance) contract, the β=0 ≡ exact-mean
// parity anchor, statistical correctness on known inputs, and the
// topology guard that keeps order statistics off the sharded tree.

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
