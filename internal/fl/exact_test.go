package fl

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"fedcdp/internal/tensor"
)

func sameBits(a, b []*tensor.Tensor) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		da, db := a[i].Data(), b[i].Data()
		if len(da) != len(db) {
			return false
		}
		for j := range da {
			if math.Float64bits(da[j]) != math.Float64bits(db[j]) {
				return false
			}
		}
	}
	return true
}

func TestExactVecOrderAndGroupingInvariant(t *testing.T) {
	// Addends chosen so a float64 left-to-right sum is order-dependent:
	// catastrophic cancellation plus a dust term 600 orders of magnitude
	// smaller. Exact accumulation must land on the same bits regardless of
	// order or grouping.
	addends := []float64{1e308, 1.25, -1e308, 1e-300, 3.5e-9, -1.25, 7e300, -7e300}
	perms := [][]int{
		{0, 1, 2, 3, 4, 5, 6, 7},
		{7, 6, 5, 4, 3, 2, 1, 0},
		{3, 0, 2, 6, 7, 1, 5, 4},
	}
	var want float64
	for pi, perm := range perms {
		v := NewExactVec(1)
		for _, i := range perm {
			v.Add(0, addends[i])
		}
		got := v.Round(0)
		if pi == 0 {
			want = got
		} else if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("perm %d rounds to %g, perm 0 to %g", pi, got, want)
		}
	}
	if want != 1e-300+3.5e-9 {
		t.Fatalf("exact sum %g, want %g", want, 1e-300+3.5e-9)
	}
	// Grouping: split the addends across sub-accumulators and merge.
	for _, split := range []int{1, 3, 5} {
		a, b := NewExactVec(1), NewExactVec(1)
		for i, x := range addends {
			if i < split {
				a.Add(0, x)
			} else {
				b.Add(0, x)
			}
		}
		if err := a.Merge(b); err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(a.Round(0)) != math.Float64bits(want) {
			t.Fatalf("split %d merges to %g, want %g", split, a.Round(0), want)
		}
	}
}

func TestExactVecTinySumsExact(t *testing.T) {
	// 1e6 copies of the same tiny value: a float64 running sum loses low
	// bits; the exact sum must round to fl(1e6 * x) computed in one step.
	const x = 1.0000000000000002e-15 // not a power of two
	v := NewExactVec(1)
	for i := 0; i < 1_000_000; i++ {
		v.Add(0, x)
	}
	// The exact product 1e6·x isn't representable, but summing x a million
	// times is the same real number as 1000000*x computed exactly; compare
	// against a big-step reference: 2^20 groups would need big.Float, so
	// instead check against the doubling ladder which is exact in our vec.
	w := NewExactVec(1)
	w.Add(0, x)
	// double 19 times → 2^19 copies, then add the remaining 475712 one by...
	// too slow; rely on a second independent grouping instead.
	u := NewExactVec(1)
	for g := 0; g < 1000; g++ {
		inner := NewExactVec(1)
		for i := 0; i < 1000; i++ {
			inner.Add(0, x)
		}
		u.Merge(inner)
	}
	if math.Float64bits(v.Round(0)) != math.Float64bits(u.Round(0)) {
		t.Fatalf("flat sum %g != 1000x1000 grouped sum %g", v.Round(0), u.Round(0))
	}
}

func TestExactVecSpecials(t *testing.T) {
	cases := []struct {
		name    string
		addends []float64
		check   func(float64) bool
	}{
		{"posinf", []float64{1, math.Inf(1), 2}, func(f float64) bool { return math.IsInf(f, 1) }},
		{"neginf", []float64{math.Inf(-1), 5}, func(f float64) bool { return math.IsInf(f, -1) }},
		{"mixed-inf", []float64{math.Inf(1), math.Inf(-1)}, math.IsNaN},
		{"nan", []float64{1, math.NaN(), math.Inf(1)}, math.IsNaN},
	}
	for _, c := range cases {
		v := NewExactVec(1)
		for _, x := range c.addends {
			v.Add(0, x)
		}
		if !c.check(v.Round(0)) {
			t.Fatalf("%s: rounds to %v", c.name, v.Round(0))
		}
		// The special must survive a wire round-trip and a merge.
		w := NewExactVec(1)
		if err := w.SetScalarWire(0, v.ScalarWire(0)); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !c.check(w.Round(0)) {
			t.Fatalf("%s: wire round-trip lost special", c.name)
		}
		m := NewExactVec(1)
		m.Add(0, 42)
		m.Merge(v)
		if !c.check(m.Round(0)) {
			t.Fatalf("%s: merge lost special", c.name)
		}
	}
}

func TestExactVecOverflowRoundsToInf(t *testing.T) {
	v := NewExactVec(1)
	for i := 0; i < 4; i++ {
		v.Add(0, math.MaxFloat64)
	}
	if !math.IsInf(v.Round(0), 1) {
		t.Fatalf("4×MaxFloat64 rounds to %g, want +Inf", v.Round(0))
	}
	// But the sum is still finite internally: subtracting brings it back.
	for i := 0; i < 3; i++ {
		v.Add(0, -math.MaxFloat64)
	}
	if v.Round(0) != math.MaxFloat64 {
		t.Fatalf("after cancellation got %g, want MaxFloat64", v.Round(0))
	}
}

func TestExactScalarWireRoundTrip(t *testing.T) {
	g := tensor.NewRNG(31)
	vals := []float64{0, 1, -1, 0.1, -0.1, math.MaxFloat64, -math.MaxFloat64,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 1e308, 1e-308, 3.141592653589793}
	for i := 0; i < 200; i++ {
		vals = append(vals, (g.Float64()-0.5)*math.Pow(2, float64(g.Intn(600)-300)))
	}
	for _, x := range vals {
		v := NewExactVec(1)
		v.Add(0, x)
		v.Add(0, 1e-40) // widen the window so the mantissa is long
		w := v.ScalarWire(0)
		u := NewExactVec(1)
		if err := u.SetScalarWire(0, w); err != nil {
			t.Fatalf("x=%g: %v", x, err)
		}
		if math.Float64bits(u.Round(0)) != math.Float64bits(v.Round(0)) {
			t.Fatalf("x=%g: wire round-trip %g != %g", x, u.Round(0), v.Round(0))
		}
		// Exactness, not just rounded agreement: merging the negation of the
		// round-tripped value must cancel to exactly zero.
		neg := NewExactVec(1)
		neg.Add(0, -x)
		neg.Add(0, -1e-40)
		if err := u.Merge(neg); err != nil {
			t.Fatal(err)
		}
		if u.Round(0) != 0 {
			t.Fatalf("x=%g: round-trip was not exact (residual %g)", x, u.Round(0))
		}
	}
}

// envelopeMant returns a minimal mantissa whose leading bit, at exponent
// exp, is absolute bit top of the accumulator grid.
func envelopeMant(exp int64, top int) []byte {
	n := top - int(exp-exactMinExp) // leading bit index within the mantissa
	m := make([]byte, n/8+1)
	m[0] = 1 << (n % 8)
	m[len(m)-1] |= 1 // odd, so the form is canonical
	return m
}

func TestExactScalarWireRejectsHostileInput(t *testing.T) {
	v := NewExactVec(1)
	topExp := int64(exactTopBit + exactMinExp)
	for name, c := range map[string]struct {
		w  ExactScalarWire
		ok bool
	}{
		"bad-spec":           {ExactScalarWire{Spec: 9}, false},
		"exp-floor":          {ExactScalarWire{Exp: exactMinExp, Mant: []byte{1}}, true},
		"exp-below-floor":    {ExactScalarWire{Exp: exactMinExp - 1, Mant: []byte{1}}, false},
		"even-below-floor":   {ExactScalarWire{Exp: exactMinExp - 1, Mant: []byte{2}}, false},
		"top-bit-at-limit":   {ExactScalarWire{Exp: topExp, Mant: []byte{1}}, true},
		"top-bit-past-limit": {ExactScalarWire{Exp: topExp + 1, Mant: []byte{1}}, false},
		"wide-at-limit":      {ExactScalarWire{Exp: exactMinExp, Mant: envelopeMant(exactMinExp, exactTopBit)}, true},
		"wide-past-limit":    {ExactScalarWire{Exp: exactMinExp, Mant: envelopeMant(exactMinExp, exactTopBit+1)}, false},
		"neg-wide-at-limit":  {ExactScalarWire{Neg: true, Exp: exactMinExp, Mant: envelopeMant(exactMinExp, exactTopBit)}, true},
		"mant-288-bytes":     {ExactScalarWire{Mant: append(make([]byte, exactMantBytes-1), 1)}, true},
		"mant-289-bytes":     {ExactScalarWire{Mant: append(make([]byte, exactMantBytes), 1)}, false},
		"zero-mant-huge-exp": {ExactScalarWire{Exp: 1 << 20, Mant: []byte{0}}, false},
		"exp-wraps-int":      {ExactScalarWire{Exp: math.MaxInt64, Mant: []byte{1}}, false},
	} {
		var err error
		allocs := testing.AllocsPerRun(10, func() { err = v.SetScalarWire(0, c.w) })
		if c.ok {
			if err != nil {
				t.Fatalf("%s: rejected: %v", name, err)
			}
			continue
		}
		if !errors.Is(err, ErrExactEnvelope) {
			t.Fatalf("%s: got %v, want an ErrExactEnvelope", name, err)
		}
		if !raceEnabled && allocs > 8 { // race instrumentation allocates
			t.Fatalf("%s: rejection cost %v allocations", name, allocs)
		}
	}
}

// TestExactScalarWireNonCanonicalDecodesToItsValue pins the one rule for
// mantissas ScalarWire would not have written: even, or with leading zero
// bytes, they decode to the value they spell and re-encode canonically.
func TestExactScalarWireNonCanonicalDecodesToItsValue(t *testing.T) {
	want := NewExactVec(1)
	want.Add(0, -0x1.8p-30) // −3·2^-31
	canon := want.ScalarWire(0)
	if canon.Exp != -31 || !bytes.Equal(canon.Mant, []byte{3}) || !canon.Neg {
		t.Fatalf("canonical form %+v", canon)
	}
	for name, w := range map[string]ExactScalarWire{
		"even":         {Neg: true, Exp: -34, Mant: []byte{24}},
		"leading-zero": {Neg: true, Exp: -31, Mant: []byte{0, 0, 3}},
		"both":         {Neg: true, Exp: -39, Mant: append(make([]byte, 200), 3, 0)},
	} {
		v := NewExactVec(1)
		if err := v.SetScalarWire(0, w); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := v.ScalarWire(0)
		if got.Neg != canon.Neg || got.Exp != canon.Exp || !bytes.Equal(got.Mant, canon.Mant) {
			t.Fatalf("%s: re-encodes as %+v, want %+v", name, got, canon)
		}
	}
	// A zero mantissa is +0 whatever its sign flag and length.
	v := NewExactVec(1)
	v.Add(0, 7)
	if err := v.SetScalarWire(0, ExactScalarWire{Neg: true, Mant: []byte{0, 0}}); err != nil {
		t.Fatal(err)
	}
	if got := v.ScalarWire(0); got.Neg || got.Exp != 0 || len(got.Mant) != 0 || math.Signbit(v.Round(0)) {
		t.Fatalf("zero mantissa decodes to %+v (%g)", got, v.Round(0))
	}
}

func TestPartialWireValidate(t *testing.T) {
	mk := func() *PartialWire {
		return &PartialWire{
			Rule:    AggWeighted,
			Clients: 3,
			HasWSum: true,
			Sums:    []ExactTensorWire{{Shape: []int{2}, Elems: make([]ExactScalarWire, 2)}},
		}
	}
	if err := mk().Validate(); err != nil {
		t.Fatalf("valid partial rejected: %v", err)
	}
	atLimit := mk()
	atLimit.Sums[0].Elems[1] = ExactScalarWire{Exp: exactMinExp, Mant: envelopeMant(exactMinExp, exactTopBit)}
	atLimit.WSum = ExactScalarWire{Exp: int64(exactTopBit + exactMinExp), Mant: []byte{1}}
	if _, err := PartialFromWire(atLimit); err != nil {
		t.Fatalf("partial at the envelope's edge rejected: %v", err)
	}
	for name, mutate := range map[string]func(*PartialWire){
		"bad-rule":       func(w *PartialWire) { w.Rule = "median" },
		"neg-clients":    func(w *PartialWire) { w.Clients = -1 },
		"missing-wsum":   func(w *PartialWire) { w.HasWSum = false },
		"no-tensors":     func(w *PartialWire) { w.Sums = nil },
		"shape-mismatch": func(w *PartialWire) { w.Sums[0].Shape = []int{3} },
		"unweighted-wsum": func(w *PartialWire) {
			w.Rule = AggFedSGD
		},
		"elem-below-grid": func(w *PartialWire) {
			w.Sums[0].Elems[1] = ExactScalarWire{Exp: exactMinExp - 1, Mant: []byte{1}}
		},
		"elem-past-top": func(w *PartialWire) {
			w.Sums[0].Elems[0] = ExactScalarWire{Exp: exactMinExp, Mant: envelopeMant(exactMinExp, exactTopBit+1)}
		},
		"wsum-past-top": func(w *PartialWire) {
			w.WSum = ExactScalarWire{Exp: int64(exactTopBit+exactMinExp) + 1, Mant: []byte{1}}
		},
		"wsum-wide-mant": func(w *PartialWire) {
			w.WSum = ExactScalarWire{Mant: make([]byte, exactMantBytes+1)}
		},
	} {
		w := mk()
		mutate(w)
		var err error
		allocs := testing.AllocsPerRun(10, func() { _, err = PartialFromWire(w) })
		if err == nil {
			t.Fatalf("%s: accepted", name)
		}
		if !raceEnabled && allocs > 8 { // race instrumentation allocates
			t.Fatalf("%s: rejection cost %v allocations", name, allocs)
		}
	}
}

// randomRound builds params plus per-client (update, weight) pairs with
// adversarial magnitudes so float folds would be order-sensitive.
func randomRound(g *tensor.RNG, clients int) (params []*tensor.Tensor, updates [][]*tensor.Tensor, weights []float64) {
	shapes := [][]int{{3, 2}, {4}}
	for _, sh := range shapes {
		p := tensor.New(sh...)
		g.FillNormal(p, 0, 1)
		params = append(params, p)
	}
	for c := 0; c < clients; c++ {
		var u []*tensor.Tensor
		for _, sh := range shapes {
			t := tensor.New(sh...)
			scale := math.Pow(2, float64(g.Intn(120)-60))
			g.FillNormal(t, 0, scale)
			u = append(u, t)
		}
		updates = append(updates, u)
		weights = append(weights, float64(1+g.Intn(500)))
	}
	return
}

// TestTreeFoldMatchesFlatExactly drives the aggregation tree's algebra —
// edge folds over contiguous shards, their partials recomposed at a fresh
// root — at every population K ≤ 16, every shard count and a scrambled
// arrival order at both tiers, and requires the flat exact fold's bits.
func TestTreeFoldMatchesFlatExactly(t *testing.T) {
	g := tensor.NewRNG(77)
	for k := 1; k <= 16; k++ {
		params, updates, weights := randomRound(g, k)
		for _, rule := range []string{AggFedSGD, AggFedAvg, AggWeighted} {
			flatParams := tensor.CloneAll(params)
			flat, err := NewExact(rule)
			if err != nil {
				t.Fatal(err)
			}
			flat.Begin(flatParams)
			for c := 0; c < k; c++ {
				flat.FoldWeighted(updates[c], weights[c])
			}
			flat.Commit(flatParams)
			for shards := 1; shards <= k; shards++ {
				edges := make([]*ExactAggregator, shards)
				for s := range edges {
					edges[s], _ = NewExact(rule)
					edges[s].Begin(params)
				}
				arrival := tensor.Split(9, int64(k), int64(shards))
				for _, c := range arrival.Perm(k) {
					edges[c*shards/k].FoldWeighted(updates[c], weights[c])
				}
				rootParams := tensor.CloneAll(params)
				root, _ := NewExact(rule)
				root.Begin(rootParams)
				for _, s := range arrival.Perm(shards) {
					if err := root.FoldPartial(edges[s].TakePartial()); err != nil {
						t.Fatalf("rule %s K=%d S=%d: %v", rule, k, shards, err)
					}
				}
				if root.Count() != k {
					t.Fatalf("rule %s K=%d S=%d: root counts %d clients", rule, k, shards, root.Count())
				}
				root.Commit(rootParams)
				if !sameBits(rootParams, flatParams) {
					t.Fatalf("rule %s K=%d S=%d: tree commit differs from flat fold", rule, k, shards)
				}
			}
		}
	}
}

func TestPartialWireComposesBitIdentical(t *testing.T) {
	// Edge folds serialized through the wire form and recomposed at a fresh
	// root must commit the same bits as the flat fold — the deployment path
	// (edge RoundServer → PartialWire → root) in miniature.
	g := tensor.NewRNG(13)
	const k, shards = 12, 4
	params, updates, weights := randomRound(g, k)
	for _, rule := range []string{AggFedSGD, AggFedAvg, AggWeighted} {
		flatParams := tensor.CloneAll(params)
		flat, _ := NewExact(rule)
		flat.Begin(flatParams)
		for c := 0; c < k; c++ {
			flat.FoldWeighted(updates[c], weights[c])
		}
		flat.Commit(flatParams)

		edges := make([]*ExactAggregator, shards)
		for s := range edges {
			edges[s], _ = NewExact(rule)
			edges[s].Begin(tensor.CloneAll(params))
		}
		for c := 0; c < k; c++ {
			edges[c*shards/k].FoldWeighted(updates[c], weights[c])
		}
		rootParams := tensor.CloneAll(params)
		root, _ := NewExact(rule)
		root.Begin(rootParams)
		for _, e := range edges {
			p, err := PartialFromWire(e.TakePartial().Wire())
			if err != nil {
				t.Fatalf("rule %s: %v", rule, err)
			}
			if err := root.FoldPartial(p); err != nil {
				t.Fatalf("rule %s: %v", rule, err)
			}
		}
		if root.Count() != k {
			t.Fatalf("rule %s: root counts %d clients, want %d", rule, root.Count(), k)
		}
		root.Commit(rootParams)
		if !sameBits(rootParams, flatParams) {
			t.Fatalf("rule %s: wire-composed root differs from flat fold", rule)
		}
	}
}

func TestFoldPartialRejectsMismatches(t *testing.T) {
	params := []*tensor.Tensor{tensor.New(4)}
	root, _ := NewExact(AggFedSGD)
	root.Begin(params)

	other, _ := NewExact(AggFedAvg)
	other.Begin(params)
	if err := root.FoldPartial(other.TakePartial()); err == nil {
		t.Fatal("rule mismatch accepted")
	}
	wrongGeom, _ := NewExact(AggFedSGD)
	wrongGeom.Begin([]*tensor.Tensor{tensor.New(5)})
	if err := root.FoldPartial(wrongGeom.TakePartial()); err == nil {
		t.Fatal("geometry mismatch accepted")
	}
}

func TestEdgeFoldNeverCommits(t *testing.T) {
	params := onesUpdate([]int{4}, 7)
	inner, _ := NewExact(AggFedSGD)
	edge := EdgeFold(inner)
	edge.Begin(params)
	edge.Fold(onesUpdate([]int{4}, 100))
	edge.Commit(params)
	for _, v := range params[0].Data() {
		if v != 7 {
			t.Fatal("edge fold mutated params at Commit")
		}
	}
	if inner.Count() != 1 {
		t.Fatalf("edge fold lost the update: count %d", inner.Count())
	}
	if p := inner.TakePartial(); p.Clients != 1 {
		t.Fatalf("partial clients %d, want 1", p.Clients)
	}
}

func TestExactAggregatorReusedAcrossRounds(t *testing.T) {
	params := []*tensor.Tensor{tensor.New(4)}
	agg, _ := NewExact(AggFedSGD)
	agg.Begin(params)
	agg.Fold(onesUpdate([]int{4}, 100))
	agg.Commit(params)
	agg.Begin(params)
	agg.Fold(onesUpdate([]int{4}, 1))
	agg.Commit(params)
	for _, v := range params[0].Data() {
		if v != 101 {
			t.Fatalf("got %v, want 101 — stale exact accumulator state", v)
		}
	}
}

func TestNewAggregatorForSelectsImplementation(t *testing.T) {
	if a, err := NewAggregatorFor(AggFedSGD, 0, 0, 8); err != nil {
		t.Fatal(err)
	} else if _, ok := a.(*FedSGDAggregator); !ok {
		t.Fatalf("shards=0 gave %T, want legacy fold", a)
	}
	if a, err := NewAggregatorFor(AggWeighted, 1, 0, 8); err != nil {
		t.Fatal(err)
	} else if _, ok := a.(*ExactAggregator); !ok {
		t.Fatalf("shards=1 gave %T, want flat exact fold", a)
	}
	if a, err := NewAggregatorFor(AggFedAvg, 4, 0, 8); err != nil {
		t.Fatal(err)
	} else if _, ok := a.(*ExactAggregator); !ok {
		t.Fatalf("shards=4 gave %T, want flat exact fold", a)
	}
	if _, err := NewAggregatorFor("median", 1, 0, 8); err == nil {
		t.Fatal("unknown rule accepted")
	}
}
