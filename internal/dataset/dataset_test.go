package dataset

import (
	"math"
	"sync"
	"testing"

	"fedcdp/internal/nn"
	"fedcdp/internal/tensor"
)

func TestBenchmarksMatchTableI(t *testing.T) {
	b := Benchmarks()
	cases := []struct {
		name              string
		features, classes int
		perClient, batch  int
		iters, rounds     int
	}{
		{"mnist", 28 * 28, 10, 500, 5, 100, 100},
		{"cifar10", 32 * 32 * 3, 10, 400, 4, 100, 100},
		{"lfw", 32 * 32 * 3, 62, 300, 3, 100, 60},
		{"adult", 105, 2, 300, 3, 100, 10},
		{"cancer", 30, 2, 400, 4, 100, 3},
	}
	for _, tc := range cases {
		s, ok := b[tc.name]
		if !ok {
			t.Fatalf("missing benchmark %q", tc.name)
		}
		if s.Features != tc.features {
			t.Errorf("%s features = %d, want %d", tc.name, s.Features, tc.features)
		}
		if s.Classes != tc.classes {
			t.Errorf("%s classes = %d, want %d", tc.name, s.Classes, tc.classes)
		}
		if s.PerClient != tc.perClient {
			t.Errorf("%s perClient = %d, want %d", tc.name, s.PerClient, tc.perClient)
		}
		if s.BatchSize != tc.batch {
			t.Errorf("%s batch = %d, want %d", tc.name, s.BatchSize, tc.batch)
		}
		if s.LocalIters != tc.iters {
			t.Errorf("%s L = %d, want %d", tc.name, s.LocalIters, tc.iters)
		}
		if s.Rounds != tc.rounds {
			t.Errorf("%s T = %d, want %d", tc.name, s.Rounds, tc.rounds)
		}
	}
}

func TestGetUnknown(t *testing.T) {
	if _, err := Get("imagenet"); err == nil {
		t.Fatal("expected error for unknown benchmark")
	}
	if _, err := Get("mnist"); err != nil {
		t.Fatalf("Get(mnist): %v", err)
	}
}

func TestNamesCoverAllBenchmarks(t *testing.T) {
	names := Names()
	b := Benchmarks()
	if len(names) != len(b) {
		t.Fatalf("Names has %d entries, Benchmarks %d", len(names), len(b))
	}
	for _, n := range names {
		if _, ok := b[n]; !ok {
			t.Fatalf("Names contains %q which is not a benchmark", n)
		}
	}
}

func TestSampleDeterminism(t *testing.T) {
	spec, _ := Get("mnist")
	d1 := New(spec, 42)
	d2 := New(spec, 42)
	a := d1.Sample(3, 7, 2)
	b := d2.Sample(3, 7, 2)
	if !a.Equal(b, 0) {
		t.Fatal("same (seed, stream, idx, class) must give identical samples")
	}
	c := d1.Sample(3, 8, 2)
	if a.Equal(c, 1e-9) {
		t.Fatal("different idx should give different samples")
	}
	d3 := New(spec, 43)
	e := d3.Sample(3, 7, 2)
	if a.Equal(e, 1e-9) {
		t.Fatal("different dataset seed should give different samples")
	}
}

func TestSamplesInUnitRange(t *testing.T) {
	for _, name := range Names() {
		spec, _ := Get(name)
		d := New(spec, 1)
		for i := int64(0); i < 10; i++ {
			x := d.Sample(0, i, int(i)%spec.Classes)
			for _, v := range x.Data() {
				if v < 0 || v > 1 {
					t.Fatalf("%s sample value %v outside [0,1]", name, v)
				}
			}
		}
	}
}

func TestPrototypesDiffer(t *testing.T) {
	spec, _ := Get("mnist")
	d := New(spec, 7)
	p0, p1 := d.Prototype(0), d.Prototype(1)
	diff := p0.Clone()
	diff.Sub(p1)
	if diff.L2Norm() < 0.5 {
		t.Fatalf("class prototypes nearly identical (norm %v)", diff.L2Norm())
	}
}

func TestValidationBalancedAndDeterministic(t *testing.T) {
	spec, _ := Get("mnist")
	spec.LabelFlip = 0 // exact balance only holds without label noise
	d := New(spec, 5)
	xs, ys := d.Validation(40)
	if len(xs) != 40 || len(ys) != 40 {
		t.Fatalf("validation size %d/%d", len(xs), len(ys))
	}
	counts := map[int]int{}
	for _, y := range ys {
		counts[y]++
	}
	for c := 0; c < 10; c++ {
		if counts[c] != 4 {
			t.Fatalf("class %d has %d validation examples, want 4", c, counts[c])
		}
	}
	xs2, _ := d.Validation(40)
	if !xs[0].Equal(xs2[0], 0) {
		t.Fatal("validation must be deterministic")
	}
}

func TestValidationCappedAtValN(t *testing.T) {
	spec, _ := Get("cancer") // ValN = 143
	d := New(spec, 1)
	xs, _ := d.Validation(10000)
	if len(xs) != 143 {
		t.Fatalf("validation size %d, want capped 143", len(xs))
	}
}

func TestClientNonIIDShards(t *testing.T) {
	spec, _ := Get("mnist") // 2 classes per client
	spec.LabelFlip = 0      // flips deliberately move labels off-shard
	d := New(spec, 9)
	c0 := d.Client(0)
	if got := c0.Classes(); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("client 0 classes = %v, want [0 1]", got)
	}
	c3 := d.Client(3)
	if got := c3.Classes(); got[0] != 6 || got[1] != 7 {
		t.Fatalf("client 3 classes = %v, want [6 7]", got)
	}
	// Client labels must come only from its shard classes.
	for i := 0; i < 50; i++ {
		_, y := c3.Get(i)
		if y != 6 && y != 7 {
			t.Fatalf("client 3 produced label %d outside its shard", y)
		}
	}
}

func TestClientShardWraparound(t *testing.T) {
	spec, _ := Get("mnist")
	d := New(spec, 9)
	c := d.Client(7) // base = 14 mod 10 = 4
	if got := c.Classes(); got[0] != 4 || got[1] != 5 {
		t.Fatalf("client 7 classes = %v, want [4 5]", got)
	}
}

func TestFullCopyClientSeesAllClasses(t *testing.T) {
	spec, _ := Get("cancer")
	d := New(spec, 9)
	c := d.Client(5)
	if len(c.Classes()) != 2 {
		t.Fatalf("cancer client classes = %v, want all 2", c.Classes())
	}
	seen := map[int]bool{}
	for i := 0; i < 60; i++ {
		_, y := c.Get(i)
		seen[y] = true
	}
	if len(seen) != 2 {
		t.Fatalf("full-copy client saw classes %v, want both", seen)
	}
}

func TestClientGetDeterministic(t *testing.T) {
	spec, _ := Get("lfw")
	d := New(spec, 11)
	c := d.Client(2)
	x1, y1 := c.Get(5)
	x2, y2 := c.Get(5)
	if y1 != y2 || !x1.Equal(x2, 0) {
		t.Fatal("client Get must be deterministic")
	}
}

func TestClientGetPanicsOutOfRange(t *testing.T) {
	spec, _ := Get("mnist")
	d := New(spec, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range index")
		}
	}()
	d.Client(0).Get(spec.PerClient)
}

func TestBatchShapeAndWraparound(t *testing.T) {
	spec, _ := Get("mnist")
	d := New(spec, 1)
	c := d.Client(0)
	xs, ys := c.Batch(0, 5)
	if len(xs) != 5 || len(ys) != 5 {
		t.Fatalf("batch size %d/%d, want 5", len(xs), len(ys))
	}
	// Batch past the end wraps around to index 0.
	lastBatch := spec.PerClient / 5 // first out-of-range batch
	xw, _ := c.Batch(lastBatch, 5)
	x0, _ := c.Get(0)
	if !xw[0].Equal(x0, 0) {
		t.Fatal("batch must wrap around the shard")
	}
}

func TestLabelFlipRate(t *testing.T) {
	spec, _ := Get("mnist")
	spec.LabelFlip = 0.3
	d := New(spec, 13)
	flipped := 0
	const n = 2000
	for i := 0; i < n; i++ {
		if d.flipLabel(3, 7, int64(i)) != 3 {
			flipped++
		}
	}
	rate := float64(flipped) / n
	if rate < 0.25 || rate > 0.35 {
		t.Fatalf("flip rate %v, want ≈0.3", rate)
	}
}

func TestLabelFlipNeverSameClass(t *testing.T) {
	spec, _ := Get("mnist")
	spec.LabelFlip = 1 // always flip
	d := New(spec, 14)
	for i := 0; i < 200; i++ {
		y := d.flipLabel(5, 0, int64(i))
		if y == 5 {
			t.Fatal("flip must choose a different class")
		}
		if y < 0 || y >= spec.Classes {
			t.Fatalf("flipped label %d out of range", y)
		}
	}
}

func TestLabelFlipDeterministic(t *testing.T) {
	spec, _ := Get("cifar10")
	d := New(spec, 15)
	for i := 0; i < 100; i++ {
		if d.flipLabel(2, 4, int64(i)) != d.flipLabel(2, 4, int64(i)) {
			t.Fatal("flipLabel must be deterministic")
		}
	}
}

func TestLabelFlipZeroIsIdentity(t *testing.T) {
	spec, _ := Get("cancer")
	spec.LabelFlip = 0
	d := New(spec, 16)
	for i := 0; i < 100; i++ {
		if d.flipLabel(1, 0, int64(i)) != 1 {
			t.Fatal("zero flip rate must never flip")
		}
	}
}

func TestModelSpecShapes(t *testing.T) {
	for _, name := range Names() {
		spec, _ := Get(name)
		m := nn.Build(spec.ModelSpec(), tensor.NewRNG(1))
		x := tensor.New(spec.InputShape()...)
		y := m.Forward(x)
		if y.Len() != spec.Classes {
			t.Fatalf("%s model output %d, want %d", name, y.Len(), spec.Classes)
		}
	}
}

func TestSyntheticTaskIsLearnable(t *testing.T) {
	// A few SGD epochs on the cancer benchmark should reach high accuracy —
	// this pins the difficulty calibration for the easiest dataset.
	spec, _ := Get("cancer")
	d := New(spec, 123)
	m := nn.Build(spec.ModelSpec(), tensor.NewRNG(7))
	c := d.Client(0)
	for epoch := 0; epoch < 3; epoch++ {
		for i := 0; i < 200; i++ {
			x, y := c.Get(i % c.Len())
			_, g := m.ExampleGradient(x, y)
			m.SGDStep(0.1, g)
		}
	}
	xs, ys := d.Validation(100)
	correct := 0
	for i, x := range xs {
		if m.Predict(x) == ys[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(xs)); acc < 0.9 {
		t.Fatalf("cancer accuracy after training = %v, want >= 0.9", acc)
	}
}

func TestDerivedCacheIsInvisible(t *testing.T) {
	// The sample cache (cache.go) keeps generated sample tensors. A warmed
	// dataset must return bit-identical examples to a fresh one — on every
	// partitioner, including views that share a cache through
	// WithPartitioner — or the cache is changing streams, not timing.
	spec, _ := Get("adult") // LabelFlip > 0, so the flip streams are live
	for _, part := range []Partitioner{IID{}, Dirichlet{Alpha: 0.3}, QuantitySkew{}, LabelNoiseSkew{}} {
		warm := NewPartitioned(spec, 99, part)
		wc := warm.Client(3)
		// First pass populates the cache, second pass reads it back.
		for pass := 0; pass < 2; pass++ {
			fresh := NewPartitioned(spec, 99, part).Client(3)
			for i := 0; i < 32; i++ {
				wx, wy := wc.Get(i)
				fx, fy := fresh.Get(i)
				if wy != fy {
					t.Fatalf("%s pass %d: cached label %d != fresh label %d at %d", part.Name(), pass, wy, fy, i)
				}
				if !wx.Equal(fx, 0) {
					t.Fatalf("%s pass %d: cached example differs from fresh at %d", part.Name(), pass, i)
				}
			}
		}
	}
}

func TestSampleCacheReturnsPrivateCopies(t *testing.T) {
	spec, _ := Get("cancer")
	d := New(spec, 5)
	a := d.Sample(0, 0, 0)
	for i := range a.Data() {
		a.Data()[i] = -1e9 // clobber the caller's copy
	}
	b := d.Sample(0, 0, 0)
	if b.Data()[0] == -1e9 {
		t.Fatal("mutating a returned sample leaked into the cache")
	}
	c := New(spec, 5).Sample(0, 0, 0)
	if !b.Equal(c, 0) {
		t.Fatal("cached sample differs from a fresh dataset's sample")
	}
}

// TestBatchIntoMatchesBatchAndStack pins BatchInto to the matrix nn.Stack
// builds from Batch, bit for bit and label for label, while the sample
// cache fills, once it is warm and once it is full. Between fetches the
// test scribbles over the batch: a write that reached the cache would
// surface in a later warm fetch.
func TestBatchIntoMatchesBatchAndStack(t *testing.T) {
	for _, name := range []string{"mnist", "adult"} {
		spec, _ := Get(name)
		d := New(spec, 11)
		x := tensor.New(spec.BatchSize, d.Client(0).Features())
		var ys []int
		check := func(what string, id int) {
			cd := d.Client(id)
			for b := 0; b < 4; b++ {
				ys = cd.BatchInto(x, b, ys)
				xs, want := New(spec, 11).Client(id).Batch(b, spec.BatchSize)
				ref := nn.Stack(nil, nil, xs)
				for i, v := range ref.Data() {
					if math.Float64bits(x.Data()[i]) != math.Float64bits(v) {
						t.Fatalf("%s %s client %d batch %d: element %d is %v, Batch+Stack %v", name, what, id, b, i, x.Data()[i], v)
					}
				}
				for j := range want {
					if ys[j] != want[j] {
						t.Fatalf("%s %s client %d batch %d: label %d is %d, Batch %d", name, what, id, b, j, ys[j], want[j])
					}
				}
				x.Fill(-1e9)
			}
		}
		check("cold", 3)
		check("warm", 3)
		for idx := int64(0); d.cache.floats+x.Shape()[1] <= sampleCacheFloats; idx++ {
			d.Sample(9, idx, 0)
		}
		check("full cache", 5)
	}
}

// TestBatchIntoConcurrent: goroutines filling batches of the same clients
// from one dataset race on its cache slots and share the pooled
// generators; each must still read Batch's bits.
func TestBatchIntoConcurrent(t *testing.T) {
	spec, _ := Get("adult")
	const clients, batches = 3, 12
	want := make([][]*tensor.Tensor, clients)
	for id := range want {
		ref := New(spec, 5).Client(id)
		for b := 0; b < batches; b++ {
			xs, _ := ref.Batch(b, spec.BatchSize)
			want[id] = append(want[id], nn.Stack(nil, nil, xs))
		}
	}
	d := New(spec, 5)
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			x := tensor.New(spec.BatchSize, spec.Features)
			var ys []int
			for b := 0; b < batches; b++ {
				ys = d.Client(id).BatchInto(x, b, ys)
				if !x.Equal(want[id][b], 0) {
					t.Errorf("client %d batch %d differs from Batch under concurrent fills", id, b)
					return
				}
			}
		}(g % clients)
	}
	wg.Wait()
}

// TestFullSampleCacheMissClonesNothing: once the sample cache is at its
// cap, a miss must cost no more than generating the sample uncached — the
// cache may not clone a sample it is about to throw away.
func TestFullSampleCacheMissClonesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc counts are meaningless")
	}
	spec, _ := Get("mnist")
	d := New(spec, 5)
	idx := int64(0)
	for n := d.protos[0].Len(); d.cache.floats+n <= sampleCacheFloats; {
		d.Sample(0, idx, 0)
		idx++
	}
	miss := testing.AllocsPerRun(50, func() {
		d.Sample(0, idx, 0)
		idx++
	})
	uncached := testing.AllocsPerRun(50, func() {
		rng := tensor.Split(d.seed, 2000, 0, idx, 0)
		x := d.protos[0].Clone()
		rng.AddNormal(x, d.Spec.Noise)
		idx++
	})
	if miss > uncached {
		t.Fatalf("a miss on a full cache allocates %.0f objects, an uncached sample %.0f", miss, uncached)
	}
}

// TestNewMNISTAllocatesLittle: building a dataset writes each class
// prototype pixel by pixel through Tensor.Set, and core.Run builds one per
// deployment. A Set that heap-allocates its variadic index costs one object
// per pixel (about 7,900 for mnist); the build itself needs a few dozen.
func TestNewMNISTAllocatesLittle(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc counts are meaningless")
	}
	spec, _ := Get("mnist")
	if n := testing.AllocsPerRun(5, func() { New(spec, 5) }); n >= 100 {
		t.Fatalf("dataset.New(mnist) allocates %.0f objects, want < 100", n)
	}
}

// TestClamp01KeepsTheBranchyRulesBits pins the branch-free clamp to the
// rule it replaced, bit for bit: below 0 becomes +0, above 1 becomes 1, and
// everything else — −0 and NaN of either sign included — passes through.
func TestClamp01KeepsTheBranchyRulesBits(t *testing.T) {
	vals := []float64{
		math.Copysign(0, -1), 0, math.NaN(), -math.NaN(), math.Float64frombits(0xfff8000000000001),
		math.Inf(-1), math.Inf(1), -math.MaxFloat64, math.MaxFloat64,
		-math.SmallestNonzeroFloat64, math.SmallestNonzeroFloat64,
		math.Nextafter(1, 2), math.Nextafter(1, 0), 1, -1, 0.5, -0.5, 2, 1e300, -1e-300,
	}
	rng := tensor.NewRNG(3)
	for i := 0; i < 1000; i++ {
		vals = append(vals, rng.Normal(0.5, 0.6))
	}
	x := tensor.FromSlice(append([]float64(nil), vals...), len(vals))
	clamp01(x)
	for i, v := range vals {
		want := v
		if v < 0 {
			want = 0
		} else if v > 1 {
			want = 1
		}
		if got := x.Data()[i]; math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("clamp01(%v) = %v (%#x), want %v (%#x)", v, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}
