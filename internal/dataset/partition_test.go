package dataset

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"

	"fedcdp/internal/tensor"
)

func allPartitioners() []Partitioner {
	return []Partitioner{
		IID{},
		Dirichlet{Alpha: 0.1},
		Dirichlet{Alpha: 10},
		Pathological{Shards: 2},
		Pathological{Shards: 5},
		QuantitySkew{},
		LabelNoiseSkew{},
	}
}

func TestScenarioRegistry(t *testing.T) {
	for _, name := range ScenarioNames() {
		p, err := Scenario{Name: name}.Partitioner()
		if err != nil {
			t.Fatalf("scenario %q: %v", name, err)
		}
		if p.Name() != name {
			t.Fatalf("scenario %q resolved to partitioner %q", name, p.Name())
		}
	}
	if p, err := (Scenario{}).Partitioner(); err != nil || p.Name() != ScenarioIID {
		t.Fatalf("zero scenario = (%v, %v), want IID", p, err)
	}
	if _, err := (Scenario{Name: "zipf"}).Partitioner(); err == nil {
		t.Fatal("expected error for unknown scenario")
	}
	for _, alpha := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := (Scenario{Name: ScenarioDirichlet, Alpha: alpha}).Partitioner(); err == nil {
			t.Fatalf("dirichlet alpha %v: expected an error", alpha)
		}
	}
	if p, err := (Scenario{Name: ScenarioDirichlet}).Partitioner(); err != nil || p.(Dirichlet).Alpha != 0 {
		t.Fatalf("dirichlet alpha 0 = (%v, %v), want the 0.5 default's zero value", p, err)
	}
}

func TestScenarioString(t *testing.T) {
	cases := map[string]Scenario{
		"iid":                    {},
		"dirichlet(alpha=0.5)":   {Name: ScenarioDirichlet},
		"dirichlet(alpha=0.1)":   {Name: ScenarioDirichlet, Alpha: 0.1},
		"pathological(shards=2)": {Name: ScenarioPathological},
		"quantity":               {Name: ScenarioQuantity},
	}
	for want, sc := range cases {
		if got := sc.String(); got != want {
			t.Errorf("Scenario%+v.String() = %q, want %q", sc, got, want)
		}
	}
}

// legacyClient reproduces the pre-partitioner Client(id)/Get(i) logic
// verbatim: the contract the iid scenario must preserve so every PR1–PR3
// seeded golden stays bit-for-bit.
func legacyClient(d *Dataset, id, i int) (*tensor.Tensor, int) {
	s := d.Spec
	var classes []int
	switch {
	case s.FullCopy, s.ClassesPerClient == 0:
		classes = make([]int, s.Classes)
		for c := range classes {
			classes[c] = c
		}
	default:
		classes = make([]int, s.ClassesPerClient)
		base := (id * s.ClassesPerClient) % s.Classes
		for j := range classes {
			classes[j] = (base + j) % s.Classes
		}
	}
	pick := tensor.Split(d.seed, 3000, int64(id), int64(i))
	class := classes[pick.Intn(len(classes))]
	return d.Sample(int64(id), int64(i), class), d.flipLabel(class, int64(id), int64(i))
}

func TestIIDScenarioMatchesLegacyPartition(t *testing.T) {
	for _, name := range Names() {
		spec, _ := Get(name)
		d := New(spec, 42)
		for id := 0; id < 5; id++ {
			c := d.Client(id)
			if c.Len() != spec.PerClient {
				t.Fatalf("%s client %d Len = %d, want %d", name, id, c.Len(), spec.PerClient)
			}
			for i := 0; i < 8; i++ {
				x, y := c.Get(i)
				lx, ly := legacyClient(d, id, i)
				if y != ly || !x.Equal(lx, 0) {
					t.Fatalf("%s client %d example %d diverged from the legacy partition", name, id, i)
				}
			}
		}
	}
}

// shardFingerprint digests everything observable about one client's shard.
func shardFingerprint(d *Dataset, id int) uint64 {
	h := fnv.New64a()
	c := d.Client(id)
	fmt.Fprintf(h, "n=%d classes=%v", c.Len(), c.Classes())
	for i := 0; i < 16 && i < c.Len(); i++ {
		x, y := c.Get(i)
		fmt.Fprintf(h, " %d:%d:%x", i, y, math.Float64bits(x.Data()[0]))
	}
	return h.Sum64()
}

func TestPartitionDeterminismAcrossGoroutines(t *testing.T) {
	spec, _ := Get("mnist")
	const clients = 24
	for _, p := range allPartitioners() {
		d := NewPartitioned(spec, 7, p)
		// Sequential reference, ascending ids.
		want := make([]uint64, clients)
		for id := range want {
			want[id] = shardFingerprint(d, id)
		}
		// Concurrent, descending ids, one goroutine per client, against a
		// fresh dataset — the streaming runtime's any-order materialization.
		d2 := NewPartitioned(spec, 7, p)
		got := make([]uint64, clients)
		var wg sync.WaitGroup
		for id := clients - 1; id >= 0; id-- {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				got[id] = shardFingerprint(d2, id)
			}(id)
		}
		wg.Wait()
		for id := range want {
			if got[id] != want[id] {
				t.Fatalf("%s: client %d shard depends on materialization order (GOMAXPROCS=%d)",
					p.Name(), id, runtime.GOMAXPROCS(0))
			}
		}
	}
}

func TestDirichletSkewScalesWithAlpha(t *testing.T) {
	spec, _ := Get("mnist")
	skewed := NewPartitioned(spec, 3, Dirichlet{Alpha: 0.05}).Stats(32)
	mixed := NewPartitioned(spec, 3, Dirichlet{Alpha: 100}).Stats(32)
	if skewed.MeanEntropy >= mixed.MeanEntropy {
		t.Fatalf("alpha=0.05 entropy %.3f not below alpha=100 entropy %.3f",
			skewed.MeanEntropy, mixed.MeanEntropy)
	}
	// alpha→∞ approaches the uniform 10-class mix (log2 10 ≈ 3.32 bits).
	if mixed.MeanEntropy < 2.5 {
		t.Fatalf("alpha=100 entropy %.3f, want near-uniform (> 2.5 bits)", mixed.MeanEntropy)
	}
	if skewed.MeanEntropy > 1.5 {
		t.Fatalf("alpha=0.05 entropy %.3f, want heavily concentrated (< 1.5 bits)", skewed.MeanEntropy)
	}
}

func TestDirichletLabelsInRange(t *testing.T) {
	spec, _ := Get("lfw")
	spec.LabelFlip = 0
	d := NewPartitioned(spec, 5, Dirichlet{Alpha: 0.3})
	c := d.Client(2)
	for i := 0; i < 40; i++ {
		_, y := c.Get(i)
		if y < 0 || y >= spec.Classes {
			t.Fatalf("label %d outside [0,%d)", y, spec.Classes)
		}
	}
}

func TestPathologicalShardWidth(t *testing.T) {
	spec, _ := Get("mnist")
	spec.LabelFlip = 0
	for _, shards := range []int{1, 2, 3} {
		d := NewPartitioned(spec, 11, Pathological{Shards: shards})
		for id := 0; id < 8; id++ {
			c := d.Client(id)
			if len(c.Classes()) != shards {
				t.Fatalf("shards=%d client %d support %v", shards, id, c.Classes())
			}
			seen := map[int]bool{}
			for i := 0; i < 60; i++ {
				_, y := c.Get(i)
				seen[y] = true
			}
			if len(seen) > shards {
				t.Fatalf("shards=%d client %d produced %d classes", shards, id, len(seen))
			}
		}
	}
}

func TestPathologicalBlocksAreLabelRuns(t *testing.T) {
	spec, _ := Get("mnist")
	spec.LabelFlip = 0
	d := NewPartitioned(spec, 11, Pathological{Shards: 2})
	c := d.Client(0)
	// First half of the shard is one class, second half the other.
	_, first := c.Get(0)
	_, last := c.Get(c.Len() - 1)
	if first == last {
		t.Fatalf("expected two label blocks, got %d throughout", first)
	}
	for i := 0; i < c.Len()/2; i++ {
		if _, y := c.Get(i); y != first {
			t.Fatalf("index %d in first block has label %d, want %d", i, y, first)
		}
	}
}

func TestPathologicalShardsClampedToClasses(t *testing.T) {
	spec, _ := Get("cancer") // 2 classes
	d := NewPartitioned(spec, 1, Pathological{Shards: 64})
	if got := len(d.Client(0).Classes()); got != 2 {
		t.Fatalf("support %d classes, want clamped to 2", got)
	}
}

func TestQuantitySkewSizes(t *testing.T) {
	spec, _ := Get("mnist") // PerClient = 500
	d := NewPartitioned(spec, 9, QuantitySkew{})
	const clients = 64
	st := d.Stats(clients)
	if st.MinN == st.MaxN {
		t.Fatal("quantity skew produced uniform shard sizes")
	}
	floor := int(float64(spec.PerClient) * quantityMinFactor)
	if st.MinN < floor {
		t.Fatalf("min shard %d below floor %d", st.MinN, floor)
	}
	if st.MaxN > int(quantityCap*float64(spec.PerClient)) {
		t.Fatalf("max shard %d above cap", st.MaxN)
	}
	// The truncated-Pareto normalization keeps the population mean near
	// PerClient (heavy-tailed, so the tolerance is loose).
	if st.MeanN < 0.4*float64(spec.PerClient) || st.MeanN > 2.5*float64(spec.PerClient) {
		t.Fatalf("mean shard %.0f far from PerClient %d", st.MeanN, spec.PerClient)
	}
	// Batches and Get respect the per-client size.
	c := d.Client(0)
	if xs, _ := c.Batch(0, 4); len(xs) != 4 {
		t.Fatal("batch under quantity skew")
	}
}

func TestLabelNoiseSkewRates(t *testing.T) {
	spec, _ := Get("mnist")
	spec.LabelFlip = 0 // isolate the per-client extra noise
	d := NewPartitioned(spec, 21, LabelNoiseSkew{})
	iid := NewPartitioned(spec, 21, IID{})
	rates := make([]float64, 0, 12)
	for id := 0; id < 12; id++ {
		c, ref := d.Client(id), iid.Client(id)
		flipped := 0
		const n = 300
		for i := 0; i < n; i++ {
			_, y := c.Get(i)
			_, ry := ref.Get(i)
			if y != ry {
				flipped++
			}
		}
		rate := float64(flipped) / n
		if rate > labelNoiseMaxRate+0.08 {
			t.Fatalf("client %d flip rate %.3f above bound %.2f", id, rate, labelNoiseMaxRate)
		}
		rates = append(rates, rate)
	}
	var min, max = rates[0], rates[0]
	for _, r := range rates {
		if r < min {
			min = r
		}
		if r > max {
			max = r
		}
	}
	if max-min < 0.05 {
		t.Fatalf("flip rates %.3f..%.3f not heterogeneous across clients", min, max)
	}
}

func TestLabelNoiseSkewKeepsIIDSamples(t *testing.T) {
	spec, _ := Get("mnist")
	d := NewPartitioned(spec, 21, LabelNoiseSkew{})
	iid := NewPartitioned(spec, 21, IID{})
	for i := 0; i < 10; i++ {
		x, _ := d.Client(3).Get(i)
		rx, _ := iid.Client(3).Get(i)
		if !x.Equal(rx, 0) {
			t.Fatal("label-noise skew must only perturb labels, not samples")
		}
	}
}

func TestGammaSampleMoments(t *testing.T) {
	rng := tensor.NewRNG(123)
	for _, shape := range []float64{0.3, 1, 2.5} {
		const n = 20000
		var sum float64
		for i := 0; i < n; i++ {
			sum += gammaSample(rng, shape)
		}
		mean := sum / n
		if math.Abs(mean-shape) > 0.08*shape+0.02 {
			t.Fatalf("Gamma(%g) sample mean %.4f, want ≈ %g", shape, mean, shape)
		}
	}
}

func TestDirichletSampleIsDistribution(t *testing.T) {
	for _, alpha := range []float64{0.05, 0.5, 5} {
		p := dirichletSample(tensor.NewRNG(5), alpha, 10)
		sum := 0.0
		for _, v := range p {
			if v < 0 {
				t.Fatalf("alpha=%g negative proportion %v", alpha, v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("alpha=%g proportions sum to %v", alpha, sum)
		}
	}
}

func TestWithPartitionerSharesPrototypesAndRepartition(t *testing.T) {
	spec, _ := Get("mnist")
	d := New(spec, 42)
	d2 := d.WithPartitioner(Pathological{Shards: 2})
	if d.Prototype(0) != d2.Prototype(0) {
		t.Fatal("WithPartitioner must share prototypes")
	}
	if d.Partitioner().Name() != ScenarioIID || d2.Partitioner().Name() != ScenarioPathological {
		t.Fatal("WithPartitioner must not mutate the original")
	}
	re := d.Client(3).Repartition(Pathological{Shards: 2})
	want := d2.Client(3)
	if fmt.Sprint(re.Classes()) != fmt.Sprint(want.Classes()) {
		t.Fatalf("Repartition classes %v, want %v", re.Classes(), want.Classes())
	}
}

func TestStatsReportLabelNoiseRates(t *testing.T) {
	spec, _ := Get("mnist")
	st := NewPartitioned(spec, 21, LabelNoiseSkew{}).Stats(12)
	if st.MaxFlip <= 0 || st.MaxFlip > labelNoiseMaxRate {
		t.Fatalf("max flip %v outside (0, %v]", st.MaxFlip, labelNoiseMaxRate)
	}
	if st.MeanFlip <= 0 || st.MeanFlip > st.MaxFlip {
		t.Fatalf("mean flip %v inconsistent with max %v", st.MeanFlip, st.MaxFlip)
	}
	if s := st.String(); !strings.Contains(s, "extra-flip") {
		t.Fatalf("labelnoise stats line missing flip summary: %q", s)
	}
	if s := New(spec, 21).Stats(12).String(); strings.Contains(s, "extra-flip") {
		t.Fatalf("iid stats line must not report flip rates: %q", s)
	}
}

func TestStatsIIDMatchesSpec(t *testing.T) {
	spec, _ := Get("mnist")
	st := New(spec, 42).Stats(10)
	if st.MinN != spec.PerClient || st.MaxN != spec.PerClient {
		t.Fatalf("iid stats sizes %d..%d, want %d", st.MinN, st.MaxN, spec.PerClient)
	}
	// 2 classes per client, plus the occasional base label flip.
	if st.MeanClasses < 2 || st.MeanClasses > 3 {
		t.Fatalf("iid mean classes %.2f, want ≈ 2", st.MeanClasses)
	}
	if st.Clients != 10 || st.TotalN != 10*spec.PerClient {
		t.Fatalf("stats totals %+v", st)
	}
}

func BenchmarkPartition(b *testing.B) {
	spec, _ := Get("mnist")
	for _, p := range []Partitioner{IID{}, Dirichlet{Alpha: 0.5}, Pathological{Shards: 2}, QuantitySkew{}, LabelNoiseSkew{}} {
		d := NewPartitioned(spec, 42, p)
		b.Run(p.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c := d.Client(i % 1024)
				if _, y := c.Get(i % c.Len()); y < 0 {
					b.Fatal("bad label")
				}
			}
		})
	}
}
