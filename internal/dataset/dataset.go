package dataset

import (
	"fmt"
	"math"
	"sort"

	"fedcdp/internal/nn"
	"fedcdp/internal/tensor"
)

// Spec describes one benchmark: data geometry plus the paper's default
// federated-learning hyperparameters for it (Table I).
type Spec struct {
	Name     string
	Channels int // 0 for tabular
	Height   int
	Width    int
	Features int // flat feature count (C*H*W for images)
	Classes  int

	TrainN int // size of the training pool
	ValN   int // size of the validation set

	PerClient        int  // examples held by each client
	ClassesPerClient int  // non-IID shard width; 0 means i.i.d. sampling
	FullCopy         bool // every client holds the same full dataset (cancer)

	BatchSize  int
	LocalIters int // L
	Rounds     int // T
	LR         float64

	Noise     float64 // sample noise std; controls feature overlap
	LabelFlip float64 // fraction of labels flipped uniformly; pins Bayes accuracy at ~1-LabelFlip
	ProtoStd  float64 // prototype separation scale
	Hidden    int     // hidden width for tabular models
	IsTabular bool
}

// Benchmarks returns the five paper benchmarks keyed by name.
func Benchmarks() map[string]Spec {
	specs := []Spec{
		{
			Name: "mnist", Channels: 1, Height: 28, Width: 28, Classes: 10,
			TrainN: 50000, ValN: 10000,
			PerClient: 500, ClassesPerClient: 2,
			BatchSize: 5, LocalIters: 100, Rounds: 100, LR: 0.1,
			Noise: 0.30, LabelFlip: 0.02, ProtoStd: 0.35,
		},
		{
			Name: "cifar10", Channels: 3, Height: 32, Width: 32, Classes: 10,
			TrainN: 40000, ValN: 10000,
			PerClient: 400, ClassesPerClient: 2,
			BatchSize: 4, LocalIters: 100, Rounds: 100, LR: 0.05,
			Noise: 0.55, LabelFlip: 0.32, ProtoStd: 0.45,
		},
		{
			Name: "lfw", Channels: 3, Height: 32, Width: 32, Classes: 62,
			TrainN: 2267, ValN: 756,
			PerClient: 300, ClassesPerClient: 15,
			BatchSize: 3, LocalIters: 100, Rounds: 60, LR: 0.05,
			Noise: 0.35, LabelFlip: 0.28, ProtoStd: 0.55,
		},
		{
			Name: "adult", Features: 105, Classes: 2, IsTabular: true,
			TrainN: 36631, ValN: 12211,
			PerClient: 300, ClassesPerClient: 0,
			BatchSize: 3, LocalIters: 100, Rounds: 10, LR: 0.1,
			Noise: 1.60, LabelFlip: 0.03, ProtoStd: 0.4, Hidden: 32,
		},
		{
			Name: "cancer", Features: 30, Classes: 2, IsTabular: true,
			TrainN: 426, ValN: 143,
			PerClient: 400, FullCopy: true,
			BatchSize: 4, LocalIters: 100, Rounds: 3, LR: 0.1,
			Noise: 0.30, LabelFlip: 0.005, ProtoStd: 0.8, Hidden: 32,
		},
	}
	out := make(map[string]Spec, len(specs))
	for _, s := range specs {
		s := s
		if !s.IsTabular {
			s.Features = s.Channels * s.Height * s.Width
		}
		out[s.Name] = s
	}
	return out
}

// Names returns the benchmark names in the paper's column order.
func Names() []string { return []string{"mnist", "cifar10", "lfw", "adult", "cancer"} }

// Get returns the named benchmark spec or an error listing valid names.
func Get(name string) (Spec, error) {
	b := Benchmarks()
	if s, ok := b[name]; ok {
		return s, nil
	}
	names := make([]string, 0, len(b))
	for n := range b {
		names = append(names, n)
	}
	sort.Strings(names)
	return Spec{}, fmt.Errorf("dataset: unknown benchmark %q (have %v)", name, names)
}

// ModelSpec returns the paper's model for this benchmark: a 2-conv CNN for
// image data, a 2-hidden-layer MLP for tabular data.
func (s Spec) ModelSpec() nn.Spec {
	if s.IsTabular {
		h := s.Hidden
		if h == 0 {
			h = 32
		}
		return nn.TabularMLP(s.Features, h, s.Classes)
	}
	return nn.ImageCNN(s.Channels, s.Height, s.Width, s.Classes)
}

// InputShape returns the tensor shape of one example.
func (s Spec) InputShape() []int {
	if s.IsTabular {
		return []int{s.Features}
	}
	return []int{s.Channels, s.Height, s.Width}
}

// Dataset is a deterministic sample source for one benchmark. How its
// sample pool is divided across clients is decided by a Partitioner (see
// partition.go); New installs the IID partitioner, the paper's Table I
// partition.
type Dataset struct {
	Spec   Spec
	seed   int64
	protos []*tensor.Tensor
	part   Partitioner
	cache  *derivedCache // shared across WithPartitioner views; see cache.go
}

// New builds the benchmark's class prototypes from seed, partitioned with
// the default IID (Table I) scenario.
func New(spec Spec, seed int64) *Dataset {
	return NewPartitioned(spec, seed, IID{})
}

// NewPartitioned builds the benchmark with an explicit client partitioner.
func NewPartitioned(spec Spec, seed int64, p Partitioner) *Dataset {
	if p == nil {
		p = IID{}
	}
	d := &Dataset{Spec: spec, seed: seed, part: p, cache: newDerivedCache()}
	d.protos = make([]*tensor.Tensor, spec.Classes)
	for c := 0; c < spec.Classes; c++ {
		d.protos[c] = d.makePrototype(c)
	}
	return d
}

// Partitioner returns the installed client partitioner.
func (d *Dataset) Partitioner() Partitioner { return d.part }

// WithPartitioner returns a view of the same dataset (sharing its
// prototypes) partitioned by p. The sample streams are unchanged — only
// the client→shard assignment differs — so a server-published scenario can
// repartition a client's already-built dataset cheaply.
func (d *Dataset) WithPartitioner(p Partitioner) *Dataset {
	if p == nil {
		p = IID{}
	}
	nd := *d
	nd.part = p
	return &nd
}

// makePrototype builds a smooth class-specific pattern in [0,1].
func (d *Dataset) makePrototype(class int) *tensor.Tensor {
	rng := tensor.Split(d.seed, 1000, int64(class))
	s := d.Spec
	p := tensor.New(s.InputShape()...)
	if s.IsTabular {
		rng.FillNormal(p, 0.5, s.ProtoStd)
		clamp01(p)
		return p
	}
	// Images: sample a coarse grid per channel and bilinearly upsample so
	// prototypes are smooth (reconstructable structure, like natural images).
	const coarse = 7
	for ch := 0; ch < s.Channels; ch++ {
		grid := make([]float64, coarse*coarse)
		for i := range grid {
			grid[i] = 0.5 + float64(s.ProtoStd*rng.Normal(0, 1))
		}
		for y := 0; y < s.Height; y++ {
			fy := float64(float64(y) / float64(s.Height-1) * float64(coarse-1))
			y0 := int(fy)
			y1 := y0 + 1
			if y1 >= coarse {
				y1 = coarse - 1
			}
			wy := fy - float64(y0)
			for x := 0; x < s.Width; x++ {
				fx := float64(float64(x) / float64(s.Width-1) * float64(coarse-1))
				x0 := int(fx)
				x1 := x0 + 1
				if x1 >= coarse {
					x1 = coarse - 1
				}
				wx := fx - float64(x0)
				v := float64((1-wy)*(float64((1-wx)*grid[y0*coarse+x0])+float64(wx*grid[y0*coarse+x1]))) +
					float64(wy*(float64((1-wx)*grid[y1*coarse+x0])+float64(wx*grid[y1*coarse+x1])))
				p.Set(v, ch, y, x)
			}
		}
	}
	clamp01(p)
	return p
}

// clamp01 clamps t into [0, 1] in place: below 0 becomes +0, above 1
// becomes 1, −0 and NaN pass through (max(v, 0) would make −0 +0). Each
// out-of-range set is one contiguous run of bit patterns, so each test is
// an unsigned compare the compiler turns into a conditional move.
func clamp01(t *tensor.Tensor) {
	const one, inf = 0x3ff0000000000000, 0x7ff0000000000000
	d := t.Data()
	for i, v := range d {
		b := math.Float64bits(v)
		if b-(1<<63+1) < inf { // −Inf ≤ v < −0
			b = 0
		}
		if b-(one+1) < inf-one { // 1 < v ≤ +Inf
			b = one
		}
		d[i] = math.Float64frombits(b)
	}
}

// Prototype returns the class prototype (do not mutate).
func (d *Dataset) Prototype(class int) *tensor.Tensor { return d.protos[class] }

// Sample deterministically generates the idx-th example of the given class
// on the given stream. The same (stream, idx, class) always yields the same
// example; repeat draws are served from the sample cache (see cache.go),
// and the returned tensor is always the caller's to mutate.
func (d *Dataset) Sample(stream, idx int64, class int) *tensor.Tensor {
	x := tensor.New(d.protos[class].Shape()...)
	d.sampleInto(x.Data(), stream, idx, class)
	return x
}

// sampleInto writes Sample(stream, idx, class) into dst: a copy of the
// cached sample, or a cold one generated into a new slot (see cache.go).
func (d *Dataset) sampleInto(dst []float64, stream, idx int64, class int) {
	key := sampleKey{stream: stream, idx: idx, class: class}
	hit, keep := d.cache.copyOut(key, dst)
	if hit {
		return
	}
	g := sampleGens.Get().(*sampleGen)
	if g.scratch == nil || g.scratch.Len() != len(dst) {
		g.scratch = tensor.New(d.protos[class].Shape()...)
	}
	x := g.scratch
	if keep {
		x = tensor.New(x.Shape()...)
	}
	g.rng.Reseed(d.seed, 2000, stream, idx, int64(class))
	x.CopyFrom(d.protos[class])
	g.rng.AddNormal(x, d.Spec.Noise)
	clamp01(x)
	copy(dst, x.Data())
	sampleGens.Put(g)
	if keep {
		d.cache.keep(key, x)
	}
}

// flipLabel deterministically replaces the true class with a uniformly
// random different one for a LabelFlip fraction of (stream, idx) pairs. This
// pins the Bayes accuracy of the benchmark at ≈ 1−LabelFlip, which is how
// the synthetic family reproduces the paper's per-dataset accuracy ceilings
// (e.g. CIFAR-10 ≈ 0.67) with otherwise separable prototypes.
func (d *Dataset) flipLabel(class int, stream, idx int64) int {
	return d.flip(class, d.Spec.LabelFlip, 4000, stream, idx)
}

// extraFlip applies a per-client additional label flip at rate rho (the
// label-noise-skew scenario), on its own Split label space (4100) so the
// base flipLabel stream — and with it every iid-scenario golden — is
// untouched.
func (d *Dataset) extraFlip(class int, rho float64, stream, idx int64) int {
	return d.flip(class, rho, 4100, stream, idx)
}

// extraFlipAtRound is extraFlip on a round-keyed coin stream: fresh
// per-(client, index, round) draws from the given Split label space (4200
// for the decaying-label-noise scenario), so an example's noise is a pure
// function of (seed, clientID, round) rather than frozen at partition time.
func (d *Dataset) extraFlipAtRound(class int, rho float64, label, stream, idx, round int64) int {
	return d.flip(class, rho, label, stream, idx, round)
}

// flip draws label-flip stream (seed, labels...): its first draw is the
// coin that flips class at rate rho, its second the uniformly random
// different class it flips to; only a label that flips builds the stream.
func (d *Dataset) flip(class int, rho float64, labels ...int64) int {
	if rho <= 0 || d.Spec.Classes < 2 || tensor.SplitFloat64(d.seed, labels...) >= rho {
		return class
	}
	rng := tensor.Split(d.seed, labels...)
	rng.Float64() // the coin
	other := rng.Intn(d.Spec.Classes - 1)
	if other >= class {
		other++
	}
	return other
}

// Validation returns a deterministic, class-balanced validation set of up to
// n examples.
func (d *Dataset) Validation(n int) ([]*tensor.Tensor, []int) {
	if n > d.Spec.ValN {
		n = d.Spec.ValN
	}
	xs := make([]*tensor.Tensor, n)
	ys := make([]int, n)
	for i := 0; i < n; i++ {
		c := i % d.Spec.Classes
		xs[i] = d.Sample(-1, int64(i), c)
		ys[i] = d.flipLabel(c, -1, int64(i))
	}
	return xs, ys
}

// ClientData is a lazy view of one client's local shard, as assigned by the
// dataset's partitioner.
type ClientData struct {
	ds    *Dataset
	id    int
	shard Shard
	flip  LabelFlipper
}

// LabelFlipper rewrites one local example's label after the dataset's own
// noise model has run: index is the example's position in the shard, label
// the label Get would have returned, classes the benchmark's class count.
// Deterministic flippers keep the shard a pure function of its inputs
// (fault harnesses install seeded poisoning attacks through this hook).
type LabelFlipper func(index, label, classes int) int

// WithLabelFlipper returns a view of the same shard whose labels pass
// through f; the receiver is not modified. Repartition preserves the
// flipper, so a server-published scenario cannot silently un-poison a view.
func (c *ClientData) WithLabelFlipper(f LabelFlipper) *ClientData {
	nc := *c
	nc.flip = f
	return &nc
}

// Client returns the shard view for client id under the dataset's
// partitioner. The default (IID) partitioner reproduces the paper's
// Table I rule: each client holds PerClient examples drawn from
// ClassesPerClient contiguous classes (or all classes when 0/FullCopy).
func (d *Dataset) Client(id int) *ClientData {
	return &ClientData{ds: d, id: id, shard: d.part.Shard(d, id)}
}

// ClientAt returns the shard view for client id at a specific round.
// Time-varying partitioners (RoundPartitioner) materialize the round's
// shard — a pure function of (seed, id, round); static partitioners return
// exactly Client(id), so closed-world runs are untouched by the round.
func (d *Dataset) ClientAt(id, round int) *ClientData {
	if rp, ok := d.part.(RoundPartitioner); ok {
		return &ClientData{ds: d, id: id, shard: rp.ShardAt(d, id, round)}
	}
	return d.Client(id)
}

// Repartition returns this client's shard view under a different
// partitioner (same dataset, same id) — how a remote client applies the
// scenario its server publishes with the round config.
func (c *ClientData) Repartition(p Partitioner) *ClientData {
	nc := c.ds.WithPartitioner(p).Client(c.id)
	nc.flip = c.flip
	return nc
}

// RepartitionAt is Repartition pinned to a round: remote clients apply the
// server-published scenario for the round they were asked to train, so a
// time-varying scenario yields the same shard on every runtime.
func (c *ClientData) RepartitionAt(p Partitioner, round int) *ClientData {
	nc := c.ds.WithPartitioner(p).ClientAt(c.id, round)
	nc.flip = c.flip
	return nc
}

// Len returns the number of local examples.
func (c *ClientData) Len() int { return c.shard.N }

// Classes returns the classes that can appear in this shard.
func (c *ClientData) Classes() []int { return c.shard.Classes }

// Features returns the length of one example.
func (c *ClientData) Features() int { return c.ds.protos[0].Len() }

// Get returns the i-th local example and its label, generated
// deterministically from (dataset seed, client id, i): the partitioner
// assigns the class, the dataset draws the sample and applies label noise
// (the spec's base rate plus any per-client skew rate).
func (c *ClientData) Get(i int) (*tensor.Tensor, int) {
	class, y := c.label(i)
	return c.ds.Sample(int64(c.id), int64(i), class), y
}

// label returns local example i's class and its label after label noise.
func (c *ClientData) label(i int) (class, y int) {
	if i < 0 || i >= c.shard.N {
		panic(fmt.Sprintf("dataset: client example index %d out of range [0,%d)", i, c.shard.N))
	}
	class = c.shard.ClassAt(i)
	y = c.ds.flipLabel(class, int64(c.id), int64(i))
	if c.shard.FlipRate > 0 {
		if c.shard.FlipLabel != 0 {
			y = c.ds.extraFlipAtRound(y, c.shard.FlipRate, c.shard.FlipLabel, int64(c.id), int64(i), int64(c.shard.Round))
		} else {
			y = c.ds.extraFlip(y, c.shard.FlipRate, int64(c.id), int64(i))
		}
	}
	if c.flip != nil {
		y = c.flip(i, y, c.ds.Spec.Classes)
	}
	return class, y
}

// Batch returns batch b of size bs using a deterministic per-client epoch
// ordering (with wrap-around, matching "sampling with replacement" at the
// batch level used by the paper's simulator).
func (c *ClientData) Batch(b, bs int) ([]*tensor.Tensor, []int) {
	xs := make([]*tensor.Tensor, bs)
	ys := make([]int, bs)
	for j := 0; j < bs; j++ {
		idx := (b*bs + j) % c.shard.N
		xs[j], ys[j] = c.Get(idx)
	}
	return xs, ys
}

// BatchInto is Batch(b, bs) for bs = x's row count, written straight into
// the rows of x (bs × Features), with the labels in ys's storage, which it
// returns. No example is cloned or stacked: a cached one is one copy.
func (c *ClientData) BatchInto(x *tensor.Tensor, b int, ys []int) []int {
	bs, n := x.Shape()[0], x.Shape()[1]
	if n != c.Features() {
		panic(fmt.Sprintf("dataset: batch rows of %d features, want %d", n, c.Features()))
	}
	xd, ys := x.Data(), ys[:0]
	for j := 0; j < bs; j++ {
		idx := (b*bs + j) % c.shard.N
		class, y := c.label(idx)
		c.ds.sampleInto(xd[j*n:(j+1)*n], int64(c.id), int64(idx), class)
		ys = append(ys, y)
	}
	return ys
}
