package dataset

import (
	"fmt"
	"math"
	"sort"

	"fedcdp/internal/tensor"
)

// This file is the heterogeneity scenario engine: pluggable client-data
// partitioners that decide how the benchmark's sample pool is split across
// the client population. Every partitioner is a pure function of
// (dataset seed, client id) — no shared mutable state, no global shuffle —
// so shards can be materialized lazily, in any order, from any goroutine,
// and a K=10,000-client run still only pays for the clients it samples.
//
// Split/label-space allocation within the dataset seed (see also the
// sample/prototype labels in dataset.go):
//
//	3000  per-(client, index) class pick inside a shard (IID, LabelNoiseSkew)
//	3100  per-client Dirichlet class proportions
//	3150  per-(client, index) Dirichlet class draw
//	3200  pathological shard permutation (shared by all clients)
//	3250  per-client quantity-skew size draw
//	3260  per-(client, index) quantity-skew class pick
//	3300  per-client label-noise rate draw (LabelNoiseSkew, DecayingLabelNoise)
//	3400  per-(client, index, stage) incremental-classes pick
//	4100  per-(client, index) extra label-flip coin (label-noise skew)
//	4200  per-(client, index, round) decaying-noise flip coin
//
// Time-varying partitioners (RoundPartitioner) additionally key their
// draws by a round or stage component — still pure functions, now of
// (seed, clientID, round) — so open-world scenarios materialize lazily and
// replay bit-identically like everything else.

// Scenario names accepted by Scenario.Name. The zero value ("" or
// ScenarioIID) reproduces the paper's Table I partition exactly.
const (
	ScenarioIID          = "iid"
	ScenarioDirichlet    = "dirichlet"
	ScenarioPathological = "pathological"
	ScenarioQuantity     = "quantity"
	ScenarioLabelNoise   = "labelnoise"
	ScenarioIncremental  = "incremental"
	ScenarioDecayNoise   = "decaynoise"
)

// ScenarioNames lists the scenario names in documentation order.
func ScenarioNames() []string {
	return []string{ScenarioIID, ScenarioDirichlet, ScenarioPathological, ScenarioQuantity, ScenarioLabelNoise, ScenarioIncremental, ScenarioDecayNoise}
}

// Scenario selects a partitioner by name plus its parameters. It is a plain
// value (config- and gob-friendly) so it can travel through core.Config
// and the fl.RoundConfig a server publishes to remote clients.
type Scenario struct {
	// Name is one of ScenarioNames(); "" means ScenarioIID.
	Name string
	// Alpha is the Dirichlet concentration (dirichlet scenario); smaller is
	// more skewed. 0 defaults to 0.5.
	Alpha float64
	// Shards is the number of label shards per client (pathological
	// scenario). 0 defaults to 2, McMahan et al.'s setting.
	Shards int
	// Period is the round cadence of the time-varying scenarios: the
	// incremental scenario reveals one new class every Period rounds, the
	// decaynoise scenario halves its extra flip rate every Period rounds.
	// 0 defaults to 5.
	Period int
}

// String renders the scenario with its effective parameters.
func (s Scenario) String() string {
	switch s.Name {
	case ScenarioDirichlet:
		a := s.Alpha
		if a <= 0 {
			a = 0.5
		}
		return fmt.Sprintf("dirichlet(alpha=%g)", a)
	case ScenarioPathological:
		m := s.Shards
		if m <= 0 {
			m = 2
		}
		return fmt.Sprintf("pathological(shards=%d)", m)
	case ScenarioIncremental:
		return fmt.Sprintf("incremental(period=%d)", effectivePeriod(s.Period))
	case ScenarioDecayNoise:
		return fmt.Sprintf("decaynoise(period=%d)", effectivePeriod(s.Period))
	case "", ScenarioIID:
		return ScenarioIID
	default:
		return s.Name
	}
}

// effectivePeriod resolves the time-varying scenarios' round cadence.
func effectivePeriod(p int) int {
	if p <= 0 {
		return 5
	}
	return p
}

// Partitioner returns the partitioner this scenario selects, or an error
// listing the valid names.
func (s Scenario) Partitioner() (Partitioner, error) {
	switch s.Name {
	case "", ScenarioIID:
		return IID{}, nil
	case ScenarioDirichlet:
		return Dirichlet{Alpha: s.Alpha}, nil
	case ScenarioPathological:
		return Pathological{Shards: s.Shards}, nil
	case ScenarioQuantity:
		return QuantitySkew{}, nil
	case ScenarioLabelNoise:
		return LabelNoiseSkew{}, nil
	case ScenarioIncremental:
		return IncrementalClasses{Period: s.Period}, nil
	case ScenarioDecayNoise:
		return DecayingLabelNoise{Period: s.Period}, nil
	default:
		return nil, fmt.Errorf("dataset: unknown scenario %q (have %v)", s.Name, ScenarioNames())
	}
}

// Shard describes one client's local data distribution: its size, the
// classes that can appear, a deterministic index→class assignment, and an
// optional extra label-noise rate. ClassAt must be a pure function of its
// argument (it is called from concurrent trainers).
type Shard struct {
	// N is the number of local examples.
	N int
	// Classes is the support: every class ClassAt can return, ascending.
	Classes []int
	// ClassAt returns the pre-flip class of local example i ∈ [0, N).
	ClassAt func(i int) int
	// FlipRate is an additional per-client label-flip probability applied
	// on top of the spec's base LabelFlip (label-noise skew); 0 elsewhere.
	FlipRate float64
	// FlipLabel, when non-zero, redirects the extra-flip coins to a
	// round-keyed Split label space (4200: per-(client, index, round)
	// draws); 0 keeps the static per-(client, index) stream (4100).
	FlipLabel int64
	// Round is the round this shard view was materialized for — set by
	// RoundPartitioner shards, consumed by the round-keyed flip stream;
	// 0 on static shards.
	Round int
}

// Partitioner determines each client's local data distribution. Shard must
// be deterministic in (d.seed, id) and safe for concurrent use: the
// streaming runtime materializes cohort members from many goroutines in
// whatever order workers free up.
type Partitioner interface {
	// Name identifies the partitioner in reports and histories.
	Name() string
	// Shard returns client id's local shard description.
	Shard(d *Dataset, id int) Shard
}

// RoundPartitioner is a Partitioner whose shards vary over the round
// horizon: client data that drifts (new classes appearing mid-run, noise
// rates that decay). ShardAt must be a pure function of (d.seed, id,
// round) — never of materialization order — so time-varying shards stay
// lazily materializable and bit-reproducible like static ones. Shard(d,
// id) must equal ShardAt(d, id, 0), the view round-blind callers see.
type RoundPartitioner interface {
	Partitioner
	// ShardAt returns client id's local shard as of the given round.
	ShardAt(d *Dataset, id, round int) Shard
}

// specClasses returns the class support the paper's Table I assigns to
// client id: ClassesPerClient contiguous classes for the non-IID image
// benchmarks, all classes for tabular/full-copy benchmarks.
func specClasses(s Spec, id int) []int {
	if s.FullCopy || s.ClassesPerClient == 0 {
		classes := make([]int, s.Classes)
		for c := range classes {
			classes[c] = c
		}
		return classes
	}
	classes := make([]int, s.ClassesPerClient)
	base := (id * s.ClassesPerClient) % s.Classes
	for j := range classes {
		classes[j] = (base + j) % s.Classes
	}
	return classes
}

// uniformClassAt is the original per-(client, index) class pick: uniform
// over the shard's classes, drawn from Split label 3000. IID and
// LabelNoiseSkew share it, which is what keeps the iid scenario bit-for-bit
// compatible with the pre-partitioner Client(id). It reseeds a pooled RNG.
func uniformClassAt(d *Dataset, id int, classes []int) func(int) int {
	return func(i int) int {
		g := sampleGens.Get().(*sampleGen)
		g.rng.Reseed(d.seed, 3000, int64(id), int64(i))
		c := classes[g.rng.Intn(len(classes))]
		sampleGens.Put(g)
		return c
	}
}

// IID is the paper's Table I partition (the pre-scenario-engine behaviour):
// every client holds Spec.PerClient examples, classes come from the spec's
// contiguous-shard rule, and the class of each local example is a uniform
// pick within the shard. Despite the name this is only i.i.d. *within* the
// shard; image benchmarks keep their spec-level 2-classes-per-client skew.
// It is the reference scenario every seeded golden is pinned against.
type IID struct{}

// Name implements Partitioner.
func (IID) Name() string { return ScenarioIID }

// Shard implements Partitioner.
func (IID) Shard(d *Dataset, id int) Shard {
	classes := specClasses(d.Spec, id)
	return Shard{
		N:       d.Spec.PerClient,
		Classes: classes,
		ClassAt: uniformClassAt(d, id, classes),
	}
}

// Dirichlet is label-distribution skew: client k's class proportions are
// drawn once from Dir(α, …, α) keyed by (seed, k), and each local example's
// class is an independent draw from that categorical distribution. Small α
// concentrates each client on few classes (α→0 approaches one-class
// clients); large α approaches a uniform mix. This is the standard
// federated-learning heterogeneity model (Hsu et al.).
type Dirichlet struct {
	// Alpha is the concentration parameter; 0 defaults to 0.5.
	Alpha float64
}

// Name implements Partitioner.
func (Dirichlet) Name() string { return ScenarioDirichlet }

// Shard implements Partitioner.
func (p Dirichlet) Shard(d *Dataset, id int) Shard {
	alpha := p.Alpha
	if alpha <= 0 {
		alpha = 0.5
	}
	s := d.Spec
	rng := tensor.Split(d.seed, 3100, int64(id))
	props := dirichletSample(rng, alpha, s.Classes)
	// Cumulative distribution for inverse-CDF draws at each index.
	cdf := make([]float64, s.Classes)
	sum := 0.0
	for c, w := range props {
		sum += w
		cdf[c] = sum
	}
	classes := make([]int, s.Classes)
	for c := range classes {
		classes[c] = c
	}
	return Shard{
		N:       s.PerClient,
		Classes: classes,
		ClassAt: func(i int) int {
			u := tensor.Split(d.seed, 3150, int64(id), int64(i)).Float64()
			c := sort.SearchFloat64s(cdf, u)
			if c >= len(cdf) {
				c = len(cdf) - 1
			}
			return c
		},
	}
}

// Pathological is McMahan et al.'s shard assignment: classes are shuffled
// once per dataset seed, each client takes Shards consecutive entries of
// that shuffle, and its local indices are split into contiguous
// equal-sized blocks, one per shard — the "sorted by label, dealt in
// shards" partition where most clients see only Shards classes and local
// batches are label-homogeneous runs.
type Pathological struct {
	// Shards is the number of label shards per client; 0 defaults to 2 and
	// values above the class count are clamped.
	Shards int
}

// Name implements Partitioner.
func (Pathological) Name() string { return ScenarioPathological }

// Shard implements Partitioner.
func (p Pathological) Shard(d *Dataset, id int) Shard {
	s := d.Spec
	m := p.Shards
	if m <= 0 {
		m = 2
	}
	if m > s.Classes {
		m = s.Classes
	}
	perm := tensor.Split(d.seed, 3200).Perm(s.Classes)
	classes := make([]int, m)
	for j := range classes {
		classes[j] = perm[(id*m+j)%s.Classes]
	}
	support := append([]int(nil), classes...)
	sort.Ints(support)
	block := (s.PerClient + m - 1) / m
	return Shard{
		N:       s.PerClient,
		Classes: support,
		ClassAt: func(i int) int {
			sh := i / block
			if sh >= m {
				sh = m - 1
			}
			return classes[sh]
		},
	}
}

// quantityMeanWeight is the mean of the truncated Pareto weight used by
// QuantitySkew; dividing it out keeps the population's expected shard size
// at Spec.PerClient, so quantity skew redistributes data without changing
// the total.
const (
	quantityExponent  = 1.5
	quantityCap       = 10.0
	quantityMinFactor = 0.05
)

// QuantitySkew is size heterogeneity: every client sees the spec's class
// mix (all classes, uniform), but shard sizes follow a truncated power law
// n_k ∝ Pareto(1.5) — a few data-rich clients and a long tail of data-poor
// ones. Weighted FedAvg (fl.AggWeighted) is the aggregation rule this
// scenario exists to exercise.
type QuantitySkew struct{}

// Name implements Partitioner.
func (QuantitySkew) Name() string { return ScenarioQuantity }

// Shard implements Partitioner.
func (QuantitySkew) Shard(d *Dataset, id int) Shard {
	s := d.Spec
	rng := tensor.Split(d.seed, 3250, int64(id))
	// Truncated Pareto(a): w = (1-u)^(-1/a) clipped to quantityCap.
	w := math.Pow(1-rng.Float64(), -1/quantityExponent)
	if w > quantityCap {
		w = quantityCap
	}
	// Mean of the truncated weight, so E[n] ≈ PerClient: for Pareto(1, a)
	// truncated at c, E[w] = a/(a-1)·(1 - c^(1-a)) + c^(1-a)·c … computed
	// in closed form below.
	a := quantityExponent
	mean := a/(a-1)*(1-math.Pow(quantityCap, 1-a)) + math.Pow(quantityCap, -a)*quantityCap
	n := int(math.Round(float64(s.PerClient) * w / mean))
	if min := int(float64(s.PerClient) * quantityMinFactor); n < min {
		n = min
	}
	if n < 1 {
		n = 1
	}
	classes := make([]int, s.Classes)
	for c := range classes {
		classes[c] = c
	}
	return Shard{
		N:       n,
		Classes: classes,
		ClassAt: func(i int) int {
			return classes[tensor.Split(d.seed, 3260, int64(id), int64(i)).Intn(len(classes))]
		},
	}
}

// labelNoiseMaxRate bounds the per-client extra flip rate drawn by
// LabelNoiseSkew; rates are uniform in [0, labelNoiseMaxRate].
const labelNoiseMaxRate = 0.4

// LabelNoiseSkew is annotation-quality heterogeneity: shards are assigned
// exactly as in IID, but each client additionally flips its labels at a
// client-specific rate ρ_k ~ Uniform[0, 0.4] on top of the spec's base
// LabelFlip — some clients are clean, some are mostly noise, modelling
// real populations with unreliable annotators.
type LabelNoiseSkew struct{}

// Name implements Partitioner.
func (LabelNoiseSkew) Name() string { return ScenarioLabelNoise }

// Shard implements Partitioner.
func (LabelNoiseSkew) Shard(d *Dataset, id int) Shard {
	classes := specClasses(d.Spec, id)
	rate := tensor.Split(d.seed, 3300, int64(id)).Float64() * labelNoiseMaxRate
	return Shard{
		N:        d.Spec.PerClient,
		Classes:  classes,
		ClassAt:  uniformClassAt(d, id, classes),
		FlipRate: rate,
	}
}

// Split label spaces of the time-varying partitioners (see the table at
// the top of the file).
const (
	labelIncrementalPick = 3400 // per-(client, index, stage) incremental class pick
	labelDecayFlip       = 4200 // per-(client, index, round) decaying-noise flip coin
)

// incrementalStartClasses is the label support visible at round 0 under
// the incremental scenario; one more class appears every Period rounds.
const incrementalStartClasses = 2

// IncrementalClasses is temporal label drift: the benchmark starts with
// only incrementalStartClasses labels in circulation and a new class
// enters every Period rounds (the incremental-classification framing) —
// classes the horizon never reaches simply never appear. Every client
// draws uniformly from the currently visible classes; the pick stream is
// keyed by the stage (the visible-class count), so shards change exactly
// at class-arrival boundaries and rounds within one stage draw the same
// picks.
type IncrementalClasses struct {
	// Period is the rounds between class arrivals; 0 defaults to 5.
	Period int
}

// Name implements Partitioner.
func (IncrementalClasses) Name() string { return ScenarioIncremental }

// Shard implements Partitioner: the round-0 view.
func (p IncrementalClasses) Shard(d *Dataset, id int) Shard { return p.ShardAt(d, id, 0) }

// ShardAt implements RoundPartitioner.
func (p IncrementalClasses) ShardAt(d *Dataset, id, round int) Shard {
	v := incrementalStartClasses + round/effectivePeriod(p.Period)
	if v > d.Spec.Classes {
		v = d.Spec.Classes
	}
	classes := make([]int, v)
	for c := range classes {
		classes[c] = c
	}
	return Shard{
		N:       d.Spec.PerClient,
		Classes: classes,
		ClassAt: func(i int) int {
			return classes[tensor.Split(d.seed, labelIncrementalPick, int64(id), int64(i), int64(v)).Intn(v)]
		},
		Round: round,
	}
}

// DecayingLabelNoise is annotation quality that improves over time: each
// client starts at a seeded rate ρ_k ~ Uniform[0, 0.4] (the same label-3300
// draw LabelNoiseSkew uses) and the rate halves every Period rounds —
// "users correct themselves". The flip coins are redrawn per round from
// the round-keyed label-4200 stream, so which examples are mislabelled is
// a pure function of (seed, clientID, round) — the scenario that exercises
// round-keyed draw streams for real.
type DecayingLabelNoise struct {
	// Period is the rate's halving time in rounds; 0 defaults to 5.
	Period int
}

// Name implements Partitioner.
func (DecayingLabelNoise) Name() string { return ScenarioDecayNoise }

// Shard implements Partitioner: the round-0 view.
func (p DecayingLabelNoise) Shard(d *Dataset, id int) Shard { return p.ShardAt(d, id, 0) }

// ShardAt implements RoundPartitioner.
func (p DecayingLabelNoise) ShardAt(d *Dataset, id, round int) Shard {
	classes := specClasses(d.Spec, id)
	base := tensor.Split(d.seed, 3300, int64(id)).Float64() * labelNoiseMaxRate
	rate := base * math.Pow(2, -float64(round)/float64(effectivePeriod(p.Period)))
	return Shard{
		N:         d.Spec.PerClient,
		Classes:   classes,
		ClassAt:   uniformClassAt(d, id, classes),
		FlipRate:  rate,
		FlipLabel: labelDecayFlip,
		Round:     round,
	}
}

// dirichletSample draws one sample from Dir(alpha, …, alpha) of dimension
// dim using rng, via normalized Gamma(alpha, 1) draws. Deterministic in the
// rng's seed.
func dirichletSample(rng *tensor.RNG, alpha float64, dim int) []float64 {
	out := make([]float64, dim)
	sum := 0.0
	for i := range out {
		out[i] = gammaSample(rng, alpha)
		sum += out[i]
	}
	if sum <= 0 {
		// All mass underflowed (possible for very small alpha): fall back
		// to a single uniformly chosen class, the α→0 limit.
		out[rng.Intn(dim)] = 1
		return out
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

// gammaSample draws from Gamma(shape, 1) with the Marsaglia–Tsang method
// (plus the shape<1 boost), using only rng — deterministic per seed.
func gammaSample(rng *tensor.RNG, shape float64) float64 {
	if shape < 1 {
		// Boost: Gamma(a) = Gamma(a+1) · U^(1/a).
		u := rng.Float64()
		return gammaSample(rng, shape+1) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := rng.Normal(0, 1)
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := rng.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// PartitionStats summarizes the heterogeneity a partitioner induces over a
// client population — the per-client dataset statistics experiment reports
// carry (shard sizes, effective class counts, label entropy).
type PartitionStats struct {
	Clients     int
	MinN, MaxN  int
	TotalN      int
	MeanN       float64
	MeanClasses float64 // mean distinct classes observed per client
	MeanEntropy float64 // mean empirical label entropy per client, in bits
	// MeanFlip/MaxFlip summarize the per-client extra label-flip rates a
	// label-noise-skew partition assigns (on top of the spec's base
	// LabelFlip); both are 0 under every other scenario.
	MeanFlip float64
	MaxFlip  float64
}

// String renders the stats in one report-friendly line; the flip-rate
// summary appears only when the partition assigns per-client label noise.
func (ps PartitionStats) String() string {
	s := fmt.Sprintf("clients=%d examples/client min=%d mean=%.0f max=%d classes/client=%.1f label-entropy=%.2f bits",
		ps.Clients, ps.MinN, ps.MeanN, ps.MaxN, ps.MeanClasses, ps.MeanEntropy)
	if ps.MaxFlip > 0 {
		s += fmt.Sprintf(" extra-flip mean=%.2f max=%.2f", ps.MeanFlip, ps.MaxFlip)
	}
	return s
}

// statsSampleCap bounds the per-client label draws Stats makes, so stats on
// large populations stay cheap (each draw costs one Split).
const statsSampleCap = 64

// Stats measures the realized partition over the first `clients` clients by
// sampling up to 64 label assignments per client. Deterministic in the
// dataset seed.
func (d *Dataset) Stats(clients int) PartitionStats {
	ps := PartitionStats{Clients: clients, MinN: math.MaxInt32}
	if clients <= 0 {
		ps.MinN = 0
		return ps
	}
	for id := 0; id < clients; id++ {
		c := d.Client(id)
		n := c.Len()
		ps.TotalN += n
		if n < ps.MinN {
			ps.MinN = n
		}
		if n > ps.MaxN {
			ps.MaxN = n
		}
		sample := n
		if sample > statsSampleCap {
			sample = statsSampleCap
		}
		counts := make(map[int]int, len(c.Classes()))
		for i := 0; i < sample; i++ {
			counts[c.shard.ClassAt(i)]++
		}
		ps.MeanClasses += float64(len(counts))
		entropy := 0.0
		for _, k := range counts {
			p := float64(k) / float64(sample)
			entropy -= p * math.Log2(p)
		}
		ps.MeanEntropy += entropy
		ps.MeanFlip += c.shard.FlipRate
		if c.shard.FlipRate > ps.MaxFlip {
			ps.MaxFlip = c.shard.FlipRate
		}
	}
	ps.MeanN = float64(ps.TotalN) / float64(clients)
	ps.MeanClasses /= float64(clients)
	ps.MeanEntropy /= float64(clients)
	ps.MeanFlip /= float64(clients)
	return ps
}
