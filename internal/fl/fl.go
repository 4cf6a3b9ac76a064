package fl

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"time"

	"fedcdp/internal/dataset"
	"fedcdp/internal/nn"
	"fedcdp/internal/tensor"
)

// Reserved Split/CounterRNG label spaces under the root seed. Labels 1, 3
// and 5 are claimed by model init, cohort sampling and dropout coins (see the
// Split call sites); 2 (a sequential server RNG) and 4 (a per-client
// math/rand stream) are retired — nothing draws from them, and they are never
// to be reused; the counter noise engine claims 6 (client-side streams) and 7
// (server-side streams); internal/simnet claims 8–11 for transport fault
// coins; the Floyd cohort sampler claims 12 (sampleLabelFloyd) — a separate
// label from the legacy sampler's 3, because the two consume their streams
// differently and must never be confused for one another.
const (
	noiseLabelClient = 6
	noiseLabelServer = 7
	sampleLabelFloyd = 12
)

// ClientNoise returns the counter noise generator for one client's round:
// the root of the per-example and per-update key schedule. Exposed so remote
// clients (rpc.go) and tests derive exactly the stream the simulator uses.
func ClientNoise(seed int64, round, clientID int) tensor.CounterRNG {
	return tensor.NewCounterRNG(seed, noiseLabelClient, int64(round), int64(clientID))
}

// ServerNoise returns the counter noise generator for one round's
// server-side sanitization; per-update streams are derived from the
// update's cohort position, so folds are deterministic in any arrival
// order.
func ServerNoise(seed int64, round int) tensor.CounterRNG {
	return tensor.NewCounterRNG(seed, noiseLabelServer, int64(round))
}

// Cohort samplers selectable via Config.Sampler.
const (
	SamplerLegacy = "legacy"
	SamplerFloyd  = "floyd"
)

// RoundConfig carries the local-training hyperparameters published by the
// server when a client subscribes to the task (Section IV-A).
type RoundConfig struct {
	BatchSize   int
	LocalIters  int
	LR          float64
	TotalRounds int
	// Scenario is the data-heterogeneity scenario the server publishes:
	// remote clients repartition their local dataset view with it, so the
	// whole federation agrees on one client→shard assignment without
	// per-client configuration. The zero value means the client's own
	// partition (iid by default) stands.
	Scenario dataset.Scenario
	// ConfigDigest is the canonical digest of the declarative experiment
	// config the server is running (see internal/config). Pure metadata —
	// it never influences training — but clients that were launched from a
	// config can verify it against their own digest
	// (ClientOptions.ExpectDigest) and refuse a server running a different
	// experiment. Empty when the server was assembled from a struct literal.
	ConfigDigest string
}

// ClientEnv is everything a strategy needs to run one client's local
// training for one round.
type ClientEnv struct {
	ClientID int
	Round    int
	Model    *nn.Model // private copy initialized with the global weights
	Data     *dataset.ClientData
	RNG      *tensor.RNG // dead: no runtime sets it, nothing reads it; bound by benchmark/probes.go until ROADMAP 2(a)
	Cfg      RoundConfig
	// Arena is the worker's scratch-buffer recycler, reused across rounds;
	// nil (e.g. remote clients) simply allocates.
	Arena *tensor.Arena
	// Noise is the counter noise generator for this client's round: the
	// root of every DP draw the strategy makes (see ClientNoise). Every
	// runtime sets it.
	Noise *tensor.CounterRNG
}

// ClientStats reports per-client training measurements used by the paper's
// evaluation (Table III timing, Figure 3 gradient norms).
type ClientStats struct {
	// MeanGradNorm is the mean pre-clip L2 norm of per-example gradients
	// observed during the first local iteration.
	MeanGradNorm float64
	// Iters is the number of local iterations executed.
	Iters int
	// Duration is the wall-clock local training time.
	Duration time.Duration
}

// MsPerIter returns the local-training cost in milliseconds per iteration.
func (s ClientStats) MsPerIter() float64 {
	if s.Iters == 0 {
		return 0
	}
	return s.Duration.Seconds() * 1000 / float64(s.Iters)
}

// Strategy defines how a client computes its shared update.
type Strategy interface {
	// Name identifies the strategy in histories and experiment output.
	Name() string
	// ClientUpdate runs local training and returns ΔW = W_local − W_global.
	// The returned tensors are the caller's: nothing else may hold them,
	// and a wire session recycles them into env.Arena once they are sent.
	ClientUpdate(env *ClientEnv) ([]*tensor.Tensor, ClientStats)
}

// ServerSanitizer is implemented by strategies that sanitize at the server
// (Fed-SDP's server-side placement, Algorithm 1): the in-process round passes
// every update through it before the fold. Update idx (the client's cohort
// position) is sanitized from its own stream derived from noise — the
// round's ServerNoise — so the result is the same in any arrival order.
type ServerSanitizer interface {
	ServerSanitize(round, idx int, update []*tensor.Tensor, noise tensor.CounterRNG)
}

// Config describes one simulation run.
type Config struct {
	Data  *dataset.Dataset
	Model nn.Spec

	K      int // total client population
	Kt     int // participating clients per round
	Rounds int

	Round RoundConfig

	Strategy Strategy

	Seed        int64
	ValExamples int // validation subset size (0 = dataset default cap 500)
	EvalEvery   int // evaluate every n rounds (0 = every round)
	Parallelism int // concurrent client trainers (0 = GOMAXPROCS)

	// Sampler selects the distinct-cohort draw: SamplerLegacy ("" defaults
	// to it) is the original O(K) permutation draw, kept as the default so
	// every pre-existing seeded run stays byte-identical; SamplerFloyd is
	// the O(Kt) Floyd draw for large populations (label 12). The two
	// consume different Split streams and produce different (equally
	// uniform) cohorts.
	Sampler string

	// Shards selects the server aggregation fold: 0 (default) is the
	// legacy float fold, ≥1 the flat exact fold. A tree of edge folds is
	// the simnet fabric's alone (core.RunSimnet); in process the exact
	// fold is its parity oracle. See exact.go for the exactness contract.
	Shards int

	// Aggregation selects the server rule: AggFedSGD (default) applies
	// W ← W + mean(ΔW); AggFedAvg replaces W with the mean of the client
	// models W_k = W + ΔW_k. The paper notes the two are mathematically
	// equivalent (Section IV-A); TestAggregationEquivalence verifies it.
	Aggregation string

	// DropoutRate is the probability that a selected client fails to return
	// its update in a round (device churn — the instability that motivates
	// sampling Kt < K in the first place, Section IV-A). The server
	// aggregates whatever arrives; a round where every client drops leaves
	// the global model unchanged.
	DropoutRate float64

	// InitialParams, when non-nil, warm-starts the global model (checkpoint
	// resume); StartRound offsets the round counter so cohort sampling,
	// client noise keys and clipping-decay schedules continue where the
	// checkpointed run left off.
	InitialParams []*tensor.Tensor
	StartRound    int

	// ScheduleHorizon fixes the round horizon that clipping-decay schedules
	// span. Zero means StartRound+Rounds (this run is the whole plan); a
	// run that will later be resumed should declare its full planned length
	// here so schedules are anchored consistently across segments.
	ScheduleHorizon int

	// RoundDeadline is the round's straggler cutoff, measured from the
	// round opening: clients that have not delivered by then are dropped —
	// deadline-based dropout, generalizing DropoutRate's coin flip to the
	// failure mode real deployments see. Zero waits for the full cohort.
	RoundDeadline time.Duration

	// MinQuorum is the minimum number of folded updates required to
	// commit a round; below it the round leaves the global model
	// unchanged (RoundStats.Committed records the outcome). Zero commits
	// whatever arrived.
	MinQuorum int

	// Clock drives the round deadline timers; nil uses the system clock.
	// Tests inject fakes to exercise deadline and quorum paths
	// deterministically.
	Clock Clock

	// Plan injects the run's deterministic failures, hostile clients and
	// open-world population (see Plan); nil is the clean, closed-world run.
	Plan Plan

	// foldHook, when set (tests only), observes every committed fold as
	// (round, folds so far this round).
	foldHook func(round, folded int)
}

// Aggregation rules. The streaming rules (fedsgd/fedavg/weighted) fold in
// O(model) server memory; the robust rules (median/trimmed/krum — see
// robust.go) buffer raw updates, O(Kt·model), and take an optional colon
// parameter: "trimmed:0.25" sets the per-tail trim fraction β (default
// 0.25), "krum:2" the tolerated Byzantine count f (default 1).
const (
	AggFedSGD   = "fedsgd"
	AggFedAvg   = "fedavg"
	AggWeighted = "weighted"
	AggMedian   = "median"
	AggTrimmed  = "trimmed"
	AggKrum     = "krum"
)

// splitAggRule splits "name[:param]" into its rule name and raw parameter.
func splitAggRule(rule string) (name, param string, hasParam bool) {
	name, param, hasParam = strings.Cut(rule, ":")
	return
}

// NewAggregator constructs the server fold for an aggregation rule (""
// defaults to FedSGD) — the single rule↔fold mapping shared by the
// in-process runtime and core's wire deployments.
func NewAggregator(rule string) (Aggregator, error) {
	name, param, hasParam := splitAggRule(rule)
	if hasParam && name != AggTrimmed && name != AggKrum {
		return nil, fmt.Errorf("fl: aggregation %q takes no parameter", name)
	}
	switch name {
	case "", AggFedSGD:
		return NewFedSGD(), nil
	case AggFedAvg:
		return NewFedAvg(), nil
	case AggWeighted:
		return NewWeightedFedAvg(), nil
	case AggMedian:
		return NewCoordMedian(), nil
	case AggTrimmed:
		beta := 0.25
		if hasParam {
			v, err := strconv.ParseFloat(param, 64)
			if err != nil {
				return nil, fmt.Errorf("fl: invalid trimmed-mean β %q", param)
			}
			beta = v
		}
		return NewTrimmedMean(beta)
	case AggKrum:
		f := 1
		if hasParam {
			v, err := strconv.Atoi(param)
			if err != nil {
				return nil, fmt.Errorf("fl: invalid Krum f %q", param)
			}
			f = v
		}
		return NewKrum(f)
	default:
		return nil, fmt.Errorf("fl: unknown aggregation %q", rule)
	}
}

// ValidAggregation reports whether rule (with any colon parameter) names a
// constructible server fold — the single validation rule shared by
// fl.Config, core and internal/config.
func ValidAggregation(rule string) bool {
	_, err := NewAggregator(rule)
	return err == nil
}

// RobustAggregation reports whether rule names a robust (update-buffering)
// fold — the rules NewAggregatorFor refuses to place on a sharded topology.
func RobustAggregation(rule string) bool {
	name, _, _ := splitAggRule(rule)
	return name == AggMedian || name == AggTrimmed || name == AggKrum
}

// Plan is the run's seeded schedule of everything that is not a healthy
// client in a closed world: update loss, mid-round crashes and server
// restarts; Byzantine and poisoned clients; joins, departures and churn.
// Every method must be a pure function of its arguments plus the plan's
// own seed — never of wall time or goroutine scheduling — so a faulted,
// attacked or churning run replays exactly like a clean one.
// internal/simnet's Plan is the implementation (core asserts it); the
// interface lives here so fl depends on no fault machinery.
type Plan interface {
	// CrashClient reports whether the client crashes mid-round: its update
	// (and its stats) never reach the server.
	CrashClient(round, client int) bool
	// DropUpdate reports whether the client's finished update is lost in
	// transit to the server.
	DropUpdate(round, client int) bool
	// RestartServer reports whether the server restarts between round-1 and
	// round, losing all in-memory state except the checkpointable state
	// (global parameters and the round counter).
	RestartServer(round int) bool
	// CorruptUpdate rewrites a Byzantine client's finished update in place
	// (sign-flip, scaling, seeded noise), reporting whether it did; honest
	// clients pass through untouched. Called at the same point by every
	// runtime: after local training, before the update leaves the client.
	CorruptUpdate(round, client int, update []*tensor.Tensor) bool
	// PoisonedClient reports whether the client's local shard is poisoned.
	PoisonedClient(client int) bool
	// PoisonLabel maps one example's label under the poisoning attack
	// (identity for honest clients and below-rate coins).
	PoisonLabel(client, index, label, classes int) int
	// PopulationDynamic reports whether the active set can ever differ from
	// the full registry; false means every client is active every round and
	// the runtimes keep their static fast paths.
	PopulationDynamic() bool
	// ClientActive reports whether the client is part of the active
	// population in the round: arrived, not departed, and not churned away.
	ClientActive(round, client int) bool
}

// AdversaryShard returns the client's data view under the plan's poisoning
// attack: poisoned clients see their shard through the plan's label
// flipper, honest clients (and nil plans) see it untouched. Exposed so
// deployment harnesses (core.RunSimnet, ClientMux) hand each simulated
// client exactly the shard the in-process runtimes train on.
func AdversaryShard(plan Plan, id int, data *dataset.ClientData) *dataset.ClientData {
	if plan == nil || !plan.PoisonedClient(id) {
		return data
	}
	return data.WithLabelFlipper(func(index, label, classes int) int {
		return plan.PoisonLabel(id, index, label, classes)
	})
}

// clientShard returns a cohort member's training data view for a round —
// the round-keyed view under time-varying partition scenarios, the
// poisoned view when the fault plan targets it.
func clientShard(cfg Config, round, id int) *dataset.ClientData {
	return AdversaryShard(cfg.Plan, id, cfg.Data.ClientAt(id, round))
}

func (c *Config) validate() error {
	switch {
	case c.Data == nil:
		return fmt.Errorf("fl: config needs a dataset")
	case c.Strategy == nil:
		return fmt.Errorf("fl: config needs a strategy")
	case c.K <= 0 || c.Kt <= 0 || c.Kt > c.K:
		return fmt.Errorf("fl: invalid population K=%d, Kt=%d", c.K, c.Kt)
	case c.Rounds <= 0:
		return fmt.Errorf("fl: rounds must be positive, got %d", c.Rounds)
	case c.Round.BatchSize <= 0 || c.Round.LocalIters <= 0:
		return fmt.Errorf("fl: invalid round config %+v", c.Round)
	case !(c.Round.LR > 0):
		return fmt.Errorf("fl: learning rate must be positive, got %v", c.Round.LR)
	case !ValidAggregation(c.Aggregation):
		return fmt.Errorf("fl: unknown aggregation %q", c.Aggregation)
	case c.Shards >= 1 && RobustAggregation(c.Aggregation):
		return fmt.Errorf("fl: robust aggregation %q is not grouping-invariant and cannot run on the exact/tree topology (shards=%d); use shards=0", c.Aggregation, c.Shards)
	case !(c.DropoutRate >= 0 && c.DropoutRate <= 1):
		return fmt.Errorf("fl: dropout rate %v outside [0,1]", c.DropoutRate)
	case c.StartRound < 0:
		return fmt.Errorf("fl: negative start round %d", c.StartRound)
	case c.MinQuorum < 0 || c.MinQuorum > c.Kt:
		return fmt.Errorf("fl: quorum %d outside [0, Kt=%d]", c.MinQuorum, c.Kt)
	case c.RoundDeadline < 0:
		return fmt.Errorf("fl: negative round deadline %v", c.RoundDeadline)
	case c.Sampler != "" && c.Sampler != SamplerLegacy && c.Sampler != SamplerFloyd:
		return fmt.Errorf("fl: unknown cohort sampler %q", c.Sampler)
	case c.Shards < 0:
		return fmt.Errorf("fl: negative shard count %d", c.Shards)
	case c.Shards > c.K:
		return fmt.Errorf("fl: %d shards exceed population K=%d", c.Shards, c.K)
	}
	if _, err := c.Round.Scenario.Partitioner(); err != nil {
		return err
	}
	return nil
}

// Run executes the full federated simulation in process and returns its
// history.
func Run(cfg Config) (*History, error) {
	return RunWith(cfg, func(cfg Config) (RoundRunner, error) { return newLocalRunner(cfg), nil })
}

// RoundRunner is the deployment half of the round engine. RunWith owns the
// protocol's frame — validation, the schedule horizon, the global model, the
// cohort draw, the dropout coin, restarts, evaluation, the history — and
// hands each drawn cohort to a runner, which trains it and folds what
// arrives. Four runners exist: the in-process streaming round (Run), the
// simnet fabric deployment (core.RunSimnet), the TCP server of a dial-in
// deployment (core.Serve) and the lockstep parity oracle (barrier_test.go).
type RoundRunner interface {
	// Restart rebuilds the server-side state that a server restart before
	// round loses. The global parameters are the checkpointable state:
	// RunWith restores them itself.
	Restart(round int) error
	// Round trains cohort against global's parameters, folds the updates
	// that arrive and, on quorum, commits the aggregate into global in
	// place. It reports Clients, Dropped, Committed and whatever else it
	// measured; RunWith fills Round, Active and the evaluation.
	Round(round int, cohort []int, global *nn.Model) (RoundStats, error)
	// Close releases what the runner holds (listeners, parked sessions).
	Close()
}

// RunWith is the round engine: the one outer loop every deployment of the
// protocol runs. open builds the runner from the validated config with the
// schedule horizon resolved into cfg.Round.TotalRounds.
func RunWith(cfg Config, open func(Config) (RoundRunner, error)) (*History, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	// The schedule horizon spans any checkpointed prefix plus this run,
	// unless the caller declared a longer plan.
	cfg.Round.TotalRounds = cfg.StartRound + cfg.Rounds
	if cfg.ScheduleHorizon > 0 {
		cfg.Round.TotalRounds = cfg.ScheduleHorizon
	}
	evalEvery := cfg.EvalEvery
	if evalEvery <= 0 {
		evalEvery = 1
	}
	valN := cfg.ValExamples
	if valN <= 0 {
		valN = 500
	}

	global := nn.Build(cfg.Model, tensor.Split(cfg.Seed, 1))
	if cfg.InitialParams != nil {
		global.SetParams(cfg.InitialParams)
	}
	valX, valY := cfg.Data.Validation(valN)
	hist := &History{Strategy: cfg.Strategy.Name(), Config: cfg}

	runner, err := open(cfg)
	if err != nil {
		return nil, err
	}
	defer runner.Close()
	pop := PopulationOf(cfg.K, cfg.Plan)
	dropCoin := tensor.NewRNG(0)
	for r := 0; r < cfg.Rounds; r++ {
		round := cfg.StartRound + r
		if cfg.Plan != nil && cfg.Plan.RestartServer(round) {
			// Server restart between rounds: the only surviving state is
			// what a checkpoint would carry — the global parameters, which
			// this loop holds, and the round counter. Everything else the
			// runner rebuilds.
			if err := runner.Restart(round); err != nil {
				return nil, fmt.Errorf("fl: restart before round %d: %w", round, err)
			}
		}
		cohort, active, ids := ActiveCohortCount(cfg.Seed, round, pop, cfg.Kt, cfg.Sampler, false)
		cohort = dropClients(cfg, round, cohort, dropCoin)
		rs, err := runner.Round(round, cohort, global)
		if err != nil {
			return nil, err
		}
		rs.Round = round
		rs.Active, rs.ActiveIDs = active, ids
		if round%evalEvery == 0 || r == cfg.Rounds-1 {
			rs.Accuracy = Evaluate(global, valX, valY)
			rs.Evaluated = true
		}
		hist.Rounds = append(hist.Rounds, rs)
	}
	hist.Final = global
	return hist, nil
}

// localRunner is the in-process deployment: a worker pool trains the cohort
// and the streaming round (stream.go) folds it in cohort order.
type localRunner struct {
	cfg     Config
	workers *workerPool
	agg     Aggregator
	clock   Clock
}

func newLocalRunner(cfg Config) *localRunner {
	l := &localRunner{cfg: cfg, clock: cfg.Clock}
	if l.clock == nil {
		l.clock = SystemClock
	}
	l.rebuild()
	return l
}

// rebuild constructs the in-memory structures a restart loses.
func (l *localRunner) rebuild() {
	// The round folds in cohort order on its own goroutine, which can run
	// a whole cohort behind the trainers when they hold every core, so
	// the hand-back keeps up to a cohort of updates: with two per worker,
	// 66% of churn-2k's folded updates found the channel full and their
	// clients' successors allocated a fresh ΔW.
	l.workers = newWorkerPool(l.cfg.Parallelism, l.cfg.Model, l.cfg.Kt)
	// Rule and shard count were validated by RunWith; Shards=0 is the
	// legacy fold.
	l.agg, _ = NewAggregatorFor(l.cfg.Aggregation, l.cfg.Shards, 0, 0)
}

// Restart implements RoundRunner. Every draw the round makes is keyed by
// (seed, round, …), so a restarted server has no stream to resume.
func (l *localRunner) Restart(int) error {
	l.rebuild()
	return nil
}

// Close implements RoundRunner.
func (l *localRunner) Close() {}

// SampleCohort returns the participating client ids fl.Run would draw for
// a round — exposed so out-of-process drivers (the simnet deployment
// harness, ops tooling) agree with the in-process simulator on round
// membership.
func SampleCohort(seed int64, round, k, kt int, withReplacement bool) []int {
	rng := tensor.Split(seed, 3, int64(round))
	if withReplacement {
		return rng.SampleWithReplacement(k, kt)
	}
	return rng.SampleWithoutReplacement(k, kt)
}

// SampleCohortFloyd returns the round's cohort under Config.Sampler ==
// SamplerFloyd: kt distinct ids drawn by Floyd's algorithm in O(kt) work
// and memory, sorted ascending. It consumes Split label 12 (the legacy
// draw consumes label 3), so the two samplers are distinct named streams —
// switching samplers changes cohorts, never silently reinterprets them.
func SampleCohortFloyd(seed int64, round, k, kt int) []int {
	return tensor.Split(seed, sampleLabelFloyd, int64(round)).SampleDistinctFloyd(k, kt)
}

// dropClients removes clients that fail this round (deterministic per
// (seed, round, client), so runs remain reproducible). One coin generator
// is reseeded per member — the emitted stream is bit-identical to a fresh
// Split child, without the per-client allocations the hot loop used to pay.
func dropClients(cfg Config, round int, cohort []int, coin *tensor.RNG) []int {
	if cfg.DropoutRate <= 0 {
		return cohort
	}
	kept := cohort[:0]
	for _, id := range cohort {
		coin.Reseed(cfg.Seed, 5, int64(round), int64(id))
		if coin.Float64() >= cfg.DropoutRate {
			kept = append(kept, id)
		}
	}
	return kept
}

// worker is one reusable client: a private model copy, a scratch arena, a
// counter-noise slot and the ClientEnv itself — all reused across clients and
// rounds so steady-state training stops allocating (the model's batched
// buffers and the arena's free lists persist between rounds). The in-process
// pool, the mux workers and the one-shot remote client all train on one; a
// wire session also decodes its round announcement into pm.
type worker struct {
	model *nn.Model
	arena *tensor.Arena
	noise tensor.CounterRNG
	env   ClientEnv
	pm    ParamMsg
}

func newWorker(spec nn.Spec) *worker {
	w := &worker{model: nn.Build(spec, tensor.NewRNG(0)), arena: tensor.NewArena()}
	w.model.UseArena(w.arena)
	return w
}

// envFor populates the worker's reusable ClientEnv for one client round.
// The counter noise generator is a value slot, so deriving it allocates
// nothing.
func (w *worker) envFor(seed int64, rc RoundConfig, round, id int, data *dataset.ClientData) *ClientEnv {
	w.noise = ClientNoise(seed, round, id)
	w.env = ClientEnv{
		ClientID: id,
		Round:    round,
		Model:    w.model,
		Data:     data,
		Cfg:      rc,
		Arena:    w.arena,
		Noise:    &w.noise,
	}
	return &w.env
}

// step is the client half of the round protocol, the one place a client's
// inputs are wired on every runtime: load the published parameters, derive
// the (seed, round, id) streams, run the strategy's local training on the
// shard view, and apply any Byzantine corruption the plan mandates — after
// training, before the update leaves the client (a corrupted update can
// still be lost in transit). The worker counts in tensor's CPU budget
// throughout, so its GEMMs and sanitize passes fork only onto idle cores.
func (w *worker) step(strat Strategy, seed int64, round, id int, params []*tensor.Tensor, rc RoundConfig, data *dataset.ClientData, plan Plan) ([]*tensor.Tensor, ClientStats) {
	tensor.AddBusy(1)
	defer tensor.AddBusy(-1)
	w.model.SetParams(params)
	upd, st := strat.ClientUpdate(w.envFor(seed, rc, round, id, data))
	if plan != nil {
		plan.CorruptUpdate(round, id, upd)
	}
	return upd, st
}

// workerPool is a fixed set of workers handed out over a channel; at most
// cap(slots) clients train concurrently. spent carries the in-process
// round's folded updates back to the workers (recycle, reclaim), so a
// client's ΔW comes from its worker's arena instead of the heap.
type workerPool struct {
	spec  nn.Spec
	slots chan *worker
	spent chan []*tensor.Tensor
}

// newWorkerPool sizes the pool at par workers (≤0 = GOMAXPROCS) and keeps
// up to spare folded updates for them to reuse (0 for a pool whose
// updates leave by wire and come back by its own path).
func newWorkerPool(par int, spec nn.Spec, spare int) *workerPool {
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	p := &workerPool{spec: spec, slots: make(chan *worker, par), spent: make(chan []*tensor.Tensor, spare)}
	for i := 0; i < par; i++ {
		p.slots <- nil // materialized lazily on first acquire
	}
	return p
}

func (p *workerPool) acquire() *worker {
	w := <-p.slots
	if w == nil {
		w = newWorker(p.spec)
	}
	return w
}

func (p *workerPool) release(w *worker) { p.slots <- w }

// recycle hands a folded update back for a later client to train into. It
// never blocks: when the channel is full the update is left to the garbage
// collector.
func (p *workerPool) recycle(update []*tensor.Tensor) {
	select {
	case p.spent <- update:
	default:
	}
}

// reclaim moves one recycled update, if one waits, into w's arena. A client
// step draws exactly one ΔW that does not come back to the arena, so one in
// per step keeps every arena level.
func (p *workerPool) reclaim(w *worker) {
	select {
	case u := <-p.spent:
		w.arena.Put(u...)
	default:
	}
}

// evalChunk bounds the batch width of Evaluate so validation of large sets
// stays cache-resident rather than materializing one huge activation batch.
// It also bounds what a collection that lands mid-evaluation finds live: a
// 64-wide MNIST chunk holds 11 MB of conv buffers, enough to lift the next
// heap goal well past what training needs.
const evalChunk = 16

// Evaluate returns validation accuracy of the model on a labelled set,
// classifying in batched-engine chunks. Dense-only models predict
// bit-identically to the per-example path; conv logits agree to rounding
// error (see tensor/matmul.go), so an argmax could in principle differ on an
// exact near-tie between classes.
//
// A last short chunk runs as the full-width window that ends at the last
// example, and only its rows past the previous chunk count: a forward row
// does not depend on the rest of its batch, so the predictions are the
// same, and every chunk has one width, so the layers never resize (and
// reallocate) their buffers between chunks or evaluations.
func Evaluate(m *nn.Model, xs []*tensor.Tensor, ys []int) float64 {
	if len(xs) == 0 {
		return 0
	}
	correct := 0
	for lo := 0; lo < len(xs); lo += evalChunk {
		hi := min(lo+evalChunk, len(xs))
		start := max(hi-evalChunk, 0)
		for i, p := range m.PredictBatch(xs[start:hi])[lo-start:] {
			if p == ys[lo+i] {
				correct++
			}
		}
	}
	return float64(correct) / float64(len(xs))
}

// Delta returns local − global for aligned parameter lists (ΔW of a round).
func Delta(local, global []*tensor.Tensor) []*tensor.Tensor {
	out := tensor.CloneAll(local)
	for i := range out {
		out[i].Sub(global[i])
	}
	return out
}
