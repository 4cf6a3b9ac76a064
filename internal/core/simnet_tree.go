package core

import (
	"fmt"
	"time"

	"fedcdp/internal/dataset"
	"fedcdp/internal/fl"
	"fedcdp/internal/nn"
	"fedcdp/internal/simnet"
	"fedcdp/internal/tensor"
)

// Hierarchical simnet deployment. The flat harness opens one session per
// cohort member against a single server — O(Kt) sessions on one listener,
// O(Kt) goroutines, and a root that must fold every update itself. This
// path splits the population into Config.Shards contiguous ranges, gives
// each range an edge aggregator host ("edge<s>") that folds its clients'
// updates into exact partial sums, and has every edge forward ONE
// weight-carrying partial to the root, which composes partials with the
// same exact arithmetic. Because the sums are exact (fl.ExactVec), the
// committed parameters are bit-identical to the flat exact fold for ANY
// shard count — topology is a pure scheduling choice, which the parity
// tests pin. Clients are driven by fl.ClientMux: virtual-client state is
// data, a fixed worker pool is the only execution, so K=100,000 costs
// O(MuxWorkers) goroutines and model workspaces.
//
// Fault-plan semantics carry over with one topology caveat (documented in
// DESIGN.md): partition clauses match the hosts that actually talk, so a
// clause naming "server" isolates EDGES from the root here, while client
// links now terminate at "edge<s>". Crash/drop/restart clauses are keyed
// by (round, client) / (round) and behave identically in both topologies.
func simnetEdgeAddr(s int) string { return fmt.Sprintf("edge%d", s) }

// treeShard is one edge's per-round working set.
type treeShard struct {
	index   int
	members []int // reachable cohort members in this shard
}

// shardOutcome is one edge goroutine's terminal state for a round.
type shardOutcome struct {
	shard  int
	folded int
	err    error
}

func runSimnetTree(cfg Config, spec dataset.Spec, strat fl.Strategy, ds *dataset.Dataset, plan *simnet.Plan) (*Result, error) {
	n := simnet.New(cfg.Seed, plan)
	pop := fl.PopulationOf(cfg.K, plan)
	global := nn.Build(spec.ModelSpec(), tensor.Split(cfg.Seed, 1))
	valN := cfg.ValExamples
	if valN <= 0 {
		valN = 500
	}
	evalEvery := cfg.EvalEvery
	if evalEvery <= 0 {
		evalEvery = 1
	}
	valX, valY := ds.Validation(valN)
	topo := fl.Topology{K: cfg.K, Shards: cfg.Shards}
	edges := cfg.Shards
	if edges == 1 {
		// Shards=1 is the flat exact oracle: no edge tier, clients dial the
		// root directly and the root folds client updates itself.
		edges = 0
	}

	// deployment is the server tier: the root plus every edge, torn down
	// and rebuilt as one unit on a restart fault.
	type deployment struct {
		root     *fl.RoundServer
		rootAgg  *fl.ExactAggregator
		edgeSrvs []*fl.RoundServer
		edgeAggs []*fl.ExactAggregator
	}
	newDeployment := func() (*deployment, error) {
		d := &deployment{}
		ln, err := n.Listen(simnetServerAddr)
		if err != nil {
			return nil, err
		}
		d.root = fl.NewRoundServerOn(ln)
		d.root.Clock = n.Clock()
		d.root.Codec = cfg.Codec
		if d.rootAgg, err = fl.NewExact(cfg.Aggregation); err != nil {
			d.root.Close()
			return nil, err
		}
		for s := 0; s < edges; s++ {
			eln, err := n.Listen(simnetEdgeAddr(s))
			if err != nil {
				d.root.Close()
				for _, es := range d.edgeSrvs {
					es.Close()
				}
				return nil, err
			}
			srv := fl.NewRoundServerOn(eln)
			srv.Clock = n.Clock()
			srv.Codec = cfg.Codec
			agg, err := fl.NewExact(cfg.Aggregation)
			if err != nil {
				srv.Close()
				d.root.Close()
				for _, es := range d.edgeSrvs {
					es.Close()
				}
				return nil, err
			}
			d.edgeSrvs = append(d.edgeSrvs, srv)
			d.edgeAggs = append(d.edgeAggs, agg)
		}
		return d, nil
	}
	closeDeployment := func(d *deployment) {
		d.root.Close()
		for _, es := range d.edgeSrvs {
			es.Close()
		}
	}
	dep, err := newDeployment()
	if err != nil {
		return nil, err
	}
	defer func() { closeDeployment(dep) }()

	rcfg := fl.RoundConfig{
		BatchSize:    cfg.BatchSize,
		LocalIters:   cfg.LocalIters,
		LR:           cfg.LR,
		TotalRounds:  cfg.Rounds,
		Scenario:     cfg.Scenario,
		Precision:    cfg.Precision,
		ConfigDigest: cfg.ConfigDigest,
	}
	linkChaos := plan.MsgDropRate > 0 || plan.DupRate > 0

	// One mux for the whole run: virtual-client cursors and worker
	// workspaces persist across rounds. Per-task dialers bind each session
	// to its client's host name so the plan's link streams key correctly.
	mux := &fl.ClientMux{
		Spec:       spec.ModelSpec(),
		Data:       ds,
		Strat:      strat,
		Seed:       cfg.Seed,
		Opt:        fl.ClientOptions{Codec: cfg.Codec},
		Adversary:  plan,
		Workers:    cfg.MuxWorkers,
		Population: pop,
	}

	hist := &fl.History{Strategy: strat.Name()}
	for round := 0; round < cfg.Rounds; round++ {
		n.SetRound(round)
		if plan.RestartServer(round) {
			closeDeployment(dep)
			if dep, err = newDeployment(); err != nil {
				return nil, fmt.Errorf("core: simnet restart before round %d: %w", round, err)
			}
		}

		cohort, activeN := simnetCohort(cfg, pop, round)
		// Route each cohort member to its shard, excluding clients that
		// cannot reach their edge and shards whose edge cannot reach the
		// root — like the flat harness, the orchestrator (not any server)
		// is allowed to know who is unreachable.
		var active []treeShard
		var flatReachable []int
		if edges == 0 {
			for _, id := range cohort {
				if !plan.Partitioned(round, simnetClientHost(id), simnetServerAddr) {
					flatReachable = append(flatReachable, id)
				}
			}
		} else {
			byShard := map[int][]int{}
			for _, id := range cohort {
				s := topo.ShardOf(id)
				if plan.Partitioned(round, simnetEdgeAddr(s), simnetServerAddr) {
					continue
				}
				if plan.Partitioned(round, simnetClientHost(id), simnetEdgeAddr(s)) {
					continue
				}
				byShard[s] = append(byShard[s], id)
			}
			for s := 0; s < cfg.Shards; s++ {
				if members := byShard[s]; len(members) > 0 {
					active = append(active, treeShard{index: s, members: members})
				}
			}
		}

		rs := fl.RoundStats{Round: round, Active: activeN, Committed: 0 >= cfg.MinQuorum, Dropped: len(cohort)}
		wireBefore := n.BytesWritten()
		rootSessions := len(active)
		if edges == 0 {
			rootSessions = len(flatReachable)
		}
		if rootSessions > 0 {
			type rootOutcome struct {
				res fl.RoundResult
				err error
			}
			rootCh := make(chan rootOutcome, 1)
			rootAgg := dep.rootAgg
			go func() {
				res, rerr := dep.root.StreamRound(round, global.Params(), rcfg, rootAgg, fl.RoundOptions{
					Clients:     rootSessions,
					Deadline:    time.Hour,
					MinQuorum:   cfg.MinQuorum,
					QuorumCount: rootAgg.Count,
				})
				rootCh <- rootOutcome{res, rerr}
			}()

			shardCh := make(chan shardOutcome, len(active))
			var tasks []fl.MuxTask
			if edges == 0 {
				for _, id := range flatReachable {
					tasks = append(tasks, fl.MuxTask{
						ClientID: id,
						Addr:     simnetServerAddr,
						Dial:     n.Dialer(simnetClientHost(id)),
						Abandon:  plan.CrashClient(round, id) || plan.DropUpdate(round, id),
					})
				}
			} else {
				for _, sh := range active {
					addr := simnetEdgeAddr(sh.index)
					for _, id := range sh.members {
						tasks = append(tasks, fl.MuxTask{
							ClientID: id,
							Addr:     addr,
							Dial:     n.Dialer(simnetClientHost(id)),
							Abandon:  plan.CrashClient(round, id) || plan.DropUpdate(round, id),
						})
					}
					sh := sh
					go func() {
						srv, agg := dep.edgeSrvs[sh.index], dep.edgeAggs[sh.index]
						// MinQuorum 0: the edge never commits (EdgeFold's
						// Commit is a no-op); its round exists to fold.
						eres, eerr := srv.StreamRound(round, global.Params(), rcfg, fl.EdgeFold(agg), fl.RoundOptions{
							Clients:  len(sh.members),
							Deadline: time.Hour,
						})
						if eerr != nil {
							shardCh <- shardOutcome{shard: sh.index, err: eerr}
							// Still resolve the root's session slot: an empty
							// send keeps the round from hanging on a dead edge.
						}
						serr := fl.SendPartial(simnetServerAddr, sh.index, round, agg.TakePartial(),
							fl.ClientOptions{Dial: n.Dialer(simnetEdgeAddr(sh.index)), Codec: cfg.Codec})
						if eerr == nil {
							shardCh <- shardOutcome{shard: sh.index, folded: eres.Folded, err: serr}
						}
					}()
				}
			}

			results := mux.RunRound(tasks)
			for i, r := range results {
				if r.Err != nil && !tasks[i].Abandon && !linkChaos {
					return nil, fmt.Errorf("core: simnet round %d client %d: %w", round, r.ClientID, r.Err)
				}
			}
			for range active {
				o := <-shardCh
				if o.err != nil && !linkChaos {
					return nil, fmt.Errorf("core: simnet round %d shard %d: %w", round, o.shard, o.err)
				}
			}
			ro := <-rootCh
			if ro.err != nil {
				return nil, fmt.Errorf("core: simnet round %d: %w", round, ro.err)
			}
			rs.Clients = dep.rootAgg.Count()
			rs.Dropped = len(cohort) - rs.Clients
			rs.Committed = ro.res.Committed
		}
		rs.WireBytes = n.BytesWritten() - wireBefore
		if round%evalEvery == 0 || round == cfg.Rounds-1 {
			rs.Accuracy = fl.Evaluate(global, valX, valY)
			rs.Evaluated = true
		}
		hist.Rounds = append(hist.Rounds, rs)
	}
	hist.Final = global
	ledger := annotateEpsilon(cfg, spec, hist, pop)
	return &Result{History: hist, Spec: spec, Cfg: cfg, Ledger: ledger}, nil
}
