package core

import (
	"fmt"

	"fedcdp/internal/fl"
	"fedcdp/internal/nn"
	"fedcdp/internal/simnet"
)

// Fabric host names: the root server, the edge aggregators of a tree, and
// the clients — the names the plan's partition clauses target.
const simnetServerAddr = "server"

func simnetClientHost(id int) string { return fmt.Sprintf("c%d", id) }
func simnetEdgeAddr(s int) string    { return fmt.Sprintf("edge%d", s) }

// RunSimnet executes the configured experiment as a full deployment over
// the in-memory simnet fabric: the round engine (fl.RunWith) drives a
// fabric runner, which stands up RoundServers on fabric listeners and plays
// the cohort through an fl.ClientMux dialing through the fault plan. The
// plan is realized at the transport level — crashed and drop-fated clients
// abandon their session mid-protocol (the server observes a failed session,
// exactly as over TCP), partitioned clients cannot dial at all, restarts
// tear the server tier down and rebind its addresses, and link
// latency/jitter/duplication run on virtual time.
//
// Config.Shards picks the topology. 0 and 1 are flat — clients dial the
// root, which folds their updates with the float rule (0) or the exact one
// (1). At 2 or more the population splits into that many contiguous ranges,
// each behind an edge aggregator host ("edge<s>") that folds its clients
// into an exact partial and forwards ONE weight-carrying partial to the
// root; because the sums are exact (fl.ExactVec) the committed parameters
// are bit-identical to the flat exact fold at any shard count. Partition
// clauses match the hosts that actually talk: in a tree a clause naming
// "server" isolates EDGES from the root, and client links end at "edge<s>".
//
// The float fold is arrival-order (the wire has no reorder buffer), so at
// Shards 0 final parameters are subject to float summation order across
// runs; the folded SET, per-round counts, commits and ε are deterministic
// per seed. For bit-exact faulted runs use Shards ≥ 1, or Run with
// Config.Faults (in-process injection), which folds in cohort order.
func RunSimnet(cfg Config) (*Result, error) {
	switch {
	case cfg.Method == MethodFedSDPSrv:
		return nil, fmt.Errorf("core: %w", ServerSanitizeRefusal("the simnet"))
	case cfg.RoundDeadline != 0:
		return nil, fmt.Errorf("core: round deadline %v cannot run on the simnet fabric, whose clock is virtual (it moves only when a message is delivered, so no straggler ever crosses a cutoff); stragglers there come from the plan's crash, drop and latency clauses", cfg.RoundDeadline)
	}
	return cfg.deploy(func(r *Resolved, fc fl.Config) (fl.RoundRunner, error) {
		return newFabric(fc, r)
	})
}

// deploy runs cfg on a wire deployment's runner. A deployment is not
// resumable (checkpoints are Run's), so its horizon is the run itself.
func (cfg Config) deploy(open func(*Resolved, fl.Config) (fl.RoundRunner, error)) (*Result, error) {
	r, err := cfg.resolve(0, 0, nil)
	if err != nil {
		return nil, err
	}
	hist, err := fl.RunWith(r.FL, func(fc fl.Config) (fl.RoundRunner, error) { return open(r, fc) })
	if err != nil {
		return nil, err
	}
	return r.result(hist), nil
}

// ServerSanitizeRefusal is the error that refuses MethodFedSDPSrv on a wire
// deployment — whose names the round servers, e.g. "the simnet" or "fedserve's". Only the
// in-process round probes its strategy for fl.ServerSanitizer; a wire round
// server folds what arrives.
func ServerSanitizeRefusal(whose string) error {
	return fmt.Errorf("method %s sanitizes at the server, which %s round servers do not do (updates would fold without clip or noise while ε is still charged); use %s, the client-side placement with the same accounting", MethodFedSDPSrv, whose, MethodFedSDP)
}

// fabric is the simnet deployment of the round engine's runner seam: the
// server tier (root plus any edges) on fabric listeners and one ClientMux
// for the whole run, so virtual-client cursors and worker models persist
// across rounds.
type fabric struct {
	cfg   fl.Config
	plan  *simnet.Plan
	net   *simnet.Net
	mux   *fl.ClientMux
	edges int // size of the edge tier; 0 = clients dial the root

	root     *fl.RoundServer
	rootAgg  fl.Aggregator
	edgeSrvs []*fl.RoundServer
	edgeAggs []*fl.ExactAggregator
}

func newFabric(cfg fl.Config, r *Resolved) (*fabric, error) {
	f := &fabric{cfg: cfg, plan: r.Plan, net: simnet.New(cfg.Seed, r.Plan)}
	if cfg.Shards > 1 {
		f.edges = cfg.Shards
	}
	f.mux = &fl.ClientMux{
		Spec:    cfg.Model,
		Data:    cfg.Data,
		Strat:   cfg.Strategy,
		Seed:    cfg.Seed,
		Opt:     fl.ClientOptions{Codec: r.Cfg.Codec},
		Plan:    cfg.Plan,
		Workers: r.Cfg.MuxWorkers,
	}
	if err := f.deploy(); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

func (f *fabric) serve(addr string) (*fl.RoundServer, error) {
	ln, err := f.net.Listen(addr)
	if err != nil {
		return nil, err
	}
	srv := fl.NewRoundServerOn(ln)
	srv.Clock = f.net.Clock()
	srv.Codec = f.mux.Opt.Codec // every end of the fabric speaks its clients' codec
	return srv, nil
}

// deploy stands up the server tier. On error the caller closes whatever
// came up.
func (f *fabric) deploy() (err error) {
	if f.root, err = f.serve(simnetServerAddr); err != nil {
		return err
	}
	// The root is the flat fold of its inputs — client updates or edge
	// partials: the float rule at Shards 0, the exact one otherwise.
	if f.rootAgg, err = fl.NewAggregatorFor(f.cfg.Aggregation, min(f.cfg.Shards, 1), 0, f.cfg.K); err != nil {
		return err
	}
	for s := 0; s < f.edges; s++ {
		srv, err := f.serve(simnetEdgeAddr(s))
		if err != nil {
			return err
		}
		f.edgeSrvs = append(f.edgeSrvs, srv)
		agg, err := fl.NewExact(f.cfg.Aggregation)
		if err != nil {
			return err
		}
		f.edgeAggs = append(f.edgeAggs, agg)
	}
	return nil
}

// Restart implements fl.RoundRunner, for real: every listener closes, every
// parked session is refused, and a fresh server tier rebinds the addresses —
// the surface cmd/fedclient's reconnect loop rides.
func (f *fabric) Restart(int) error {
	f.Close()
	f.root, f.edgeSrvs, f.edgeAggs = nil, nil, nil
	return f.deploy()
}

// Close implements fl.RoundRunner.
func (f *fabric) Close() {
	if f.root != nil {
		f.root.Close()
	}
	for _, es := range f.edgeSrvs {
		es.Close()
	}
}

// Round implements fl.RoundRunner: one round of the deployment.
func (f *fabric) Round(round int, cohort []int, global *nn.Model) (fl.RoundStats, error) {
	f.net.SetRound(round)
	plan := f.plan
	rs := fl.RoundStats{Committed: 0 >= f.cfg.MinQuorum, Dropped: len(cohort)}
	wireBefore := f.net.BytesWritten()

	// Route each cohort member to the server it dials, excluding clients
	// that cannot reach it and, in a tree, shards whose edge cannot reach
	// the root — the orchestrator, unlike any server, is allowed to know
	// who is unreachable, and unreachable members are left out of the
	// admission quotas. members counts each shard's sessions; flat
	// topologies are the single "shard" at the root.
	topo := fl.Topology{K: f.cfg.K, Shards: f.cfg.Shards}
	members := make([]int, max(f.edges, 1))
	rootSessions := 0
	var tasks []fl.MuxTask
	for _, id := range cohort {
		s, addr, host := 0, simnetServerAddr, simnetClientHost(id)
		if f.edges > 0 {
			s = topo.ShardOf(id)
			addr = simnetEdgeAddr(s)
			if plan.Partitioned(round, addr, simnetServerAddr) {
				continue
			}
		}
		if plan.Partitioned(round, host, addr) {
			continue
		}
		// The root serves every client of a flat topology and, in a tree,
		// one session per edge that has members this round.
		if members[s]++; f.edges == 0 || members[s] == 1 {
			rootSessions++
		}
		tasks = append(tasks, fl.MuxTask{
			ClientID: id,
			Addr:     addr,
			Dial:     f.net.Dialer(host),
			// The fault plan destroys this contribution: the client opens
			// its session, receives the round, and vanishes.
			Abandon: plan.CrashClient(round, id) || plan.DropUpdate(round, id),
		})
	}
	if rootSessions == 0 {
		return rs, nil
	}

	type rootOutcome struct {
		res fl.RoundResult
		err error
	}
	rootCh := make(chan rootOutcome, 1)
	go func() {
		// No deadline: the fabric clock is virtual and every session resolves.
		res, err := f.root.StreamRound(round, global.Params(), f.cfg.Round, f.rootAgg, fl.RoundOptions{
			Clients:   rootSessions,
			MinQuorum: f.cfg.MinQuorum,
		})
		rootCh <- rootOutcome{res, err}
	}()
	edgeCh := make(chan error, f.edges)
	edgesUp := 0
	for s := 0; s < f.edges; s++ {
		if members[s] == 0 {
			continue
		}
		edgesUp++
		go func(s int) {
			// MinQuorum 0: the edge never commits (EdgeFold's Commit is a
			// no-op); its round exists to fold. Even when that round fails
			// the partial is still sent — an empty one resolves the root's
			// session slot instead of hanging the round on a dead edge.
			agg := f.edgeAggs[s]
			_, err := f.edgeSrvs[s].StreamRound(round, global.Params(), f.cfg.Round, fl.EdgeFold(agg), fl.RoundOptions{Clients: members[s]})
			serr := fl.SendPartial(simnetServerAddr, s, round, agg.TakePartial(),
				fl.ClientOptions{Dial: f.net.Dialer(simnetEdgeAddr(s)), Codec: f.mux.Opt.Codec})
			if err == nil {
				err = serr
			}
			if err != nil {
				err = fmt.Errorf("core: simnet round %d shard %d: %w", round, s, err)
			}
			edgeCh <- err // buffered: an early return below never strands it
		}(s)
	}

	// Under link-level chaos (message cuts, duplicate delivery) ANY session
	// may legitimately die mid-protocol — those deaths are the injected
	// fault, not a harness bug, so they are tolerated and show up in the
	// round accounting as failed sessions instead.
	linkChaos := plan.MsgDropRate > 0 || plan.DupRate > 0
	for i, r := range f.mux.RunRound(tasks) {
		if r.Err != nil && !tasks[i].Abandon && !linkChaos {
			return rs, fmt.Errorf("core: simnet round %d client %d: %w", round, r.ClientID, r.Err)
		}
	}
	for ; edgesUp > 0; edgesUp-- {
		if err := <-edgeCh; err != nil && !linkChaos {
			return rs, err
		}
	}
	ro := <-rootCh
	if ro.err != nil {
		return rs, fmt.Errorf("core: simnet round %d: %w", round, ro.err)
	}
	rs.Clients = f.rootAgg.Count()
	rs.Dropped = len(cohort) - rs.Clients
	rs.Committed = ro.res.Committed
	rs.WireBytes = f.net.BytesWritten() - wireBefore
	return rs, nil
}
