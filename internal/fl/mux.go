package fl

import (
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"

	"fedcdp/internal/dataset"
	"fedcdp/internal/nn"
	"fedcdp/internal/tensor"
)

// Multiplexed virtual clients. The goroutine-per-client deployment pattern
// (one RunRemoteClientRound goroutine per cohort member, each building its
// own model and arena) caps simulated populations at a few hundred: at
// K=100,000 the goroutines, models and scratch buffers are O(K). Here a
// virtual client is DATA — a few words of cursor state in a lazily
// populated map — and only a fixed worker pool is EXECUTION: each worker
// owns one reusable ClientWorkspace (model, arena, RNG) and drains a round
// task list, so K clients cost O(workers) goroutines and buffers plus
// O(touched clients) cursor words. Training stays a pure function of
// (seed, round, clientID), so multiplexing changes scheduling, never
// results.

// VirtualClient is one simulated client's persistent cursor: everything
// that must survive between its rounds. It is deliberately tiny — the
// whole point of multiplexing is that 100,000 of these are a map of small
// structs, not 100,000 goroutines.
type VirtualClient struct {
	ID int
	// NextRound is the lowest round this client has not completed; served
	// rounds below it are honest duplicate re-submissions (see
	// ClientOptions.MinRound for the protocol contract).
	NextRound int
	// LastRound is the last round this client actually trained (-1 before
	// its first session). Open-world muxes compare it against the round
	// being served to detect depart-and-return gaps (Population.AwayBetween)
	// and reset stale error-feedback residuals.
	LastRound int
	// Quant carries quantization error-feedback residuals across this
	// client's rounds; allocated on first quantized session.
	Quant *QuantState
	// Backoff counts consecutive failed sessions (transport errors); the
	// driver may use it to deprioritize flapping clients.
	Backoff int
}

// MuxTask is one session assignment for a round: which client, which
// server. Dial, when set, overrides the mux-wide dialer for this task —
// fabric harnesses use it so every virtual client dials from its own host
// name and fault plans key links correctly. Abandon marks a fault-plan
// fate (crash, dropped update): the worker opens the session and
// disconnects after the announcement, the transport-level footprint of
// the failure.
type MuxTask struct {
	ClientID int
	Addr     string
	Dial     func(addr string) (net.Conn, error)
	Abandon  bool
}

// MuxResult reports one task's outcome. Round is the round the server
// actually served (0 if the session died before the announcement).
type MuxResult struct {
	ClientID int
	Round    int
	Err      error
}

// ClientWorkspace is one worker's reusable training state: the model, the
// arena, the reseedable RNG and the ClientEnv are built once and serve
// every client the worker impersonates.
type ClientWorkspace struct {
	model *nn.Model
	arena *tensor.Arena
	rng   *tensor.RNG
	noise tensor.CounterRNG
	env   ClientEnv
}

// NewClientWorkspace builds a workspace for a model spec.
func NewClientWorkspace(spec nn.Spec) *ClientWorkspace {
	ws := &ClientWorkspace{
		model: nn.Build(spec, tensor.NewRNG(0)),
		arena: tensor.NewArena(),
		rng:   tensor.NewRNG(0),
	}
	ws.model.UseArena(ws.arena)
	return ws
}

// ClientMux drives a population of virtual clients over a fixed worker
// pool. Configure once, then call RunRound with the round's task list;
// virtual-client cursors persist across calls.
type ClientMux struct {
	Spec  nn.Spec
	Data  *dataset.Dataset
	Strat Strategy
	Seed  int64
	// Opt is the transport configuration shared by every session (dialer,
	// codec, encryption, quantization width).
	Opt ClientOptions
	// Adversary, when set, makes the plan's seeded attackers hostile:
	// poisoned virtual clients train on flipped-label shard views and
	// Byzantine ones corrupt their updates before submission — identical
	// behavior to the goroutine-per-client path (ClientOptions.Adversary).
	Adversary AdversaryPlan
	// Workers bounds concurrent sessions (0 = GOMAXPROCS).
	Workers int
	// Population is the open-world registry (see PopulationOf). The zero
	// value is the closed world; with a dynamic plan, a virtual client that
	// departed and returned has its quantization residuals reset before its
	// next session — the rounding debt it banked describes updates against a
	// model state that moved on without it.
	Population Population

	mu  sync.Mutex
	vcs map[int]*VirtualClient
	// wsPool recycles worker workspaces across rounds so steady-state
	// training reuses models, arenas and RNG state instead of rebuilding
	// them every RunRound.
	wsPool sync.Pool
}

// client returns (lazily creating) a virtual client's cursor.
func (m *ClientMux) client(id int) *VirtualClient {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.vcs == nil {
		m.vcs = make(map[int]*VirtualClient)
	}
	vc := m.vcs[id]
	if vc == nil {
		vc = &VirtualClient{ID: id, LastRound: -1}
		m.vcs[id] = vc
	}
	return vc
}

// Clients reports how many virtual-client cursors have been materialized —
// the live-state measure the multiplexing exists to keep at O(touched),
// not O(K).
func (m *ClientMux) Clients() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.vcs)
}

// RunRound drains one round's task list over the worker pool and returns
// per-task results in task order. Tasks are claimed by atomic counter, so
// the worker count shapes throughput only; which worker serves which
// client never influences the update bytes.
func (m *ClientMux) RunRound(tasks []MuxTask) []MuxResult {
	results := make([]MuxResult, len(tasks))
	if len(tasks) == 0 {
		return results
	}
	workers := m.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(tasks) {
		workers = len(tasks)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ws, _ := m.wsPool.Get().(*ClientWorkspace)
			if ws == nil {
				ws = NewClientWorkspace(m.Spec)
			}
			defer m.wsPool.Put(ws)
			for {
				i := int(next.Add(1)) - 1
				if i >= len(tasks) {
					return
				}
				results[i] = m.runTask(ws, tasks[i])
			}
		}()
	}
	wg.Wait()
	return results
}

// runTask executes one session on a workspace and updates the client's
// cursor.
func (m *ClientMux) runTask(ws *ClientWorkspace, task MuxTask) MuxResult {
	res := MuxResult{ClientID: task.ClientID}
	vc := m.client(task.ClientID)
	opt := m.Opt
	if task.Dial != nil {
		opt.Dial = task.Dial
	}
	if task.Abandon {
		res.Round, res.Err = AbandonSession(task.Addr, opt)
		return res
	}
	res.Round, res.Err = m.runSession(ws, vc, task.Addr, opt)
	if res.Err != nil {
		vc.Backoff++
		return res
	}
	vc.Backoff = 0
	if res.Round >= vc.NextRound {
		vc.NextRound = res.Round + 1
		vc.LastRound = res.Round
	}
	return res
}

// runSession is RunRemoteClientRound on a reusable workspace: same
// protocol, same per-round streams, no per-session model/arena/RNG
// construction. The update bytes are bit-identical to the goroutine-per-
// client path because every input to training — parameters, data shard,
// RNG stream, noise keys — is derived exactly the same way.
func (m *ClientMux) runSession(ws *ClientWorkspace, vc *VirtualClient, addr string, opt ClientOptions) (int, error) {
	conn, err := opt.dial(addr)
	if err != nil {
		return 0, fmt.Errorf("fl: dialing %s: %w", addr, err)
	}
	defer conn.Close()
	var rw io.ReadWriter = conn
	if opt.Secure {
		sc, err := Handshake(conn)
		if err != nil {
			return 0, err
		}
		rw = sc
	}
	sess, err := newClientSession(rw, opt.Codec)
	if err != nil {
		return 0, err
	}
	var pm ParamMsg
	if err := sess.ReadParam(&pm); err != nil {
		return 0, fmt.Errorf("fl: reading params: %w", err)
	}
	if pm.Denied {
		return 0, fmt.Errorf("%w: %s", ErrRoundClosed, pm.Reason)
	}
	if err := pm.Validate(); err != nil {
		return 0, fmt.Errorf("fl: invalid round announcement: %w", err)
	}
	data := AdversaryShard(m.Adversary, vc.ID, m.Data.Client(vc.ID))
	if pm.Cfg.Scenario.Name != "" {
		p, err := pm.Cfg.Scenario.Partitioner()
		if err != nil {
			return 0, err
		}
		data = data.RepartitionAt(p, pm.Round)
	}
	ws.model.SetParams(TensorsFromWire(pm.Params))
	ws.model.SetPrecision(pm.Cfg.Precision)
	ws.rng.Reseed(m.Seed, 4, int64(pm.Round), int64(vc.ID))
	ws.noise = ClientNoise(m.Seed, pm.Round, vc.ID)
	ws.env = ClientEnv{
		ClientID: vc.ID,
		Round:    pm.Round,
		Model:    ws.model,
		Data:     data,
		RNG:      ws.rng,
		Cfg:      pm.Cfg,
		Arena:    ws.arena,
		Noise:    &ws.noise,
	}
	delta, _ := m.Strat.ClientUpdate(&ws.env)
	if m.Adversary != nil {
		m.Adversary.CorruptUpdate(pm.Round, vc.ID, delta)
	}
	var qs *QuantState
	if opt.Quant != QuantNone && pm.Round >= vc.NextRound {
		// Error-feedback residuals bank each round exactly once; a
		// re-served round re-submits the identical update without touching
		// them (the MinRound contract, tracked per virtual client).
		if vc.LastRound >= 0 && m.Population.AwayBetween(vc.LastRound+1, pm.Round, vc.ID) {
			// The client departed and returned since it last trained: its
			// banked rounding debt describes a model state the federation
			// moved past without it. Replaying it would inject a stale
			// correction, so a returning client starts debt-free.
			vc.Quant.Reset()
		}
		if vc.Quant == nil {
			vc.Quant = &QuantState{}
		}
		qs = vc.Quant
	}
	if err := sess.WriteUpdateTensors(vc.ID, pm.Round, float64(data.Len()), delta, opt.Quant, qs); err != nil {
		return pm.Round, fmt.Errorf("fl: sending update: %w", err)
	}
	var ack AckMsg
	if err := sess.ReadAck(&ack); err != nil {
		return pm.Round, fmt.Errorf("fl: reading update receipt: %w", err)
	}
	if !ack.Accepted {
		return pm.Round, fmt.Errorf("fl: update not folded: %s", ack.Reason)
	}
	return pm.Round, nil
}
