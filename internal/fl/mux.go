package fl

import (
	"net"
	"runtime"
	"sync"
	"sync/atomic"

	"fedcdp/internal/dataset"
	"fedcdp/internal/nn"
)

// Multiplexed virtual clients: how one process plays a whole client
// population. A virtual client is DATA — a few words of cursor state in a
// lazily populated map — and only a fixed worker pool is EXECUTION: each
// pool goroutine owns one reusable worker (model, arena, RNG — the same
// type the in-process runtime trains on) and drains a round task list, so K
// clients cost O(workers) goroutines and buffers plus O(touched clients)
// cursor words. A session is openSession + the shared client step, exactly
// what cmd/fedclient's RunRemoteClientRound runs, and training stays a pure
// function of (seed, round, clientID), so multiplexing changes scheduling,
// never results.

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
	// Plan, when set, is the run's plan (see Plan): its seeded attackers
	// are hostile — poisoned virtual clients train on flipped-label shard
	// views and Byzantine ones corrupt their updates before submission, at
	// the point the in-process runtime does (the shared client step) — and
	// under its dynamic population a virtual client that departed and
	// returned has its quantization residuals reset before its next
	// session, since the rounding debt it banked describes updates against
	// a model state that moved on without it. Nil is an honest closed world.
	Plan Plan
	// Workers bounds concurrent sessions (0 = GOMAXPROCS).
	Workers int

	mu  sync.Mutex
	vcs map[int]*VirtualClient
	// pool recycles workers across rounds so steady-state training reuses
	// models, arenas and RNG state instead of rebuilding them every
	// RunRound.
	pool sync.Pool
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
	for n := 0; n < workers; n++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w, _ := m.pool.Get().(*worker)
			if w == nil {
				w = newWorker(m.Spec)
			}
			defer m.pool.Put(w)
			for {
				i := int(next.Add(1)) - 1
				if i >= len(tasks) {
					return
				}
				results[i] = m.runTask(w, tasks[i])
			}
		}()
	}
	wg.Wait()
	return results
}

// runTask executes one session on a worker and updates the client's
// cursor.
func (m *ClientMux) runTask(w *worker, task MuxTask) MuxResult {
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
	res.Round, res.Err = m.runSession(w, vc, task.Addr, opt)
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

// runSession is RunRemoteClientRound on a reusable worker, with the
// quantization residuals kept per virtual client.
func (m *ClientMux) runSession(w *worker, vc *VirtualClient, addr string, opt ClientOptions) (int, error) {
	s, err := openSession(addr, opt)
	if err != nil {
		return 0, err
	}
	defer s.conn.Close()
	round := s.pm.Round
	var qs *QuantState
	if opt.Quant != QuantNone && round >= vc.NextRound {
		// Error-feedback residuals bank each round exactly once; a
		// re-served round re-submits the identical update without touching
		// them (the MinRound contract, tracked per virtual client).
		if vc.LastRound >= 0 && (Population{plan: m.Plan}).AwayBetween(vc.LastRound+1, round, vc.ID) {
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
	data := AdversaryShard(m.Plan, vc.ID, m.Data.Client(vc.ID))
	return round, s.submit(w, m.Strat, m.Seed, vc.ID, data, m.Plan, opt.Quant, qs)
}
