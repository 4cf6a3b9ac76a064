package fl

import (
	"net"
	"sync"
	"sync/atomic"

	"fedcdp/internal/dataset"
	"fedcdp/internal/nn"
)

// Multiplexed virtual clients: how one process plays a whole client
// population. A virtual client is only an id — the mux keeps no per-client
// state — and a fixed worker pool is the execution: each pool goroutine
// owns one reusable worker (model, arena, RNG — the same type the
// in-process runtime trains on) and drains a round task list, so K clients
// cost O(workers) goroutines and buffers. A session is openSession + the
// shared client step, exactly what cmd/fedclient's RunRemoteClientRound
// runs, and training stays a pure function of (seed, round, clientID), so
// multiplexing changes scheduling, never results.

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
// pool. Configure once, then call RunRound with the round's task list.
type ClientMux struct {
	Spec  nn.Spec
	Data  *dataset.Dataset
	Strat Strategy
	Seed  int64
	// Opt is the transport configuration shared by every session (dialer,
	// codec, encryption, expected digest).
	Opt ClientOptions
	// Plan, when set, is the run's plan (see Plan): its seeded attackers
	// are hostile — poisoned virtual clients train on flipped-label shard
	// views and Byzantine ones corrupt their updates before submission, at
	// the point the in-process runtime does (the shared client step). Nil
	// is an honest closed world.
	Plan Plan
	// Workers bounds concurrent sessions (0 = GOMAXPROCS); the first
	// RunRound reads it.
	Workers int

	// workers is the mux's fixed worker set, built at the first RunRound
	// and kept for the mux's life, so steady-state training reuses models,
	// arenas and RNG state — across a GC too — instead of rebuilding them.
	workers     *workerPool
	workersOnce sync.Once
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
	m.workersOnce.Do(func() { m.workers = newWorkerPool(m.Workers, m.Spec) })
	var next atomic.Int64
	var wg sync.WaitGroup
	for n := min(cap(m.workers.slots), len(tasks)); n > 0; n-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := m.workers.acquire()
			defer m.workers.release(w)
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

// runTask executes one session on a worker: open it, then train and
// submit — or, for an Abandon task, disconnect after the announcement.
func (m *ClientMux) runTask(w *worker, task MuxTask) MuxResult {
	res := MuxResult{ClientID: task.ClientID}
	opt := m.Opt
	if task.Dial != nil {
		opt.Dial = task.Dial
	}
	if task.Abandon {
		res.Round, res.Err = AbandonSession(task.Addr, opt)
		return res
	}
	s, err := openSession(task.Addr, opt, &w.pm)
	if err != nil {
		res.Err = err
		return res
	}
	defer s.conn.Close()
	res.Round = s.pm.Round
	data := AdversaryShard(m.Plan, task.ClientID, m.Data.Client(task.ClientID))
	res.Err = s.submit(w, m.Strat, m.Seed, task.ClientID, data, m.Plan)
	return res
}
