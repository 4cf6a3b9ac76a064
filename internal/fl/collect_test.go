package fl

import (
	"sync"

	"fedcdp/internal/dataset"
	"fedcdp/internal/nn"
	"fedcdp/internal/tensor"
)

// The barrier-era RPC spellings, kept for the tests written against them:
// a round that hands its raw updates back, and a client call that does not
// say which round it was served. No runtime has used either since the
// barrier round was retired.

// collectAggregator retains every folded update — the O(Kt) barrier-era
// behaviour — for tests that need the raw updates back. It retains copies:
// Fold must not keep the update itself, which the runtime reuses.
type collectAggregator struct {
	mu      sync.Mutex
	updates [][]*tensor.Tensor
}

func newCollect() *collectAggregator { return &collectAggregator{} }

// Begin implements Aggregator.
func (a *collectAggregator) Begin(params []*tensor.Tensor) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.updates = a.updates[:0]
}

// Fold implements Aggregator.
func (a *collectAggregator) Fold(update []*tensor.Tensor) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.updates = append(a.updates, tensor.CloneAll(update))
}

// Count implements Aggregator.
func (a *collectAggregator) Count() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.updates)
}

// Commit implements Aggregator: collection never modifies the model.
func (a *collectAggregator) Commit(params []*tensor.Tensor) {}

// Updates returns the collected updates in fold order.
func (a *collectAggregator) Updates() [][]*tensor.Tensor {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.updates
}

// runRound serves one round in the barrier-era style: it admits exactly kt
// client sessions, waits for every one to resolve, and returns the
// materialized deltas in arrival order (a failed session leaves none).
func runRound(s *RoundServer, round int, params []*tensor.Tensor, cfg RoundConfig, kt int) ([][]*tensor.Tensor, error) {
	agg := newCollect()
	if _, err := s.StreamRound(round, params, cfg, agg, RoundOptions{Clients: kt}); err != nil {
		return nil, err
	}
	return agg.Updates(), nil
}

// runClient is RunRemoteClientRound for tests that do not look at which
// round the server served.
func runClient(addr string, clientID int, strat Strategy, data *dataset.ClientData, spec nn.Spec, seed int64, opt ClientOptions) error {
	_, err := RunRemoteClientRound(addr, clientID, strat, data, spec, seed, opt)
	return err
}
