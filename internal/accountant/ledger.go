package accountant

import "fmt"

// Ledger is the per-user privacy accountant of an open-world federation:
// each client id accumulates only the compositions of the rounds that
// client was actually exposed to. The global, user-level ε of the run is
// the maximum over the users (differential privacy is a per-user
// guarantee; the worst-exposed user bounds everyone).
//
// On a closed-world run every user participates in the sampling pool of
// every committed round, so every user's RDP vector is built by the exact
// Accumulate sequence a single global Accountant performs — the max then
// collapses to today's global ε bit-for-bit. Per-user ε diverges exactly
// when the population does: a client that arrives late, departs early, or
// churns away misses those rounds' charges and retains a strictly smaller
// spend.
//
// Users charged by the same sequence of (q, σ, steps) hold bit-identical
// RDP vectors, so the ledger keeps one immutable state per distinct charge
// history, not one accumulator per user: a state is an RDP vector, its
// step count and its ε, computed once when the state is created. Every
// user points at a state. The first charge moves a user off the shared
// root (no compositions); each further charge moves it to the successor of
// its state under that charge, and the successor is memoized on the state,
// so every user that takes the same chain lands on the same state. A
// successor is its predecessor's vector plus the charge, composed by
// accumulate — the operand sequence a per-user Accountant performs, hence
// the same bits. A state no user holds goes on a free list, so the live
// states never outnumber the users plus the root.
type Ledger struct {
	floor []float64 // epsilonFloor of the δ fixed at NewLedger, for which every state caches ε

	users  []int // state index by client id; -1 = never participated
	states []ledgerState
	free   []int

	// The per-step grid of the last (q, σ) charged, fetched once per
	// change rather than through the shared cache per user.
	gridQ, gridSigma float64
	grid             []float64
}

// rootState is the index of the permanent state with no compositions that
// every newcomer's first charge starts from.
const rootState = 0

// ledgerState is one distinct charge history. rdp, steps, eps and optOrder
// never change while the state is live; gen changes when it is freed, which
// invalidates every memo that names it.
type ledgerState struct {
	rdp           []float64
	steps         int
	eps, optOrder float64
	refs          int // users holding the state
	gen           uint64

	// The successor under the last charge applied to a holder: valid while
	// the target's generation is still nextGen.
	nextKey charge
	next    int
	nextGen uint64
	hasNext bool
}

type charge struct {
	q, sigma float64
	steps    int
}

// NewLedger returns an empty ledger for a fixed δ.
func NewLedger(delta float64) *Ledger {
	orders := defaultOrders()
	l := &Ledger{floor: epsilonFloor(delta)}
	l.states = []ledgerState{{rdp: make([]float64, len(orders)), optOrder: orders[0]}}
	return l
}

// Participate charges client id with `steps` compositions of the sampled
// Gaussian mechanism at sampling rate q and noise scale sigma — one call
// per round the client was in the round's sampling pool. The charge is
// identical to Accountant.Accumulate, so a user who participates in every
// round carries exactly the global accountant's state. Ids index a dense
// table, so they are expected to be client indices, not sparse keys.
func (l *Ledger) Participate(clientID int, q, sigma float64, steps int) {
	if clientID < 0 {
		panic(fmt.Sprintf("accountant: negative client id %d", clientID))
	}
	if steps < 0 {
		panic(fmt.Sprintf("accountant: negative steps %d", steps))
	}
	for len(l.users) <= clientID {
		l.users = append(l.users, -1)
	}
	from := l.users[clientID]
	if from < 0 {
		from = rootState
	}
	key := charge{q, sigma, steps}
	to := l.successor(from, key)
	l.states[to].refs++
	if l.users[clientID] >= 0 {
		l.release(from)
	}
	l.users[clientID] = to
}

// successor returns the state that charging a holder of `from` with key
// reaches, from the memo when it is still valid, else a new state.
func (l *Ledger) successor(from int, key charge) int {
	if s := &l.states[from]; s.hasNext && s.nextKey == key && l.states[s.next].gen == s.nextGen {
		return s.next
	}
	if l.grid == nil || key.q != l.gridQ || key.sigma != l.gridSigma {
		l.grid, l.gridQ, l.gridSigma = defaultGridRDP(key.q, key.sigma), key.q, key.sigma
	}
	to := l.alloc()
	src, dst := &l.states[from], &l.states[to]
	copy(dst.rdp, src.rdp)
	accumulate(dst.rdp, l.grid, key.steps)
	dst.steps = src.steps + key.steps
	dst.eps, dst.optOrder = minEpsilon(dst.rdp, dst.steps, l.floor)
	src.nextKey, src.next, src.nextGen, src.hasNext = key, to, dst.gen, true
	return to
}

// alloc returns an unreferenced state with no memo, reusing a freed one
// when there is one.
func (l *Ledger) alloc() int {
	if n := len(l.free); n > 0 {
		i := l.free[n-1]
		l.free = l.free[:n-1]
		l.states[i].hasNext = false
		return i
	}
	l.states = append(l.states, ledgerState{rdp: make([]float64, len(l.floor))})
	return len(l.states) - 1
}

// release drops one holder of state i and frees it when none is left (the
// root has no holders and is never released). The generation moves at the
// free, not at the reuse: a memo must not reach a state that sits on the
// free list either.
func (l *Ledger) release(i int) {
	s := &l.states[i]
	if s.refs--; s.refs == 0 {
		s.gen++
		l.free = append(l.free, i)
	}
}

// Users returns the ids that have ever participated, ascending.
func (l *Ledger) Users() []int {
	ids := make([]int, 0, len(l.users))
	for id, s := range l.users {
		if s >= 0 {
			ids = append(ids, id)
		}
	}
	return ids
}

// state returns a participant's state, or nil for an id that never
// participated.
func (l *Ledger) state(clientID int) *ledgerState {
	if clientID < 0 || clientID >= len(l.users) || l.users[clientID] < 0 {
		return nil
	}
	return &l.states[l.users[clientID]]
}

// UserEpsilon returns one user's current (ε, optimal order); ok is false
// for users that never participated (their true spend is zero — no
// mechanism ever saw their data).
func (l *Ledger) UserEpsilon(clientID int) (eps, optOrder float64, ok bool) {
	s := l.state(clientID)
	if s == nil {
		return 0, 0, false
	}
	return s.eps, s.optOrder, true
}

// Steps returns the compositions accumulated against one user (0 if none).
func (l *Ledger) Steps(clientID int) int {
	if s := l.state(clientID); s != nil {
		return s.steps
	}
	return 0
}

// MaxEpsilon returns the run's user-level privacy spending: the maximum ε
// over all users with its optimal order, and the id of the worst-exposed
// user (ties resolve to the lowest id, so the answer is deterministic). An
// empty ledger spends nothing and returns zeros.
func (l *Ledger) MaxEpsilon() (eps, optOrder float64, worst int) {
	worst = -1
	for id, i := range l.users {
		if i < 0 {
			continue
		}
		if s := &l.states[i]; worst < 0 || s.eps > eps {
			eps, optOrder, worst = s.eps, s.optOrder, id
		}
	}
	return eps, optOrder, worst
}

// MinEpsilon returns the smallest per-user ε among participants with its
// user id — together with MaxEpsilon it bounds the spread an open-world
// run induces. An empty ledger returns zeros.
func (l *Ledger) MinEpsilon() (eps float64, least int) {
	least = -1
	for id, i := range l.users {
		if i < 0 {
			continue
		}
		if s := &l.states[i]; least < 0 || s.eps < eps {
			eps, least = s.eps, id
		}
	}
	return eps, least
}
