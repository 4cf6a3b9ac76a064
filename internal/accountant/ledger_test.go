package accountant

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// refLedger is the ledger as it was before users shared states: one
// Accountant per user in a map, ε converted per call with log(1/δ)/(α−1)
// evaluated in the loop. It is the oracle the shared-state Ledger is held
// to bit for bit.
type refLedger struct {
	delta float64
	users map[int]*Accountant
}

func newRefLedger(delta float64) *refLedger {
	return &refLedger{delta: delta, users: map[int]*Accountant{}}
}

func (l *refLedger) Participate(clientID int, q, sigma float64, steps int) {
	a, ok := l.users[clientID]
	if !ok {
		a = New(l.delta)
		l.users[clientID] = a
	}
	a.Accumulate(q, sigma, steps)
}

func (l *refLedger) Users() []int {
	ids := make([]int, 0, len(l.users))
	for id := range l.users {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

func (l *refLedger) UserEpsilon(clientID int) (eps, optOrder float64, ok bool) {
	a, found := l.users[clientID]
	if !found {
		return 0, 0, false
	}
	orders := defaultOrders()
	if a.steps == 0 {
		return 0, orders[0], true
	}
	best, bestOrder := -1.0, orders[0]
	for i, o := range orders {
		e := a.rdp[i] + logInv(a.Delta)/(o-1)
		if best < 0 || e < best {
			best, bestOrder = e, o
		}
	}
	return best, bestOrder, true
}

func (l *refLedger) Steps(clientID int) int {
	if a, ok := l.users[clientID]; ok {
		return a.Steps()
	}
	return 0
}

func (l *refLedger) MaxEpsilon() (eps, optOrder float64, worst int) {
	found := false
	for _, id := range l.Users() {
		e, o, _ := l.UserEpsilon(id)
		if !found || e > eps {
			eps, optOrder, worst = e, o, id
			found = true
		}
	}
	if !found {
		return 0, 0, -1
	}
	return eps, optOrder, worst
}

func (l *refLedger) MinEpsilon() (eps float64, least int) {
	found := false
	for _, id := range l.Users() {
		e, _, _ := l.UserEpsilon(id)
		if !found || e < eps {
			eps, least = e, id
			found = true
		}
	}
	if !found {
		return 0, -1
	}
	return eps, least
}

// liveStates counts the ledger's states not on the free list, the root
// included.
func (l *Ledger) liveStates() int { return len(l.states) - len(l.free) }

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// checkLedgerUser compares one id's ε, order and steps bit for bit.
func checkLedgerUser(t *testing.T, got *Ledger, want *refLedger, id int) {
	t.Helper()
	ge, go_, gok := got.UserEpsilon(id)
	we, wo, wok := want.UserEpsilon(id)
	if gok != wok || !sameBits(ge, we) || !sameBits(go_, wo) {
		t.Fatalf("UserEpsilon(%d) = (%v, %v, %v), reference (%v, %v, %v)", id, ge, go_, gok, we, wo, wok)
	}
	if g, w := got.Steps(id), want.Steps(id); g != w {
		t.Fatalf("Steps(%d) = %d, reference %d", id, g, w)
	}
}

// checkLedger compares every query of the two ledgers bit for bit, for ids
// up to maxID, and bounds the live states by the users plus the root.
func checkLedger(t *testing.T, got *Ledger, want *refLedger, maxID int) {
	t.Helper()
	gu, wu := got.Users(), want.Users()
	if len(gu) != len(wu) {
		t.Fatalf("Users() = %v, reference %v", gu, wu)
	}
	for i := range gu {
		if gu[i] != wu[i] {
			t.Fatalf("Users() = %v, reference %v", gu, wu)
		}
	}
	for id := 0; id <= maxID; id++ {
		checkLedgerUser(t, got, want, id)
	}
	ge, go_, gw := got.MaxEpsilon()
	we, wo, ww := want.MaxEpsilon()
	if !sameBits(ge, we) || !sameBits(go_, wo) || gw != ww {
		t.Fatalf("MaxEpsilon = (%v, %v, %d), reference (%v, %v, %d)", ge, go_, gw, we, wo, ww)
	}
	gm, gl := got.MinEpsilon()
	wm, wl := want.MinEpsilon()
	if !sameBits(gm, wm) || gl != wl {
		t.Fatalf("MinEpsilon = (%v, %d), reference (%v, %d)", gm, gl, wm, wl)
	}
	if live := got.liveStates(); live > len(gu)+1 {
		t.Fatalf("%d live states for %d users: more than users + 1", live, len(gu))
	}
}

// ledgerKey maps a byte to a charge's (q, σ). Low bits pick σ, including
// σ = 0 (an infinite grid, so 0 steps compose NaN); higher bits pick a fixed
// q, including 0 and 1, or a Fed-SDP-style rate over an active pool of n.
func ledgerKey(b byte, n int) (q, sigma float64) {
	sigma = [...]float64{6, 0.06, 1.1, 0}[b%4]
	if qi := int(b/4) % 8; qi < 5 {
		q = [...]float64{0.01, 0.02, 0.5, 1, 0}[qi]
	} else {
		q = float64(qi-4) / float64(n+3)
	}
	return q, sigma
}

// Ledger fuzz ops, four bytes each: a kind byte, then three arguments.
const (
	opCharge = 0 // kinds 0–3: charge id a%48 with key b and c%5 steps
	opRound  = 4 // kinds 4–5: charge a strided pool with one key
	opQuery  = 6 // compare one id (possibly absent)
	opCheck  = 7 // compare everything
)

// runLedgerOps replays an op sequence against both ledgers.
func runLedgerOps(t *testing.T, data []byte) {
	const delta = 1e-5
	got, want := NewLedger(delta), newRefLedger(delta)
	maxID := 0
	charge := func(id int, q, sigma float64, steps int) {
		got.Participate(id, q, sigma, steps)
		want.Participate(id, q, sigma, steps)
		if id > maxID {
			maxID = id
		}
	}
	for ; len(data) >= 4; data = data[4:] {
		a, b, c := data[1], data[2], data[3]
		switch kind := data[0] % 8; {
		case kind < opRound:
			q, sigma := ledgerKey(b, 1)
			charge(int(a)%48, q, sigma, int(c)%5)
		case kind < opQuery:
			// One round: a pool of n ids from base by stride, all charged
			// with one key and step count, as the runtimes charge an
			// active set.
			base, stride, n := int(a)%16, 1+int(a>>4)%3, 1+int(c)%16
			q, sigma := ledgerKey(b, n)
			for k := 0; k < n; k++ {
				charge(base+k*stride, q, sigma, int(c>>4)%4)
			}
		case kind == opQuery:
			checkLedgerUser(t, got, want, int(a)%50)
		default:
			checkLedger(t, got, want, maxID+1)
		}
		if live, users := got.liveStates(), len(got.Users()); live > users+1 {
			t.Fatalf("%d live states for %d users: more than users + 1", live, users)
		}
	}
	checkLedger(t, got, want, maxID+1)
}

// ledgerOps encodes ops for the fuzz seeds: each is {kind, a, b, c}.
func ledgerOps(ops ...[4]byte) []byte {
	var data []byte
	for _, op := range ops {
		data = append(data, op[:]...)
	}
	return data
}

// freedSuccessorRehit is a charge sequence in which a memoized successor
// is freed and then hit again before it is reused: users 0 and 1 share a
// state; user 0 takes its successor under key K and moves on, freeing it;
// user 1 then asks for the same successor, and the new states of users 2
// and 3 take the free slots. A generation bumped at reuse rather than at
// free hands user 1 a state from the free list that a later charge then
// overwrites.
var freedSuccessorRehit = ledgerOps(
	[4]byte{opRound, 0x00, 0x00, 0x01}, // ids 0, 1: q 0.01, σ 6, 0 steps
	[4]byte{opCharge, 0, 0x04, 2},      // id 0: K = q 0.02, σ 6, 2 steps
	[4]byte{opCharge, 0, 0x08, 3},      // id 0: q 0.5, 3 steps; frees K's state
	[4]byte{opCharge, 1, 0x04, 2},      // id 1: K again
	[4]byte{opCharge, 2, 0x01, 1},      // ids 2, 3: fresh keys reuse the free slots
	[4]byte{opCharge, 3, 0x02, 4},
	[4]byte{opCheck, 0, 0, 0},
)

// FuzzLedgerMatchesReference replays random charge and query sequences —
// ids with gaps and late joiners, keys fixed or varying per round, σ = 0,
// zero steps — against the map-of-Accountant oracle and requires every
// query to agree bit for bit, with live states ≤ users + 1 throughout.
func FuzzLedgerMatchesReference(f *testing.F) {
	f.Add(freedSuccessorRehit)
	f.Add(ledgerOps(
		[4]byte{opRound, 0x10, 0x00, 0x2f}, // 16 ids by stride 2, 2 steps
		[4]byte{opRound, 0x03, 0x00, 0x27},
		[4]byte{opQuery, 5, 0, 0},
		[4]byte{opRound, 0x00, 0x14, 0x1f}, // Fed-SDP-style q over 16
		[4]byte{opCharge, 47, 0x03, 0},     // σ = 0, 0 steps: NaN RDP
		[4]byte{opCheck, 0, 0, 0},
	))
	f.Fuzz(func(t *testing.T, data []byte) { runLedgerOps(t, data) })
}

// A churn-shaped run at scale: users join late and leave for good, the
// present ones churn per round, and Fed-SDP's q = kt/active varies with the
// pool, so histories diverge. Every query must match the oracle each round.
func TestLedgerMatchesReferenceChurn(t *testing.T) {
	const delta, users, rounds, kt = 1e-5, 300, 20, 12
	rng := rand.New(rand.NewSource(1))
	for _, sdp := range []bool{false, true} {
		got, want := NewLedger(delta), newRefLedger(delta)
		for r := 0; r < rounds; r++ {
			var active []int
			for id := 0; id < users; id++ {
				joined, left := id < users/2 || r >= 5, id%7 == 0 && r >= 12
				if joined && !left && rng.Float64() >= 0.1 {
					active = append(active, id)
				}
			}
			q, steps := 0.02, 2
			if sdp {
				q, steps = float64(kt)/float64(len(active)), 1
			}
			for _, id := range active {
				got.Participate(id, q, 6, steps)
				want.Participate(id, q, 6, steps)
			}
			checkLedger(t, got, want, users)
		}
	}
}

// Users charged alike share one state: under uniform participation the
// ledger holds the root and the one current state, and a late cohort adds
// one more, however many users there are.
func TestLedgerSharesStates(t *testing.T) {
	const users, rounds = 500, 10
	led := NewLedger(1e-5)
	for r := 0; r < rounds; r++ {
		n := users / 2
		if r >= 3 {
			n = users
		}
		for id := 0; id < n; id++ {
			led.Participate(id, 0.02, 6, 2)
		}
		want := 2
		if r >= 3 {
			want = 3
		}
		if got := led.liveStates(); got != want {
			t.Fatalf("round %d: %d live states, want %d", r, got, want)
		}
	}
}

func TestLedgerPanicsOnNegativeID(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Participate(-1, …) did not panic")
		}
	}()
	NewLedger(1e-5).Participate(-1, 0.02, 6, 1)
}

// The per-user ledger must collapse to the global accountant bit-for-bit
// when every user participates in every round — that identity is what lets
// the open-world runtimes publish the ledger's max as the run's ε without
// perturbing a single closed-world golden.
func TestLedgerStaticParity(t *testing.T) {
	const delta, q, sigma, steps, rounds, users = 1e-5, 0.02, 6.0, 20, 15, 8
	global := New(delta)
	led := NewLedger(delta)
	for r := 0; r < rounds; r++ {
		global.Accumulate(q, sigma, steps)
		for id := 0; id < users; id++ {
			led.Participate(id, q, sigma, steps)
		}
		wantEps, wantOrder := global.Epsilon()
		gotEps, gotOrder, worst := led.MaxEpsilon()
		if gotEps != wantEps || gotOrder != wantOrder {
			t.Fatalf("round %d: ledger max ε (%v @ %v) != global accountant (%v @ %v)",
				r, gotEps, gotOrder, wantEps, wantOrder)
		}
		if worst != 0 {
			t.Fatalf("round %d: uniform participation must tie-break to user 0, got %d", r, worst)
		}
		if minEps, _ := led.MinEpsilon(); minEps != wantEps {
			t.Fatalf("round %d: uniform participation spread min %v != max %v", r, minEps, wantEps)
		}
	}
	if len(led.Users()) != users {
		t.Fatalf("ledger tracks %d users, want %d", len(led.Users()), users)
	}
	for id := 0; id < users; id++ {
		if led.Steps(id) != rounds*steps {
			t.Fatalf("user %d accumulated %d steps, want %d", id, led.Steps(id), rounds*steps)
		}
	}
}

// Uneven exposure must surface as a per-user ε spread with the worst- and
// least-exposed users correctly identified — the quantity a single global
// accountant structurally cannot report.
func TestLedgerSpread(t *testing.T) {
	const delta, q, sigma = 1e-5, 0.02, 6.0
	led := NewLedger(delta)
	led.Participate(3, q, sigma, 100) // heavy participant
	led.Participate(5, q, sigma, 10)  // light participant
	maxEps, _, worst := led.MaxEpsilon()
	minEps, least := led.MinEpsilon()
	if worst != 3 || least != 5 {
		t.Fatalf("worst/least = %d/%d, want 3/5", worst, least)
	}
	if maxEps <= minEps {
		t.Fatalf("spread inverted: max %v ≤ min %v", maxEps, minEps)
	}
	e3, _, ok3 := led.UserEpsilon(3)
	if !ok3 || e3 != maxEps {
		t.Fatalf("UserEpsilon(3) = %v (ok=%v), want max %v", e3, ok3, maxEps)
	}
	if _, _, ok := led.UserEpsilon(99); ok {
		t.Fatal("never-participating user must report ok=false")
	}
	if led.Steps(99) != 0 {
		t.Fatal("never-participating user must report 0 steps")
	}
	// The composition count, not the call count, determines the state: one
	// 100-step charge equals a hundred 1-step charges (up to float summation
	// order — steps×grid vs. repeated adds).
	split := NewLedger(delta)
	for i := 0; i < 100; i++ {
		split.Participate(3, q, sigma, 1)
	}
	se, _, _ := split.UserEpsilon(3)
	if diff := se - e3; diff < -1e-12 || diff > 1e-12 {
		t.Fatalf("split charges ε %v != bulk charge ε %v", se, e3)
	}
	if split.Steps(3) != 100 {
		t.Fatalf("split charges accumulated %d steps, want 100", split.Steps(3))
	}
}

func TestLedgerEmpty(t *testing.T) {
	led := NewLedger(1e-5)
	if eps, order, worst := led.MaxEpsilon(); eps != 0 || order != 0 || worst != -1 {
		t.Fatalf("empty MaxEpsilon = (%v, %v, %d), want (0, 0, -1)", eps, order, worst)
	}
	if eps, least := led.MinEpsilon(); eps != 0 || least != -1 {
		t.Fatalf("empty MinEpsilon = (%v, %d), want (0, -1)", eps, least)
	}
	if len(led.Users()) != 0 {
		t.Fatal("empty ledger has users")
	}
}

// A participant with zero accumulated steps spends nothing — the Epsilon
// zero-composition rule holds per user as it does globally.
func TestLedgerZeroStepsSpendNothing(t *testing.T) {
	led := NewLedger(1e-5)
	led.Participate(1, 0.02, 6.0, 0)
	eps, _, ok := led.UserEpsilon(1)
	if !ok {
		t.Fatal("registered user must report ok=true")
	}
	if eps != 0 {
		t.Fatalf("zero compositions spent ε %v, want exactly 0", eps)
	}
}
