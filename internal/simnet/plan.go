package simnet

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"fedcdp/internal/tensor"
)

// Reserved tensor.Split label spaces under the root seed. Labels 1–7 and 12
// are claimed by the fl package (model init, server RNG, cohort sampling,
// client RNG, dropout coins, counter noise streams, Floyd sampling — see
// fl/doc.go); the simnet fault plan claims 8–11 for benign fault coins and
// 13–16 for adversarial draws, so no attack stream ever collides with a
// training stream.
const (
	labelDrop       = 8  // per-(round, client) update-loss coins
	labelCrash      = 9  // seeded crash event placement
	labelRestart    = 10 // seeded restart round placement
	labelMessage    = 11 // per-message transport coins (cut/dup/jitter)
	labelByzantine  = 13 // seeded Byzantine attacker identities
	labelPoison     = 14 // seeded poisoned-client identities
	labelAttack     = 15 // per-(round, client) Byzantine noise draws (gauss mode)
	labelPoisonFlip = 16 // per-(client, example) targeted label-flip coins
	labelJoin       = 17 // seeded late-joiner identities (open-world population)
	labelLeave      = 18 // seeded leaver identities (open-world population)
	labelChurn      = 19 // per-(round, client) away-this-round churn coins
)

// Byzantine update-corruption modes (the byzantine=n:mode clause).
const (
	// ByzSignFlip negates the attacker's update: ΔW → −ΔW, the classic
	// directed attack a coordinate-median defense is built for.
	ByzSignFlip = "signflip"
	// ByzScale multiplies the attacker's update by λ (the clause's third
	// field, default 10): ΔW → λ·ΔW. Large |λ| lets a small attacker
	// minority dominate — and break — an unguarded mean fold.
	ByzScale = "scale"
	// ByzGauss replaces nothing but adds N(0, σ²) noise per coordinate
	// (σ from the clause's third field, default 1), drawn from the plan
	// seed so the "random" attack replays bit-identically.
	ByzGauss = "gauss"
)

// partition is one asymmetric reachability hole: from cannot open new
// connections to to during rounds [fromRound, toRound].
type partition struct {
	from, to           string
	fromRound, toRound int
}

// PopEvent is one structural population event from a join=n@r or leave=n@r
// clause: Count seeded client identities arrive (or depart) at Round.
type PopEvent struct {
	Count int
	Round int
}

// Plan is a deterministic fault plan: every decision it makes is a pure
// function of (seed, round, client) or (seed, round, link, message), so two
// runs of the same plan against the same seed inject byte-identical
// failures regardless of goroutine scheduling or GOMAXPROCS.
//
// A plan is built with ParsePlan from a compact grammar (see ParsePlan) and
// must be Bound to a (seed, rounds, clients) population before use when it
// carries seeded event counts (crash=N, restart=N); explicit events
// (crash@r:c, restart@r) work unbound. The zero Plan (and a nil *Plan)
// injects nothing.
type Plan struct {
	// DropRate is the per-(round, client) probability that a client's
	// update is lost in transit after local training completes.
	DropRate float64
	// DupRate is the per-message probability that the transport delivers a
	// message twice (stresses the wire codec and ack protocol).
	DupRate float64
	// MsgDropRate is the per-message probability that the link cuts at that
	// message: the message is lost and the connection breaks — TCP's
	// observable failure mode for unrecoverable loss.
	MsgDropRate float64
	// Latency and Jitter shape per-message virtual delivery delay:
	// delay = Latency + U[0, Jitter). Virtual time only — no real sleeps.
	Latency, Jitter time.Duration
	// CrashCount and RestartCount are seeded event budgets materialized by
	// Bind: CrashCount mid-round client crashes at distinct (round, client)
	// pairs, RestartCount server restarts between rounds.
	CrashCount, RestartCount int

	// ByzantineCount Byzantine attackers are materialized by Bind as
	// distinct seeded client identities; each corrupts every update it
	// submits per ByzantineMode (ByzSignFlip, ByzScale, ByzGauss).
	// ByzantineParam is the mode's parameter: λ for scale, σ for gauss.
	ByzantineCount int
	ByzantineMode  string
	ByzantineParam float64

	// PoisonCount poisoned clients are materialized by Bind as distinct
	// seeded identities; each flips its local labels y → (y+1) mod classes
	// at rate PoisonRate, per-(client, example) coins on the plan seed
	// (targeted label-flipping — the same corrupted shard every round).
	PoisonCount int
	PoisonRate  float64

	// ChurnRate is the per-(round, client) probability that an otherwise
	// registered client is away this round — memoryless availability churn,
	// so departed clients return on their own seeded schedule. Joins and
	// Leaves are the plan's structural population events: each entry joins
	// (or removes) Count seeded client identities starting at Round.
	// Together they define the open-world population (see ClientActive).
	ChurnRate float64
	Joins     []PopEvent
	Leaves    []PopEvent

	crashes  map[[2]int]bool // explicit + bound (round, client) crash events
	restarts map[int]bool    // explicit + bound restart-before rounds
	byz      map[int]bool    // bound Byzantine attacker identities
	poisoned map[int]bool    // bound poisoned-client identities
	// arrive and depart are the bound lifecycles, indexed by client id and
	// nil without join/leave clauses: a late joiner's first active round
	// and a leaver's first inactive round, 0 for a client without one
	// (population events fall in [1, rounds)).
	arrive, depart []int
	parts          []partition

	seed  int64
	bound bool
}

// ParsePlan parses the fault-plan grammar: a comma-separated list of
// clauses, each of which is one of
//
//	drop=0.2            per-(round,client) update-loss probability
//	crash=2             2 seeded mid-round client crashes (needs Bind)
//	crash@3:7           client 7 crashes mid-round in round 3
//	restart=1           1 seeded server restart between rounds (needs Bind)
//	restart@2           server restarts between rounds 1 and 2
//	latency=5ms         per-message virtual link latency
//	jitter=2ms          uniform per-message latency jitter on top
//	dup=0.05            per-message duplication probability
//	msgdrop=0.01        per-message link-cut probability
//	partition=a>b@1-2   host a cannot dial host b during rounds 1..2
//	byzantine=2:signflip    2 seeded Byzantine clients negate their updates
//	byzantine=2:scale:10    ... scale their updates by λ=10 (needs Bind)
//	byzantine=2:gauss:0.5   ... add seeded N(0, 0.5²) noise per coordinate
//	poison=2:0.8        2 seeded clients label-flip 80% of their shard
//	join=2@3            2 seeded clients first arrive at round 3 (needs Bind)
//	leave=1@5           1 seeded client departs at round 5 (needs Bind)
//	churn=0.1           per-(round,client) away-this-round probability
//
// The empty string is the null plan. Probabilities must lie in [0,1];
// counts, rounds and durations must be non-negative. Adversarial clauses
// (byzantine, poison) and population clauses (join, leave) carry seeded
// identity budgets and need Bind; churn is a per-round coin like drop.
func ParsePlan(spec string) (*Plan, error) {
	p := &Plan{crashes: map[[2]int]bool{}, restarts: map[int]bool{}}
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return p, nil
	}
	for _, clause := range strings.Split(spec, ",") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		if err := p.parseClause(clause); err != nil {
			return nil, fmt.Errorf("simnet: plan clause %q: %w", clause, err)
		}
	}
	return p, nil
}

// MustParsePlan is ParsePlan panicking on error (tests, fixed literals).
func MustParsePlan(spec string) *Plan {
	p, err := ParsePlan(spec)
	if err != nil {
		panic(err)
	}
	return p
}

func (p *Plan) parseClause(clause string) error {
	// Event clauses: crash@r:c, restart@r. Rate clauses carry "=" (and the
	// partition clause's value itself contains "@"), so check for "=" first.
	if name, arg, ok := strings.Cut(clause, "@"); ok && !strings.Contains(clause, "=") {
		switch name {
		case "crash":
			rs, cs, ok := strings.Cut(arg, ":")
			if !ok {
				return fmt.Errorf("want crash@round:client")
			}
			r, err1 := strconv.Atoi(rs)
			c, err2 := strconv.Atoi(cs)
			if err1 != nil || err2 != nil || r < 0 || c < 0 {
				return fmt.Errorf("invalid crash event %q", arg)
			}
			p.crashes[[2]int{r, c}] = true
			return nil
		case "restart":
			r, err := strconv.Atoi(arg)
			if err != nil || r < 0 {
				return fmt.Errorf("invalid restart round %q", arg)
			}
			p.restarts[r] = true
			return nil
		case "partition":
			return fmt.Errorf("want partition=from>to@r1-r2")
		default:
			return fmt.Errorf("unknown event %q", name)
		}
	}
	name, val, ok := strings.Cut(clause, "=")
	if !ok {
		return fmt.Errorf("want name=value or name@event")
	}
	prob := func(dst *float64) error {
		v, err := strconv.ParseFloat(val, 64)
		if err != nil || v < 0 || v > 1 {
			return fmt.Errorf("probability %q outside [0,1]", val)
		}
		*dst = v
		return nil
	}
	count := func(dst *int) error {
		v, err := strconv.Atoi(val)
		if err != nil || v < 0 {
			return fmt.Errorf("invalid count %q", val)
		}
		*dst = v
		return nil
	}
	dur := func(dst *time.Duration) error {
		v, err := time.ParseDuration(val)
		if err != nil || v < 0 {
			return fmt.Errorf("invalid duration %q", val)
		}
		*dst = v
		return nil
	}
	switch name {
	case "drop":
		return prob(&p.DropRate)
	case "dup":
		return prob(&p.DupRate)
	case "msgdrop":
		return prob(&p.MsgDropRate)
	case "crash":
		return count(&p.CrashCount)
	case "restart":
		return count(&p.RestartCount)
	case "byzantine":
		return p.parseByzantine(val)
	case "poison":
		return p.parsePoison(val)
	case "churn":
		return prob(&p.ChurnRate)
	case "join":
		return parsePopEvent(val, &p.Joins)
	case "leave":
		return parsePopEvent(val, &p.Leaves)
	case "latency":
		return dur(&p.Latency)
	case "jitter":
		return dur(&p.Jitter)
	case "partition":
		ends, window, ok := strings.Cut(val, "@")
		if !ok {
			return fmt.Errorf("want partition=from>to@r1-r2")
		}
		from, to, ok := strings.Cut(ends, ">")
		if !ok || from == "" || to == "" {
			return fmt.Errorf("want from>to endpoints")
		}
		r1s, r2s, ok := strings.Cut(window, "-")
		if !ok {
			r2s = r1s
		}
		r1, err1 := strconv.Atoi(r1s)
		r2, err2 := strconv.Atoi(r2s)
		if err1 != nil || err2 != nil || r1 < 0 || r2 < r1 {
			return fmt.Errorf("invalid round window %q", window)
		}
		p.parts = append(p.parts, partition{from: from, to: to, fromRound: r1, toRound: r2})
		return nil
	default:
		return fmt.Errorf("unknown fault %q", name)
	}
}

// parseByzantine parses "n:mode[:param]" — count, corruption mode, and the
// mode's parameter (λ for scale, σ for gauss; signflip takes none).
func (p *Plan) parseByzantine(val string) error {
	fields := strings.Split(val, ":")
	if len(fields) < 2 {
		return fmt.Errorf("want byzantine=n:mode[:param]")
	}
	n, err := strconv.Atoi(fields[0])
	if err != nil || n < 0 {
		return fmt.Errorf("invalid count %q", fields[0])
	}
	mode := fields[1]
	param := 0.0
	switch mode {
	case ByzSignFlip:
		if len(fields) > 2 {
			return fmt.Errorf("signflip takes no parameter")
		}
	case ByzScale:
		param = 10
	case ByzGauss:
		param = 1
	default:
		return fmt.Errorf("unknown byzantine mode %q (want signflip, scale or gauss)", mode)
	}
	if len(fields) > 3 {
		return fmt.Errorf("want byzantine=n:mode[:param]")
	}
	if len(fields) == 3 {
		v, err := strconv.ParseFloat(fields[2], 64)
		if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("invalid %s parameter %q", mode, fields[2])
		}
		if mode == ByzGauss && v < 0 {
			return fmt.Errorf("negative gauss σ %q", fields[2])
		}
		param = v
	}
	p.ByzantineCount, p.ByzantineMode, p.ByzantineParam = n, mode, param
	return nil
}

// parsePopEvent parses "n@r" — a count of seeded client identities and the
// round the event takes effect — for the join and leave clauses.
func parsePopEvent(val string, dst *[]PopEvent) error {
	ns, rs, ok := strings.Cut(val, "@")
	if !ok {
		return fmt.Errorf("want n@round")
	}
	n, err1 := strconv.Atoi(ns)
	r, err2 := strconv.Atoi(rs)
	if err1 != nil || n < 0 {
		return fmt.Errorf("invalid count %q", ns)
	}
	if err2 != nil || r < 0 {
		return fmt.Errorf("invalid round %q", rs)
	}
	*dst = append(*dst, PopEvent{Count: n, Round: r})
	return nil
}

// parsePoison parses "n:rate" — count of poisoned clients and the fraction
// of each poisoned shard whose labels are flipped.
func (p *Plan) parsePoison(val string) error {
	ns, rs, ok := strings.Cut(val, ":")
	if !ok {
		return fmt.Errorf("want poison=n:rate")
	}
	n, err := strconv.Atoi(ns)
	if err != nil || n < 0 {
		return fmt.Errorf("invalid count %q", ns)
	}
	rate, err := strconv.ParseFloat(rs, 64)
	if err != nil || rate < 0 || rate > 1 {
		return fmt.Errorf("poison rate %q outside [0,1]", rs)
	}
	p.PoisonCount, p.PoisonRate = n, rate
	return nil
}

// Bind materializes the plan's seeded event budgets against a concrete
// population: CrashCount crashes land on distinct seeded (round, client)
// pairs in [0,rounds)×[0,clients), RestartCount restarts on distinct seeded
// rounds in [1,rounds) ("between rounds" — a restart before round 0 is a
// cold start, not a fault), and ByzantineCount/PoisonCount adversaries on
// distinct seeded client identities in [0,clients). Event placement is a
// pure function of the seed, so the same (plan, seed, population) always
// fails — and attacks — the same way. Bind returns a bound copy; the
// receiver is not modified.
//
// A budget that exceeds its domain is a configuration error, not a request
// to saturate: a plan demanding more crashes than there are (round, client)
// slots, more restarts than between-round gaps, or more attackers than
// clients fails loudly here rather than silently injecting fewer faults
// than the experiment was told it ran under.
func (p *Plan) Bind(seed int64, rounds, clients int) (*Plan, error) {
	b := *p
	b.crashes = map[[2]int]bool{}
	for e := range p.crashes {
		b.crashes[e] = true
	}
	b.restarts = map[int]bool{}
	for r := range p.restarts {
		b.restarts[r] = true
	}
	b.byz = map[int]bool{}
	b.poisoned = map[int]bool{}
	b.seed = seed
	b.bound = true
	if p.CrashCount > 0 {
		// The budget must fit the slots explicit crash@ events have not
		// already taken — rejection sampling on a full domain would spin
		// forever, and a silently truncated budget would lie about the run.
		taken := 0
		for e := range b.crashes {
			if e[0] < rounds && e[1] < clients {
				taken++
			}
		}
		if free := rounds*clients - taken; p.CrashCount > free {
			return nil, fmt.Errorf("simnet: crash=%d exceeds the %d free (round, client) slots of a %d-round, %d-client run", p.CrashCount, free, rounds, clients)
		}
		rng := tensor.Split(seed, labelCrash)
		for n := 0; n < p.CrashCount; {
			e := [2]int{rng.Intn(rounds), rng.Intn(clients)}
			if !b.crashes[e] {
				b.crashes[e] = true
				n++
			}
		}
	}
	if p.RestartCount > 0 {
		taken := 0
		for r := range b.restarts {
			if r >= 1 && r < rounds {
				taken++
			}
		}
		free := rounds - 1 - taken
		if free < 0 {
			free = 0
		}
		if p.RestartCount > free {
			return nil, fmt.Errorf("simnet: restart=%d exceeds the %d free between-round gaps of a %d-round run", p.RestartCount, free, rounds)
		}
		rng := tensor.Split(seed, labelRestart)
		for n := 0; n < p.RestartCount; {
			r := 1 + rng.Intn(rounds-1)
			if !b.restarts[r] {
				b.restarts[r] = true
				n++
			}
		}
	}
	if p.ByzantineCount > 0 {
		if p.ByzantineCount > clients {
			return nil, fmt.Errorf("simnet: byzantine=%d exceeds the %d-client population", p.ByzantineCount, clients)
		}
		drawIdentities(b.byz, tensor.Split(seed, labelByzantine), p.ByzantineCount, clients)
	}
	if p.PoisonCount > 0 {
		if p.PoisonCount > clients {
			return nil, fmt.Errorf("simnet: poison=%d exceeds the %d-client population", p.PoisonCount, clients)
		}
		drawIdentities(b.poisoned, tensor.Split(seed, labelPoison), p.PoisonCount, clients)
	}
	if err := b.bindPopulation(seed, rounds, clients); err != nil {
		return nil, err
	}
	return &b, nil
}

// bindPopulation materializes the join/leave identity budgets: joiners are
// distinct seeded ids across all join events (in clause order), leavers are
// distinct seeded ids drawn from the clients that are not late joiners —
// so every materialized lifecycle is coherent (arrive, then maybe depart).
// Events at round 0 or past the horizon are configuration errors: a "join"
// before the first round is not an arrival, and an event the run never
// reaches would lie about the population the experiment was told it had.
func (p *Plan) bindPopulation(seed int64, rounds, clients int) error {
	p.arrive, p.depart = nil, nil
	joining, leaving := 0, 0
	for _, e := range p.Joins {
		joining += e.Count
	}
	for _, e := range p.Leaves {
		leaving += e.Count
	}
	if joining == 0 && leaving == 0 {
		return nil
	}
	for _, e := range append(append([]PopEvent{}, p.Joins...), p.Leaves...) {
		if e.Round < 1 || e.Round >= rounds {
			return fmt.Errorf("simnet: population event round %d outside [1, %d) of a %d-round run", e.Round, rounds, rounds)
		}
	}
	if joining+leaving > clients {
		return fmt.Errorf("simnet: join+leave budgets (%d+%d) exceed the %d-client population", joining, leaving, clients)
	}
	p.arrive, p.depart = make([]int, clients), make([]int, clients)
	joinRNG := tensor.Split(seed, labelJoin)
	taken := map[int]bool{}
	for _, e := range p.Joins {
		for n := 0; n < e.Count; {
			id := joinRNG.Intn(clients)
			if !taken[id] {
				taken[id] = true
				p.arrive[id] = e.Round
				n++
			}
		}
	}
	leaveRNG := tensor.Split(seed, labelLeave)
	for _, e := range p.Leaves {
		for n := 0; n < e.Count; {
			id := leaveRNG.Intn(clients)
			if !taken[id] {
				taken[id] = true
				p.depart[id] = e.Round
				n++
			}
		}
	}
	return nil
}

// MustBind is Bind panicking on error (tests, fixed literals known valid).
func (p *Plan) MustBind(seed int64, rounds, clients int) *Plan {
	b, err := p.Bind(seed, rounds, clients)
	if err != nil {
		panic(err)
	}
	return b
}

// drawIdentities rejection-samples n distinct client ids in [0, clients)
// into set; the caller has verified n ≤ clients.
func drawIdentities(set map[int]bool, rng *tensor.RNG, n, clients int) {
	for got := 0; got < n; {
		id := rng.Intn(clients)
		if !set[id] {
			set[id] = true
			got++
		}
	}
}

// mustBeBound guards the seeded-event accessors: consulting a plan whose
// seeded budgets were never materialized would silently inject nothing,
// which is the one failure mode a fault-injection harness must not have.
func (p *Plan) mustBeBound() {
	if !p.bound && (p.CrashCount > 0 || p.RestartCount > 0 || p.DropRate > 0 ||
		p.ByzantineCount > 0 || p.PoisonCount > 0 ||
		p.ChurnRate > 0 || len(p.Joins) > 0 || len(p.Leaves) > 0) {
		panic("simnet: plan with seeded faults used before Bind (call Plan.Bind(seed, rounds, clients))")
	}
}

// CrashClient reports whether client crashes mid-round in round: it trains
// (or partially trains) but its update never reaches the server.
func (p *Plan) CrashClient(round, client int) bool {
	if p == nil {
		return false
	}
	p.mustBeBound()
	return p.crashes[[2]int{round, client}]
}

// DropUpdate reports whether client's round update is lost in transit — a
// seeded coin at rate DropRate, independent per (round, client).
func (p *Plan) DropUpdate(round, client int) bool {
	if p == nil || p.DropRate <= 0 {
		return false
	}
	p.mustBeBound()
	return tensor.Split(p.seed, labelDrop, int64(round), int64(client)).Float64() < p.DropRate
}

// RestartServer reports whether the server restarts between round-1 and
// round, losing all in-memory state except its checkpoint.
func (p *Plan) RestartServer(round int) bool {
	if p == nil {
		return false
	}
	p.mustBeBound()
	return p.restarts[round]
}

// Partitioned reports whether host from cannot reach host to in round.
func (p *Plan) Partitioned(round int, from, to string) bool {
	if p == nil {
		return false
	}
	for _, pt := range p.parts {
		if pt.from == from && pt.to == to && round >= pt.fromRound && round <= pt.toRound {
			return true
		}
	}
	return false
}

// ByzantineClient reports whether client is one of the plan's seeded
// Byzantine attackers — a whole-horizon identity, not a per-round coin.
func (p *Plan) ByzantineClient(client int) bool {
	if p == nil || p.ByzantineCount == 0 {
		return false
	}
	p.mustBeBound()
	return p.byz[client]
}

// PoisonedClient reports whether client's local shard is targeted by the
// plan's label-flipping poisoners.
func (p *Plan) PoisonedClient(client int) bool {
	if p == nil || p.PoisonCount == 0 {
		return false
	}
	p.mustBeBound()
	return p.poisoned[client]
}

// CorruptUpdate rewrites a Byzantine client's round update in place per the
// plan's mode, reporting whether it did; honest clients pass through
// untouched. The gauss draw is keyed by (seed, round, client), so the
// corruption — like every other plan decision — is a pure function of the
// plan, never of scheduling.
func (p *Plan) CorruptUpdate(round, client int, update []*tensor.Tensor) bool {
	if !p.ByzantineClient(client) {
		return false
	}
	switch p.ByzantineMode {
	case ByzSignFlip:
		for _, t := range update {
			d := t.Data()
			for i := range d {
				d[i] = -d[i]
			}
		}
	case ByzScale:
		for _, t := range update {
			d := t.Data()
			for i := range d {
				d[i] *= p.ByzantineParam
			}
		}
	case ByzGauss:
		rng := tensor.Split(p.seed, labelAttack, int64(round), int64(client))
		for _, t := range update {
			rng.AddNormal(t, p.ByzantineParam)
		}
	}
	return true
}

// PoisonLabel applies targeted label-flipping for a poisoned client's
// example: a per-(client, example) seeded coin at PoisonRate maps
// y → (y+1) mod classes — the attacker consistently mislabels, it does not
// randomize. Honest clients (and below-rate coins) return label unchanged.
func (p *Plan) PoisonLabel(client, index, label, classes int) int {
	if classes < 2 || !p.PoisonedClient(client) {
		return label
	}
	if tensor.SplitFloat64(p.seed, labelPoisonFlip, int64(client), int64(index)) < p.PoisonRate {
		return (label + 1) % classes
	}
	return label
}

// PopulationDynamic reports whether the plan carries any open-world
// population clauses (join, leave, churn) — i.e. whether the active client
// set can differ from the full registry in some round.
func (p *Plan) PopulationDynamic() bool {
	if p == nil {
		return false
	}
	return p.ChurnRate > 0 || len(p.Joins) > 0 || len(p.Leaves) > 0
}

// ClientActive reports whether client belongs to the active population in
// round: it has arrived (its seeded join round, if any, has passed), has
// not departed (its seeded leave round, if any, is still ahead), and its
// per-(round, client) churn coin says present. A pure function of
// (seed, round, client), so the population replays bit-identically. Static
// plans keep every client active in every round.
func (p *Plan) ClientActive(round, client int) bool {
	if !p.PopulationDynamic() {
		return true
	}
	p.mustBeBound()
	if client < len(p.arrive) && (round < p.arrive[client] || p.depart[client] > 0 && round >= p.depart[client]) {
		return false
	}
	return p.ChurnRate <= 0 || tensor.SplitFloat64(p.seed, labelChurn, int64(round), int64(client)) >= p.ChurnRate
}

// Events returns a human-readable summary of the plan's materialized
// events (bound crashes, restarts and adversary identities), for logs and
// reports.
func (p *Plan) Events() string {
	if p == nil {
		return "none"
	}
	var parts []string
	for e := range p.crashes {
		parts = append(parts, fmt.Sprintf("crash@%d:%d", e[0], e[1]))
	}
	for r := range p.restarts {
		parts = append(parts, fmt.Sprintf("restart@%d", r))
	}
	for id := range p.byz {
		parts = append(parts, fmt.Sprintf("byzantine(%s)@%d", p.ByzantineMode, id))
	}
	for id := range p.poisoned {
		parts = append(parts, fmt.Sprintf("poison@%d", id))
	}
	for id, r := range p.arrive {
		if r > 0 {
			parts = append(parts, fmt.Sprintf("join@%d:%d", r, id))
		}
	}
	for id, r := range p.depart {
		if r > 0 {
			parts = append(parts, fmt.Sprintf("leave@%d:%d", r, id))
		}
	}
	if len(parts) == 0 {
		return "none"
	}
	sort.Strings(parts)
	return strings.Join(parts, " ")
}

// msgFate decides one transport message's fate: cut (lost, link breaks),
// duplicated, and its virtual delivery delay. A pure function of
// (seed, round, link, seq), so transport chaos replays identically. The
// seed comes from the fabric, not the plan, so transport faults work on
// unbound plans.
func (p *Plan) msgFate(seed int64, round int, link uint64, seq int64) (cut, dup bool, delay time.Duration) {
	if p == nil {
		return false, false, 0
	}
	delay = p.Latency
	if p.MsgDropRate <= 0 && p.DupRate <= 0 && p.Jitter <= 0 {
		return false, false, delay
	}
	rng := tensor.Split(seed, labelMessage, int64(round), int64(link), seq)
	if p.MsgDropRate > 0 && rng.Float64() < p.MsgDropRate {
		return true, false, delay
	}
	if p.DupRate > 0 && rng.Float64() < p.DupRate {
		dup = true
	}
	if p.Jitter > 0 {
		delay += time.Duration(rng.Float64() * float64(p.Jitter))
	}
	return false, dup, delay
}
