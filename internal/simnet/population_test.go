package simnet

import (
	"strings"
	"testing"

	"fedcdp/internal/tensor"
)

// The open-world population grammar: join=n@r, leave=n@r, churn=rate. The
// clauses bind to seeded client identities exactly like the adversarial
// ones, so a population schedule replays bit-identically per seed.

func TestParsePopulationClauses(t *testing.T) {
	p, err := ParsePlan("join=2@3,leave=1@5,churn=0.1")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Joins) != 1 || p.Joins[0] != (PopEvent{Count: 2, Round: 3}) {
		t.Fatalf("Joins = %v, want [{2 3}]", p.Joins)
	}
	if len(p.Leaves) != 1 || p.Leaves[0] != (PopEvent{Count: 1, Round: 5}) {
		t.Fatalf("Leaves = %v, want [{1 5}]", p.Leaves)
	}
	if p.ChurnRate != 0.1 {
		t.Fatalf("ChurnRate = %v, want 0.1", p.ChurnRate)
	}
	if !p.PopulationDynamic() {
		t.Fatal("population plan must report dynamic")
	}
	// Repeated events accumulate in clause order.
	p, err = ParsePlan("join=1@2,join=3@4")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Joins) != 2 || p.Joins[1].Round != 4 {
		t.Fatalf("Joins = %v, want two events", p.Joins)
	}
}

func TestParsePopulationRejections(t *testing.T) {
	for _, spec := range []string{
		"join=2",       // missing @round
		"join=x@2",     // bad count
		"join=-1@2",    // negative count
		"join=2@x",     // bad round
		"join=2@-1",    // negative round
		"leave=2",      // missing @round
		"churn=1.5",    // probability outside [0,1]
		"churn=-0.1",   // negative probability
		"churn=banana", // not a number
	} {
		if _, err := ParsePlan(spec); err == nil {
			t.Errorf("ParsePlan(%q) accepted, want rejection", spec)
		}
	}
}

func TestBindPopulationValidation(t *testing.T) {
	cases := []struct {
		spec            string
		rounds, clients int
		want            string
	}{
		{"join=2@0", 6, 10, "outside [1, 6)"},  // round 0 is a cold start, not an arrival
		{"leave=1@6", 6, 10, "outside [1, 6)"}, // past the horizon
		{"join=6@2,leave=5@3", 6, 10, "exceed the 10-client population"},
	}
	for _, tc := range cases {
		p := MustParsePlan(tc.spec)
		_, err := p.Bind(42, tc.rounds, tc.clients)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Bind(%q) = %v, want error containing %q", tc.spec, err, tc.want)
		}
	}
}

func TestClientActiveLifecycle(t *testing.T) {
	const rounds, clients = 6, 10
	p := MustParsePlan("join=2@2,leave=3@4").MustBind(42, rounds, clients)
	joiners, leavers := map[int]bool{}, map[int]bool{}
	for id := 0; id < clients; id++ {
		if !p.ClientActive(0, id) {
			joiners[id] = true
		}
		if !p.ClientActive(rounds-1, id) {
			leavers[id] = true
		}
	}
	if len(joiners) != 2 {
		t.Fatalf("%d clients inactive at round 0, want the 2 late joiners", len(joiners))
	}
	if len(leavers) != 3 {
		t.Fatalf("%d clients inactive at the horizon, want the 3 leavers", len(leavers))
	}
	for id := range joiners {
		if leavers[id] {
			t.Fatalf("client %d both joins and leaves — identities must be disjoint", id)
		}
		if p.ClientActive(1, id) {
			t.Fatalf("joiner %d active before its arrival round", id)
		}
		if !p.ClientActive(2, id) || !p.ClientActive(5, id) {
			t.Fatalf("joiner %d inactive after arrival", id)
		}
	}
	for id := range leavers {
		if !p.ClientActive(3, id) {
			t.Fatalf("leaver %d inactive before its departure round", id)
		}
		if p.ClientActive(4, id) {
			t.Fatalf("leaver %d active after departure", id)
		}
	}
	// Everyone else is active throughout.
	for id := 0; id < clients; id++ {
		if joiners[id] || leavers[id] {
			continue
		}
		for r := 0; r < rounds; r++ {
			if !p.ClientActive(r, id) {
				t.Fatalf("steady client %d inactive at round %d", id, r)
			}
		}
	}
}

func TestClientActiveChurnDeterminism(t *testing.T) {
	const rounds, clients = 20, 50
	a := MustParsePlan("churn=0.3").MustBind(7, rounds, clients)
	b := MustParsePlan("churn=0.3").MustBind(7, rounds, clients)
	away := 0
	for r := 0; r < rounds; r++ {
		for id := 0; id < clients; id++ {
			if a.ClientActive(r, id) != b.ClientActive(r, id) {
				t.Fatalf("churn coin at (%d, %d) differs across identical binds", r, id)
			}
			if !a.ClientActive(r, id) {
				away++
			}
		}
	}
	// The realized churn must be a real coin at roughly the configured rate
	// (loose 3σ-ish bounds on 1000 draws at p=0.3).
	if away < 200 || away > 400 {
		t.Fatalf("churn=0.3 kept %d/1000 (round, client) slots away, want ≈300", away)
	}
	// A different seed redraws the schedule.
	c := MustParsePlan("churn=0.3").MustBind(8, rounds, clients)
	same := true
	for r := 0; r < rounds && same; r++ {
		for id := 0; id < clients; id++ {
			if a.ClientActive(r, id) != c.ClientActive(r, id) {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("churn schedule identical across seeds")
	}
}

// TestClientActiveCoinIsTheSplitStreams: the churn coin reads the first
// draw of the (seed, churn label, round, client) stream without building
// it, lifecycles included, and a query allocates nothing.
func TestClientActiveCoinIsTheSplitStreams(t *testing.T) {
	const rounds, clients = 20, 300
	p := MustParsePlan("join=30@5,leave=30@12,churn=0.2").MustBind(11, rounds, clients)
	for r := 0; r < rounds; r++ {
		for id := 0; id < clients+5; id++ {
			want := (id >= clients || (r >= p.arrive[id] && (p.depart[id] == 0 || r < p.depart[id]))) &&
				tensor.Split(11, labelChurn, int64(r), int64(id)).Float64() >= 0.2
			if got := p.ClientActive(r, id); got != want {
				t.Fatalf("ClientActive(%d, %d) = %v, the lifecycle and Split coin say %v", r, id, got, want)
			}
		}
	}
	if n := testing.AllocsPerRun(100, func() { p.ClientActive(7, 42) }); n != 0 {
		t.Fatalf("ClientActive: %v allocations per query, want 0", n)
	}
}

func TestStaticPlanAllActive(t *testing.T) {
	p := MustParsePlan("drop=0.5,crash=2").MustBind(42, 6, 10)
	if p.PopulationDynamic() {
		t.Fatal("fault-only plan must not report a dynamic population")
	}
	for r := 0; r < 6; r++ {
		for id := 0; id < 10; id++ {
			if !p.ClientActive(r, id) {
				t.Fatalf("static plan deactivated client %d at round %d", id, r)
			}
		}
	}
	var nilPlan *Plan
	if nilPlan.PopulationDynamic() {
		t.Fatal("nil plan must be static")
	}
}

func TestUnboundPopulationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ClientActive on an unbound churn plan must panic, not silently inject nothing")
		}
	}()
	MustParsePlan("churn=0.1").ClientActive(0, 0)
}

func TestPopulationEvents(t *testing.T) {
	p := MustParsePlan("join=1@2,leave=1@3").MustBind(42, 6, 10)
	ev := p.Events()
	if !strings.Contains(ev, "join@2:") || !strings.Contains(ev, "leave@3:") {
		t.Fatalf("Events() = %q, want join@2:<id> and leave@3:<id>", ev)
	}
}
