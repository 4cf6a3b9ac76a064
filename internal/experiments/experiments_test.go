package experiments

import (
	"strings"
	"testing"

	"fedcdp/internal/core"
)

func TestReportFormatting(t *testing.T) {
	r := &Report{
		Name:   "test",
		Title:  "a title",
		Header: []string{"col1", "longer-col"},
		Rows:   [][]string{{"a", "b"}, {"ccc", "d"}},
		Notes:  []string{"a note"},
	}
	s := r.String()
	for _, want := range []string{"=== test: a title ===", "col1", "longer-col", "ccc", "note: a note"} {
		if !strings.Contains(s, want) {
			t.Fatalf("report output missing %q:\n%s", want, s)
		}
	}
}

func TestFormatHelpers(t *testing.T) {
	if f3(0.12345) != "0.123" || f4(0.12345) != "0.1235" || f1(1.25) != "1.2" {
		t.Fatal("float formatting broken")
	}
	if yn(true) != "Y" || yn(false) != "N" {
		t.Fatal("yn broken")
	}
	if pad("ab", 4) != "ab  " || pad("abcd", 2) != "abcd" {
		t.Fatal("pad broken")
	}
}

func TestOptionsScaling(t *testing.T) {
	at := func(scale string) plan { return plan{"test", exp(t, "experiment.scale="+scale)} }
	if p := at("0"); p.scale() != 1 || p.n(100, 10) != 100 {
		t.Fatalf("an unset scale is 1, got %v", p.scale())
	}
	if at("0.5").n(100, 10) != 50 {
		t.Fatal("n scaling broken")
	}
	if at("0.01").n(100, 10) != 10 {
		t.Fatal("n floor broken")
	}
	if at("2").n(100, 10) != 200 {
		t.Fatal("n upscale broken")
	}
}

func TestRegistryComplete(t *testing.T) {
	names := Names()
	want := []string{"byzantine", "churn", "faults", "fig1", "fig3", "fig4", "fig5", "table1", "table2", "table3", "table4", "table5", "table6", "table7"}
	if len(names) != len(want) {
		t.Fatalf("registry has %v, want %v", names, want)
	}
	for i, n := range want {
		if names[i] != n {
			t.Fatalf("registry[%d] = %s, want %s", i, names[i], n)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if _, err := Run("table99", exp(t)); err == nil {
		t.Fatal("expected error for unknown experiment")
	}
}

func TestTable6MatchesPaperShape(t *testing.T) {
	rep, err := Table6(exp(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 5 {
		t.Fatalf("table6 has %d rows, want 5", len(rep.Rows))
	}
	// MNIST row: our RDP ε for L=100 must be within 5% of the paper value.
	mnist := rep.Rows[0]
	if mnist[0] != "mnist" {
		t.Fatalf("first row is %v", mnist)
	}
	var rdp100 float64
	if _, err := sscan(mnist[5], &rdp100); err != nil {
		t.Fatal(err)
	}
	if rdp100 < 0.78 || rdp100 > 0.87 {
		t.Fatalf("mnist L=100 ε = %v, paper 0.8227 (±5%%)", rdp100)
	}
}

func TestTable6Determinism(t *testing.T) {
	a, err := Table6(exp(t))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Table6(exp(t))
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("table6 must be deterministic")
	}
}

// leakUnder is what a threat-type adversary reads off the MNIST victim's first
// n examples under the method, through the drivers' own path: a victim cell
// and the leak oracle.
func leakUnder(t *testing.T, method string, threat, n int) (gw, gb []*tensorT) {
	t.Helper()
	v, err := plan{"test", exp(t)}.victim("method.name=" + method)
	if err != nil {
		t.Fatal(err)
	}
	xs, ys := v.FL.Data.Client(0).Batch(0, n)
	gw, gb, err = leak(attackModel(v.Spec, 1), v.Cfg, threat, xs, ys, rngSplit(1, int64(threat)))
	if err != nil {
		t.Fatal(err)
	}
	return gw, gb
}

func TestLeakType2Semantics(t *testing.T) {
	rawW, _ := leakUnder(t, core.MethodNonPrivate, 2, 1)
	for _, m := range []string{core.MethodFedSDP, core.MethodFedSDPSrv, core.MethodDSSGD} {
		if gw, _ := leakUnder(t, m, 2, 1); !rawW[0].Equal(gw[0], 0) {
			t.Fatalf("%s type-2 leak must be raw (the paper's core point)", m)
		}
	}
	for _, m := range []string{core.MethodFedCDP, core.MethodFedCDPDecay} {
		if gw, _ := leakUnder(t, m, 2, 1); rawW[0].Equal(gw[0], 1e-9) {
			t.Fatalf("%s type-2 leak must be sanitized", m)
		}
	}
}

func TestLeakType01Semantics(t *testing.T) {
	rawW, _ := leakUnder(t, core.MethodNonPrivate, 1, 3)
	for threat := 0; threat <= 1; threat++ {
		if gw, _ := leakUnder(t, core.MethodFedSDP, threat, 3); rawW[0].Equal(gw[0], 1e-9) {
			t.Fatalf("fed-sdp type-%d round update must be sanitized", threat)
		}
	}
	// Server-side Fed-SDP is where types 0 and 1 part (Fig. 4).
	if gw, _ := leakUnder(t, core.MethodFedSDPSrv, 1, 3); !rawW[0].Equal(gw[0], 0) {
		t.Fatal("fed-sdp(server) type-1 round update must be raw")
	}
	if gw, _ := leakUnder(t, core.MethodFedSDPSrv, 0, 3); rawW[0].Equal(gw[0], 1e-9) {
		t.Fatal("fed-sdp(server) type-0 round update must be sanitized")
	}
	gwD, gbD := leakUnder(t, core.MethodDSSGD, 1, 3)
	nz, total := 0, 0
	for _, g := range append(gwD, gbD...) {
		for _, v := range g.Data() {
			if v != 0 {
				nz++
			}
			total++
		}
	}
	if frac := float64(nz) / float64(total); frac > 0.12 {
		t.Fatalf("dssgd leak shares %.3f of entries, want ~0.1", frac)
	}
}

func TestAttackStatsAggregation(t *testing.T) {
	var s attackStats
	s.add(resultWith(true, 0.1, 10))
	s.add(resultWith(false, 0.9, 300))
	succ, dist, iters := s.row()
	if succ != "Y" { // 1 of 2 revealed -> majority rule Y
		t.Fatalf("success = %s", succ)
	}
	if dist != "0.5000" || iters != "155" {
		t.Fatalf("dist=%s iters=%s", dist, iters)
	}
	var s2 attackStats
	s2.add(resultWith(false, 0.9, 300))
	s2.add(resultWith(false, 0.8, 300))
	s2.add(resultWith(true, 0.1, 10))
	if succ, _, _ := s2.row(); succ != "N" {
		t.Fatalf("1/3 revealed must be N, got %s", succ)
	}
}

func TestFig3QuickDecay(t *testing.T) {
	if testing.Short() {
		t.Skip("training experiment")
	}
	rep, _ := trained(t, "fig3")
	if len(rep.Rows) < 8 {
		t.Fatalf("fig3 has %d rounds", len(rep.Rows))
	}
	found := false
	for _, n := range rep.Notes {
		if strings.Contains(n, "decay confirmed") {
			found = true
		}
	}
	if !found {
		t.Fatal("fig3 gradient-norm decay not confirmed")
	}
}

func TestTable3Ratios(t *testing.T) {
	if testing.Short() {
		t.Skip("training experiment")
	}
	rep, err := Table3(exp(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 4 {
		t.Fatalf("table3 rows = %d", len(rep.Rows))
	}
	// The Fed-CDP ratio column must exceed the non-private one.
	var npRatio, cdpRatio float64
	for _, row := range rep.Rows {
		if row[0] == "non-private" {
			sscan(row[6], &npRatio)
		}
		if row[0] == "fed-cdp" {
			sscan(row[6], &cdpRatio)
		}
	}
	if cdpRatio <= npRatio {
		t.Fatalf("fed-cdp overhead ratio %v not above non-private %v", cdpRatio, npRatio)
	}
}

func TestFig1AttacksSucceedOnNonPrivate(t *testing.T) {
	if testing.Short() {
		t.Skip("attack experiment")
	}
	rep, err := Fig1(exp(t, "experiment.scale=0.5"))
	if err != nil {
		t.Fatal(err)
	}
	// At least the type-2 rows must reveal the private input.
	revealed := 0
	for _, row := range rep.Rows {
		if row[1] == "type-2" && row[2] == "Y" {
			revealed++
		}
	}
	if revealed < 2 {
		t.Fatalf("only %d/3 type-2 attacks revealed on non-private FL", revealed)
	}
}
