package accountant

import (
	"math"
	"testing"
	"testing/quick"
)

func TestLogAddSub(t *testing.T) {
	a, b := math.Log(3.0), math.Log(2.0)
	if got := logAdd(a, b); math.Abs(got-math.Log(5)) > 1e-12 {
		t.Fatalf("logAdd = %v, want log 5", got)
	}
	if got := logSub(a, b); math.Abs(got-math.Log(1)) > 1e-12 {
		t.Fatalf("logSub = %v, want log 1", got)
	}
	ninf := math.Inf(-1)
	if got := logAdd(ninf, b); got != b {
		t.Fatalf("logAdd(-inf,b) = %v, want b", got)
	}
	if got := logSub(a, ninf); got != a {
		t.Fatalf("logSub(a,-inf) = %v, want a", got)
	}
	if got := logSub(a, a); !math.IsInf(got, -1) {
		t.Fatalf("logSub(a,a) = %v, want -inf", got)
	}
}

func TestLogSubPanicsWhenNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for logSub(a<b)")
		}
	}()
	logSub(0, 1)
}

func TestLogComb(t *testing.T) {
	// C(10,3) = 120
	if got := math.Exp(logComb(10, 3)); math.Abs(got-120) > 1e-9 {
		t.Fatalf("C(10,3) = %v, want 120", got)
	}
	if got := math.Exp(logComb(5, 0)); math.Abs(got-1) > 1e-12 {
		t.Fatalf("C(5,0) = %v, want 1", got)
	}
}

func TestLogBinomRealMatchesInteger(t *testing.T) {
	logAbs, sign := logBinomReal(10, 3)
	if sign <= 0 || math.Abs(math.Exp(logAbs)-120) > 1e-8 {
		t.Fatalf("binom(10,3) = %v*%v, want +120", sign, math.Exp(logAbs))
	}
}

func TestLogErfcMatchesDirect(t *testing.T) {
	for _, x := range []float64{-2, 0, 1, 5} {
		want := math.Log(math.Erfc(x))
		if got := logErfc(x); math.Abs(got-want) > 1e-10 {
			t.Fatalf("logErfc(%v) = %v, want %v", x, got, want)
		}
	}
	// Large x: erfc underflows; the asymptotic branch must be finite and
	// close to -x².
	x := 40.0
	got := logErfc(x)
	if math.IsInf(got, 0) || math.IsNaN(got) {
		t.Fatalf("logErfc(40) = %v", got)
	}
	if math.Abs(got-(-x*x))/x/x > 0.01 {
		t.Fatalf("logErfc(40) = %v, want ≈ %v", got, -x*x)
	}
}

func TestRDPGaussianLimit(t *testing.T) {
	// q=1 is the plain Gaussian mechanism: RDP(α) = α/(2σ²) exactly.
	for _, sigma := range []float64{1, 2, 6} {
		for _, alpha := range []float64{2, 8, 32} {
			want := alpha / (2 * sigma * sigma)
			if got := RDPAtOrder(1, sigma, alpha); math.Abs(got-want) > 1e-12 {
				t.Fatalf("RDP(q=1,σ=%v,α=%v) = %v, want %v", sigma, alpha, got, want)
			}
		}
	}
}

func TestRDPZeroSamplingIsFree(t *testing.T) {
	if got := RDPAtOrder(0, 6, 8); got != 0 {
		t.Fatalf("RDP(q=0) = %v, want 0", got)
	}
}

func TestRDPZeroSigmaIsInfinite(t *testing.T) {
	if got := RDPAtOrder(0.01, 0, 8); !math.IsInf(got, 1) {
		t.Fatalf("RDP(σ=0) = %v, want +inf", got)
	}
}

func TestRDPIntFracConsistency(t *testing.T) {
	// The fractional-order series must agree with the exact integer formula
	// at integer orders.
	for _, alpha := range []float64{2, 4, 16, 64} {
		intVal := computeLogAInt(0.01, 6, int(alpha))
		fracVal, ok := computeLogAFrac(0.01, 6, alpha)
		if !ok {
			t.Fatalf("α=%v: fractional series failed at small q", alpha)
		}
		if math.Abs(intVal-fracVal) > 1e-6*math.Max(1, math.Abs(intVal)) {
			t.Fatalf("α=%v: int %v vs frac %v", alpha, intVal, fracVal)
		}
	}
}

func TestRDPMonotoneInQ(t *testing.T) {
	prev := 0.0
	for _, q := range []float64{0.001, 0.01, 0.05, 0.2} {
		v := RDPAtOrder(q, 6, 16)
		if v <= prev {
			t.Fatalf("RDP not increasing in q at %v: %v <= %v", q, v, prev)
		}
		prev = v
	}
}

func TestRDPMonotoneDecreasingInSigma(t *testing.T) {
	prev := math.Inf(1)
	for _, sigma := range []float64{0.5, 1, 2, 6, 12} {
		v := RDPAtOrder(0.01, sigma, 16)
		if v >= prev {
			t.Fatalf("RDP not decreasing in σ at %v: %v >= %v", sigma, v, prev)
		}
		prev = v
	}
}

func TestRDPPanicsOnBadInputs(t *testing.T) {
	for name, f := range map[string]func(){
		"q>1":  func() { RDPAtOrder(1.5, 6, 2) },
		"α<=1": func() { RDPAtOrder(0.01, 6, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

func TestEpsilonMonotoneInSteps(t *testing.T) {
	prev := 0.0
	for _, steps := range []int{1, 10, 100, 1000, 10000} {
		eps, _ := Epsilon(0.01, 6, steps, 1e-5, nil)
		if eps <= prev {
			t.Fatalf("ε not increasing at %d steps: %v <= %v", steps, eps, prev)
		}
		prev = eps
	}
}

func TestEpsilonSqrtScalingLargeT(t *testing.T) {
	// In the moments-accountant regime ε scales ≈ √T for large T.
	e1, _ := Epsilon(0.01, 6, 2500, 1e-5, nil)
	e2, _ := Epsilon(0.01, 6, 10000, 1e-5, nil)
	ratio := e2 / e1
	if ratio < 1.7 || ratio > 2.4 {
		t.Fatalf("ε(4T)/ε(T) = %v, want ≈ 2 (√ scaling)", ratio)
	}
}

func TestEpsilonPaperRegimeMagnitude(t *testing.T) {
	// The paper's MNIST Fed-CDP setting: q=0.01, σ=6, δ=1e-5, T·L=10000
	// steps. Paper reports ε = 0.8227 (moments accountant); our RDP
	// accountant must land in the same regime.
	eps, _ := Epsilon(0.01, 6, 10000, 1e-5, nil)
	if eps < 0.4 || eps > 1.3 {
		t.Fatalf("ε(paper MNIST regime) = %v, want within [0.4, 1.3]", eps)
	}
}

func TestEpsilonZeroSteps(t *testing.T) {
	eps, _ := Epsilon(0.01, 6, 0, 1e-5, nil)
	if eps != 0 {
		t.Fatalf("ε(0 steps) = %v, want 0", eps)
	}
}

func TestEpsilonPanicsOnBadDelta(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for delta=0")
		}
	}()
	Epsilon(0.01, 6, 10, 0, nil)
}

func TestEpsilonGaussianSingleShotReasonable(t *testing.T) {
	// Single Gaussian mechanism with σ=6, δ=1e-5: the classical sufficient
	// condition (Def. 2) gives ε ≈ sqrt(2 log(1.25/δ))/σ ≈ 0.8. The RDP bound
	// must be finite, positive, and not wildly larger.
	eps, _ := Epsilon(1, 6, 1, 1e-5, nil)
	if eps <= 0 || eps > 2 {
		t.Fatalf("ε(single Gaussian σ=6) = %v", eps)
	}
}

func TestAbadiBound(t *testing.T) {
	// Closed form with calibrated c2 reproduces the paper's headline value.
	eps := AbadiBound(0.01, 6, 10000, 1e-5, DefaultC2)
	if math.Abs(eps-0.8227)/0.8227 > 0.02 {
		t.Fatalf("Eq.(2) ε = %v, want ≈ 0.8227 (±2%%)", eps)
	}
	if !math.IsInf(AbadiBound(0.01, 0, 10, 1e-5, DefaultC2), 1) {
		t.Fatal("σ=0 must give infinite ε")
	}
}

func TestAbadiBoundScalesLinearlyInQ(t *testing.T) {
	f := func(seed int64) bool {
		q := 0.001 + float64(seed%100)/1000.0
		a := AbadiBound(q, 6, 100, 1e-5, DefaultC2)
		b := AbadiBound(2*q, 6, 100, 1e-5, DefaultC2)
		return math.Abs(b-2*a) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultOrdersSortedAndAboveOne(t *testing.T) {
	orders := DefaultOrders()
	if len(orders) < 50 {
		t.Fatalf("order grid too small: %d", len(orders))
	}
	prev := 1.0
	for _, o := range orders {
		if o <= prev {
			t.Fatalf("orders not strictly increasing at %v", o)
		}
		prev = o
	}
}
