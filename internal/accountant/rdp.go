package accountant

import (
	"fmt"
	"math"
	"sync"
)

// logAdd returns log(exp(a) + exp(b)) stably.
func logAdd(a, b float64) float64 {
	if math.IsInf(a, -1) {
		return b
	}
	if math.IsInf(b, -1) {
		return a
	}
	if a < b {
		a, b = b, a
	}
	return a + math.Log1p(math.Exp(b-a))
}

// logSub returns log(exp(a) - exp(b)) for a >= b, stably.
func logSub(a, b float64) float64 {
	v, ok := logSubOK(a, b)
	if !ok {
		panic(fmt.Sprintf("accountant: logSub with a < b (%v < %v)", a, b))
	}
	return v
}

// logSubOK is logSub reporting failure instead of panicking; a negative
// difference indicates numerical breakdown of an alternating series.
func logSubOK(a, b float64) (float64, bool) {
	if math.IsInf(b, -1) {
		return a, true
	}
	if a < b {
		return 0, false
	}
	if a == b {
		return math.Inf(-1), true
	}
	return a + math.Log1p(-math.Exp(b-a)), true
}

// logComb returns log C(n, k) for integers.
func logComb(n, k int) float64 {
	lgN, _ := math.Lgamma(float64(n + 1))
	lgK, _ := math.Lgamma(float64(k + 1))
	lgNK, _ := math.Lgamma(float64(n - k + 1))
	return lgN - lgK - lgNK
}

// logBinomReal returns log|C(alpha, i)| and its sign for real alpha >= 0.
func logBinomReal(alpha float64, i int) (logAbs float64, sign float64) {
	lgA, sA := math.Lgamma(alpha + 1)
	lgI, sI := math.Lgamma(float64(i + 1))
	lgAI, sAI := math.Lgamma(alpha - float64(i) + 1)
	return lgA - lgI - lgAI, float64(sA * sI * sAI)
}

// logErfc returns log(erfc(x)) with an asymptotic expansion when erfc(x)
// underflows (x large), matching the reference implementation.
func logErfc(x float64) float64 {
	r := math.Erfc(x)
	if r == 0 {
		// Asymptotic: log erfc(x) ≈ -x² - log(x√π) - x⁻²/2 + 5x⁻⁴/8 ...
		// Every product is rounded before it is added (here and below): a
		// compiler may not fuse it into an FMA on any GOARCH.
		return float64(-math.Log(math.Pi)/2) - math.Log(x) - float64(x*x) -
			float64(0.5*math.Pow(x, -2)) + float64(0.625*math.Pow(x, -4)) -
			float64(37.0/24.0*math.Pow(x, -6)) + float64(353.0/64.0*math.Pow(x, -8))
	}
	return math.Log(r)
}

// computeLogAInt computes the log moment log E[...] of the sampled Gaussian
// mechanism at integer order alpha via the exact binomial expansion.
func computeLogAInt(q, sigma float64, alpha int) float64 {
	logA := math.Inf(-1)
	for i := 0; i <= alpha; i++ {
		logCoef := logComb(alpha, i) + float64(float64(i)*math.Log(q)) + float64(float64(alpha-i)*math.Log1p(-q))
		s := logCoef + float64(i*i-i)/(2*sigma*sigma)
		logA = logAdd(logA, s)
	}
	return logA
}

// computeLogAFrac computes the log moment at fractional order alpha using the
// two-sided series with erfc tail weights. The alternating series is
// numerically fragile for large sampling rates; ok=false reports breakdown,
// in which case callers fall back to the conservative integer-order bound.
func computeLogAFrac(q, sigma, alpha float64) (logA float64, ok bool) {
	logA0 := math.Inf(-1)
	logA1 := math.Inf(-1)
	z0 := float64(sigma*sigma*math.Log(1/q-1)) + 0.5
	for i := 0; ; i++ {
		logCoef, sign := logBinomReal(alpha, i)
		j := alpha - float64(i)
		logT0 := logCoef + float64(float64(i)*math.Log(q)) + float64(j*math.Log1p(-q))
		logT1 := logCoef + float64(j*math.Log(q)) + float64(float64(i)*math.Log1p(-q))
		logE0 := math.Log(0.5) + logErfc((float64(i)-z0)/(math.Sqrt2*sigma))
		logE1 := math.Log(0.5) + logErfc((z0-j)/(math.Sqrt2*sigma))
		logS0 := logT0 + float64(i)*(float64(i)-1)/(2*sigma*sigma) + logE0
		logS1 := logT1 + j*(j-1)/(2*sigma*sigma) + logE1
		if sign > 0 {
			logA0 = logAdd(logA0, logS0)
			logA1 = logAdd(logA1, logS1)
		} else {
			var ok0, ok1 bool
			logA0, ok0 = logSubOK(logA0, logS0)
			logA1, ok1 = logSubOK(logA1, logS1)
			if !ok0 || !ok1 {
				return 0, false
			}
		}
		if math.Max(logS0, logS1) < -30 && float64(i) > alpha {
			break
		}
		if i > 10000 {
			return 0, false // series failed to converge
		}
	}
	return logAdd(logA0, logA1), true
}

// RDPAtOrder returns the per-step Rényi DP of the sampled Gaussian mechanism
// with sampling rate q and noise scale sigma at order alpha > 1.
func RDPAtOrder(q, sigma, alpha float64) float64 {
	switch {
	case q < 0 || q > 1:
		panic(fmt.Sprintf("accountant: sampling rate %v outside [0,1]", q))
	case alpha <= 1:
		panic(fmt.Sprintf("accountant: RDP order must exceed 1, got %v", alpha))
	case q == 0:
		return 0
	case sigma == 0:
		return math.Inf(1)
	case q == 1:
		// Plain Gaussian mechanism.
		return alpha / (2 * sigma * sigma)
	}
	if alpha == math.Trunc(alpha) {
		return computeLogAInt(q, sigma, int(alpha)) / (alpha - 1)
	}
	if logA, ok := computeLogAFrac(q, sigma, alpha); ok {
		return logA / (alpha - 1)
	}
	// The fractional series broke down (large q): Rényi divergence is
	// nondecreasing in the order, so the next integer order is a valid,
	// conservative upper bound.
	up := math.Ceil(alpha)
	return computeLogAInt(q, sigma, int(up)) / (alpha - 1)
}

// DefaultOrders returns the order grid: the TF-privacy default
// (1.25…63.9, 64) extended with larger orders so small-step compositions are
// not floored by log(1/δ)/(α−1).
func DefaultOrders() []float64 {
	return append([]float64(nil), defaultOrders()...)
}

var (
	defaultOrdersOnce sync.Once
	defaultOrdersGrid []float64
)

// defaultOrders returns the shared default order grid. Callers must not
// mutate it; DefaultOrders hands out copies.
func defaultOrders() []float64 {
	defaultOrdersOnce.Do(func() {
		var orders []float64
		for x := 1.25; x < 10; x += 0.25 {
			orders = append(orders, x)
		}
		for x := 10.0; x <= 64; x += 2 {
			orders = append(orders, x)
		}
		for x := 72.0; x <= 256; x += 8 {
			orders = append(orders, x)
		}
		for x := 288.0; x <= 1024; x += 32 {
			orders = append(orders, x)
		}
		defaultOrdersGrid = orders
	})
	return defaultOrdersGrid
}

// The per-step RDP grid is a pure function of (q, σ) — the composition count
// only scales it — yet every round of every run used to re-derive it from
// Lgamma/log series across ~115 orders, which profiles as ~30% of a simnet
// round at small models. Memoizing the grid per (q, σ) is bit-exact (the
// cached values ARE the computed values) and turns per-round accounting into
// a table lookup after the first round.
type rdpGridKey struct{ q, sigma float64 }

var (
	rdpGridMu    sync.Mutex
	rdpGridCache = map[rdpGridKey][]float64{}
)

// rdpGridCap bounds the cache; past it, grids are computed but not retained
// (a σ-sweep of thousands of distinct scales should not grow memory forever).
const rdpGridCap = 1024

// defaultGridRDP returns RDPAtOrder over the default order grid for (q, σ),
// memoized. The returned slice is shared and must not be mutated.
func defaultGridRDP(q, sigma float64) []float64 {
	key := rdpGridKey{q, sigma}
	rdpGridMu.Lock()
	g, ok := rdpGridCache[key]
	rdpGridMu.Unlock()
	if ok {
		return g
	}
	orders := defaultOrders()
	g = make([]float64, len(orders))
	for i, a := range orders {
		g[i] = RDPAtOrder(q, sigma, a)
	}
	rdpGridMu.Lock()
	if len(rdpGridCache) < rdpGridCap {
		rdpGridCache[key] = g
	}
	rdpGridMu.Unlock()
	return g
}

// Epsilon returns the (ε,δ) guarantee after `steps` compositions of the
// sampled Gaussian mechanism, minimized over orders, together with the
// optimal order. It panics on invalid δ.
func Epsilon(q, sigma float64, steps int, delta float64, orders []float64) (eps, optOrder float64) {
	if delta <= 0 || delta >= 1 {
		panic(fmt.Sprintf("accountant: delta %v outside (0,1)", delta))
	}
	var grid []float64
	if len(orders) == 0 {
		orders = defaultOrders()
		grid = defaultGridRDP(q, sigma)
	}
	if steps <= 0 {
		return 0, orders[0]
	}
	best := math.Inf(1)
	bestOrder := orders[0]
	for i, a := range orders {
		var perStep float64
		if grid != nil {
			perStep = grid[i]
		} else {
			perStep = RDPAtOrder(q, sigma, a)
		}
		rdp := float64(float64(steps) * perStep)
		e := rdp + math.Log(1/delta)/(a-1)
		if e < best {
			best = e
			bestOrder = a
		}
	}
	return best, bestOrder
}

// AbadiBound is the paper's Equation (2): ε = c₂·q·√(T·log(1/δ))/σ. With
// c₂ = DefaultC2 it reproduces the paper's Table VI large-T entries to <2%.
func AbadiBound(q, sigma float64, steps int, delta, c2 float64) float64 {
	if sigma == 0 {
		return math.Inf(1)
	}
	return c2 * q * math.Sqrt(float64(steps)*math.Log(1/delta)) / sigma
}

// DefaultC2 is the constant in Equation (2) calibrated against the paper's
// reported Table VI values (see EXPERIMENTS.md).
const DefaultC2 = 1.455
