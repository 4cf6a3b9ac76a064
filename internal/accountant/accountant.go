package accountant

import (
	"fmt"
	"math"
	"sync"
)

// Accountant tracks cumulative RDP across the rounds of a federated-learning
// run and converts to (ε,δ) on demand. It supports heterogeneous steps (the
// sampling rate or noise scale may change between rounds, e.g. under a
// decaying clipping bound the *sensitivity* changes but σ and q do not, so
// the composition is unaffected — see Section VI of the paper).
type Accountant struct {
	Delta float64
	rdp   []float64 // cumulative RDP per order
	steps int
}

// New returns an accountant for a fixed δ using the default order grid.
func New(delta float64) *Accountant {
	return &Accountant{Delta: delta, rdp: make([]float64, len(defaultOrders()))}
}

// Accumulate adds `steps` compositions of the sampled Gaussian mechanism
// with sampling rate q and noise scale sigma. The per-step RDP grid for
// (q, σ) is memoized across accountants (see defaultGridRDP), so repeated
// rounds at the same noise scale cost a lookup, not a log-series.
func (a *Accountant) Accumulate(q, sigma float64, steps int) {
	if steps < 0 {
		panic(fmt.Sprintf("accountant: negative steps %d", steps))
	}
	accumulate(a.rdp, defaultGridRDP(q, sigma), steps)
	a.steps += steps
}

// accumulate adds steps compositions of a per-step RDP grid to rdp. It is
// the one place RDP composes, for accountants and ledger states alike, so
// both perform the same operand sequence. The rounding of the product is
// explicit: a compiler may not fuse it into the add on any GOARCH.
func accumulate(rdp, grid []float64, steps int) {
	for i := range rdp {
		rdp[i] += float64(float64(steps) * grid[i])
	}
}

// Steps returns the number of accumulated compositions.
func (a *Accountant) Steps() int { return a.steps }

// Epsilon returns the current privacy spending ε and the optimal RDP order.
// Before any composition it reports exactly 0: with no mechanism run the
// guarantee is perfect, and the RDP→(ε, δ) conversion's log(1/δ)/(α−1)
// floor is an artifact of the order grid, not spend.
func (a *Accountant) Epsilon() (eps, optOrder float64) {
	return minEpsilon(a.rdp, a.steps, epsilonFloor(a.Delta))
}

// minEpsilon converts an RDP vector over the default order grid to ε,
// minimized over orders, with floor = epsilonFloor(δ). Ties keep the
// lowest order.
func minEpsilon(rdp []float64, steps int, floor []float64) (eps, optOrder float64) {
	orders := defaultOrders()
	if steps == 0 {
		return 0, orders[0]
	}
	best := -1.0
	bestOrder := orders[0]
	for i, o := range orders {
		e := rdp[i] + floor[i]
		if best < 0 || e < best {
			best = e
			bestOrder = o
		}
	}
	return best, bestOrder
}

func logInv(delta float64) float64 {
	return -math.Log(delta)
}

// The conversion term log(1/δ)/(α−1) depends on δ and the order alone, so
// it is memoized per δ (bounded like the RDP grid cache): the cached values
// are the same expression, evaluated once, so ε keeps its bits and an ε
// conversion costs no math.Log.
var (
	floorMu    sync.Mutex
	floorCache = map[float64][]float64{}
)

// epsilonFloor returns logInv(δ)/(α−1) over the default order grid,
// memoized per δ. The returned slice is shared and must not be mutated.
func epsilonFloor(delta float64) []float64 {
	floorMu.Lock()
	f, ok := floorCache[delta]
	floorMu.Unlock()
	if ok {
		return f
	}
	orders := defaultOrders()
	f = make([]float64, len(orders))
	for i, o := range orders {
		f[i] = logInv(delta) / (o - 1)
	}
	floorMu.Lock()
	if len(floorCache) < rdpGridCap {
		floorCache[delta] = f
	}
	floorMu.Unlock()
	return f
}

// Params bundles the federated configuration needed for accounting.
type Params struct {
	TotalData  int     // N: total training examples across all clients
	TotalK     int     // K: total clients
	PerRoundKt int     // Kt: participating clients per round
	BatchSize  int     // B
	LocalIters int     // L
	Rounds     int     // T
	Sigma      float64 // noise scale
	Delta      float64
}

// FedCDPSamplingRate returns the instance-level sampling rate q = B·Kt/N
// (Section V: local sampling with replacement across clients is equivalent
// to global sampling with replacement).
func (p Params) FedCDPSamplingRate() float64 {
	return float64(p.BatchSize*p.PerRoundKt) / float64(p.TotalData)
}

// FedSDPSamplingRate returns the client-level sampling rate q₂ = Kt/K used
// by Fed-SDP accounting.
func (p Params) FedSDPSamplingRate() float64 {
	return float64(p.PerRoundKt) / float64(p.TotalK)
}

// FedCDPEpsilon returns the (ε,δ) spending of Fed-CDP after T rounds of L
// local iterations: T·L compositions at rate B·Kt/N.
func FedCDPEpsilon(p Params) float64 {
	eps, _ := Epsilon(p.FedCDPSamplingRate(), p.Sigma, p.Rounds*p.LocalIters, p.Delta, nil)
	return eps
}

// FedSDPEpsilon returns the (ε,δ) spending of Fed-SDP after T rounds: T
// compositions at rate Kt/K. The number of local iterations L does not
// enter, because Fed-SDP adds noise once per round to the client update.
func FedSDPEpsilon(p Params) float64 {
	eps, _ := Epsilon(p.FedSDPSamplingRate(), p.Sigma, p.Rounds, p.Delta, nil)
	return eps
}

// FedCDPAbadi returns the paper's Equation (2) closed form for Fed-CDP.
func FedCDPAbadi(p Params) float64 {
	return AbadiBound(p.FedCDPSamplingRate(), p.Sigma, p.Rounds*p.LocalIters, p.Delta, DefaultC2)
}

// FedSDPAbadi returns the paper's Equation (2) closed form for Fed-SDP.
func FedSDPAbadi(p Params) float64 {
	return AbadiBound(p.FedSDPSamplingRate(), p.Sigma, p.Rounds, p.Delta, DefaultC2)
}
