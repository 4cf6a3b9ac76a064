package fl

import "fedcdp/internal/nn"

// RoundStats records the measurements of one federated round.
type RoundStats struct {
	Round        int
	Clients      int     // updates folded into the global model this round
	Accuracy     float64 // valid when Evaluated
	Evaluated    bool
	MeanGradNorm float64 // mean per-example pre-clip gradient L2 norm
	MsPerIter    float64 // mean client wall-clock ms per local iteration
	Epsilon      float64 // cumulative privacy spending, filled by core
	// Dropped counts cohort members whose update missed the round — the
	// streaming runtime's deadline stragglers. Coin-flip dropouts
	// (DropoutRate) are removed from the cohort before dispatch and are
	// not counted here.
	Dropped int
	// Committed reports whether the round met MinQuorum and its fold was
	// applied; a round below quorum leaves the global model unchanged.
	Committed bool
	// Active is the size of the round's active client population (the
	// open-world registry's active set; K on closed-world runs). Cohorts
	// are drawn from — and privacy is charged to — exactly this set.
	Active int
	// ActiveIDs is that set in ascending order on an open world (nil on a
	// closed one): the ids the ledger charges, from the round's own walk.
	ActiveIDs []int
	// WireBytes is the network traffic the round generated, when the run
	// went over an instrumented fabric (core.RunSimnet); zero elsewhere.
	WireBytes int64
}

// History is the full record of one simulation run.
type History struct {
	Strategy string
	Config   Config
	Rounds   []RoundStats
	Final    *nn.Model
}

// FinalAccuracy returns the last evaluated validation accuracy; ok is
// false when no round was ever evaluated, which is distinguishable from a
// genuine 0% accuracy (the old sentinel-zero return conflated the two).
func (h *History) FinalAccuracy() (acc float64, ok bool) {
	for i := len(h.Rounds) - 1; i >= 0; i-- {
		if h.Rounds[i].Evaluated {
			return h.Rounds[i].Accuracy, true
		}
	}
	return 0, false
}

// BestAccuracy returns the highest evaluated validation accuracy; ok is
// false when no round was ever evaluated.
func (h *History) BestAccuracy() (best float64, ok bool) {
	for _, r := range h.Rounds {
		if r.Evaluated && (!ok || r.Accuracy > best) {
			best, ok = r.Accuracy, true
		}
	}
	return best, ok
}

// MeanMsPerIter returns the run-average local iteration cost in ms over
// the rounds that actually trained clients; rounds whose whole cohort was
// lost (their MsPerIter is a measurement-free zero) no longer drag the
// mean down. ok is false when no round trained anybody.
func (h *History) MeanMsPerIter() (ms float64, ok bool) {
	var s float64
	n := 0
	for _, r := range h.Rounds {
		if r.Clients > 0 {
			s += r.MsPerIter
			n++
		}
	}
	if n == 0 {
		return 0, false
	}
	return s / float64(n), true
}

// GradNormSeries returns the per-round mean gradient norm trajectory
// (Figure 3 of the paper).
func (h *History) GradNormSeries() []float64 {
	out := make([]float64, len(h.Rounds))
	for i, r := range h.Rounds {
		out[i] = r.MeanGradNorm
	}
	return out
}

// FinalEpsilon returns the cumulative privacy spending after the last round.
func (h *History) FinalEpsilon() float64 {
	if len(h.Rounds) == 0 {
		return 0
	}
	return h.Rounds[len(h.Rounds)-1].Epsilon
}
