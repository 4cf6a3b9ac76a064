package core

import (
	"fmt"

	"fedcdp/internal/accountant"
	"fedcdp/internal/dataset"
	"fedcdp/internal/dp"
	"fedcdp/internal/fl"
	"fedcdp/internal/tensor"
)

// Method names accepted by Config.Method.
const (
	MethodNonPrivate  = "nonprivate"
	MethodFedSDP      = "fedsdp"
	MethodFedSDPSrv   = "fedsdp-server"
	MethodFedCDP      = "fedcdp"
	MethodFedCDPDecay = "fedcdp-decay"
	MethodDSSGD       = "dssgd"
)

// placement is where a method's mechanism meets the gradient, and so which
// adversaries of the paper's threat model (Section III) read it sanitized.
type placement uint8

const (
	nowhere      placement = iota
	perExample             // each example's gradient, as local training computes it
	clientUpdate           // the round update, before it leaves the client
	serverUpdate           // the round update, at the server
)

// accounting is what a committed round of a method charges the accountant.
type accounting uint8

const (
	noGuarantee   accounting = iota // ε stays 0, i.e. "unbounded"
	instanceLevel                   // L steps at q = B·Kt/N
	clientLevel                     // one step at q = Kt/K
)

// method is one row of the method table.
type method struct {
	name  string                     // Config.Method
	label string                     // the report label: the Name of what build returns
	build func(c Config) fl.Strategy // Strategy wraps it in Compressed to prune
	at    placement
	acct  accounting
	// stage is the mechanism Leak applies at the row's placement, under the
	// Config's clip, σ, decay schedule and share fraction, in the given round.
	stage func(c Config, round int, g []*tensor.Tensor, rng *tensor.RNG)
}

// methods is the method table, in the paper's presentation order; every
// method-keyed decision reads one row. Fed-CDP sanitizes each example and is
// charged L steps a round at the instance rate; Fed-SDP sanitizes the update,
// at the client or the server, and is charged one step at the client rate
// (Sections IV–V). DSSGD shares a pruned update and guarantees nothing.
var methods = []method{{
	name: MethodNonPrivate, label: "non-private",
	build: func(Config) fl.Strategy { return NonPrivate{} },
}, {
	name: MethodFedSDP, label: "fed-sdp", at: clientUpdate, acct: clientLevel, stage: sanitize,
	build: func(c Config) fl.Strategy { return FedSDP{C: c.Clip, Sigma: c.Sigma} },
}, {
	name: MethodFedSDPSrv, label: "fed-sdp(server)", at: serverUpdate, acct: clientLevel, stage: sanitize,
	build: func(c Config) fl.Strategy { return FedSDP{C: c.Clip, Sigma: c.Sigma, AtServer: true} },
}, {
	name: MethodFedCDP, label: "fed-cdp", at: perExample, acct: instanceLevel, stage: sanitize,
	build: func(c Config) fl.Strategy { return NewFedCDP(c.Clip, c.Sigma) },
}, {
	name: MethodFedCDPDecay, label: "fed-cdp(decay)", at: perExample, acct: instanceLevel,
	build: func(c Config) fl.Strategy { return NewFedCDPDecay(c.DecayFrom, c.DecayTo, c.Sigma) },
	stage: func(c Config, round int, g []*tensor.Tensor, rng *tensor.RNG) {
		decay := dp.LinearDecay{From: c.DecayFrom, To: c.DecayTo}
		dp.Sanitize(g, decay.Bound(round, max(c.Rounds, c.PlannedRounds)), c.Sigma, rng)
	},
}, {
	name: MethodDSSGD, label: "dssgd", at: clientUpdate,
	build: func(c Config) fl.Strategy { return DSSGD{ShareFraction: c.ShareFraction} },
	stage: func(c Config, _ int, g []*tensor.Tensor, _ *tensor.RNG) { dp.Compress(g, 1-c.ShareFraction) },
}}

// sanitize is the clip+noise stage at the fixed bound C.
func sanitize(c Config, _ int, g []*tensor.Tensor, rng *tensor.RNG) {
	dp.Sanitize(g, c.Clip, c.Sigma, rng)
}

// Methods lists all method names in the paper's presentation order.
func Methods() []string {
	names := make([]string, len(methods))
	for i, m := range methods {
		names[i] = m.name
	}
	return names
}

// lookupMethod returns the named row; "" is non-private.
func lookupMethod(name string) (method, error) {
	for _, m := range methods {
		if m.name == name || name == "" && m.name == MethodNonPrivate {
			return m, nil
		}
	}
	return method{}, fmt.Errorf("core: unknown method %q (have %v)", name, Methods())
}

// Strategy builds the fl.Strategy for the configured method.
func (c Config) Strategy() (fl.Strategy, error) {
	m, err := lookupMethod(c.Method)
	if err != nil {
		return nil, err
	}
	s := m.build(c)
	if c.CompressRatio > 0 {
		s = Compressed{Inner: s, PruneRatio: c.CompressRatio}
	}
	return s, nil
}

// charge returns the sampling rate and the sampled-Gaussian steps a
// committed round composes, for a round whose sampling pool holds `active`
// clients; zero steps under no guarantee. kt is the cohort actually
// drawable — capped at the active population, exactly as the runtimes cap it.
func (a accounting) charge(cfg Config, spec dataset.Spec, active int) (q float64, steps int) {
	kt := min(cfg.Kt, active)
	switch a {
	case instanceLevel:
		p := accountant.Params{TotalData: spec.TrainN, PerRoundKt: kt, BatchSize: cfg.BatchSize}
		q, steps = p.FedCDPSamplingRate(), cfg.LocalIters
	case clientLevel:
		q, steps = float64(kt)/float64(active), 1
	}
	return min(q, 1), steps
}
