package experiments

import (
	"fmt"
	"testing"

	"fedcdp/internal/attack"
	"fedcdp/internal/config"
	"fedcdp/internal/core"
	"fedcdp/internal/tensor"
)

// Thin aliases keeping the test bodies readable.

type tensorT = tensor.Tensor

// exp is the default experiment with the given -set overrides applied.
func exp(t testing.TB, sets ...string) *config.Experiment {
	t.Helper()
	e, err := (&config.Flags{Sets: sets}).Load()
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func rngSplit(seed int64, labels ...int64) *tensor.RNG { return tensor.Split(seed, labels...) }

func sscan(s string, v *float64) (int, error) { return fmt.Sscan(s, v) }

func resultWith(revealed bool, dist float64, iters int) attack.Result {
	return attack.Result{Revealed: revealed, Distance: dist, Iterations: iters}
}

// cellCount is the number of cells a matrix over the axes sweeps.
func cellCount(axes []axis) int {
	n := 1
	for _, a := range axes {
		n *= len(a)
	}
	return n
}

// trained runs the named driver on the default experiment, once per test
// binary, and returns its report with every run it trained, in order: the
// invariant tests, the report tests and the row goldens read the same sweep.
func trained(t *testing.T, name string) (*Report, []*core.Result) {
	t.Helper()
	if s, ok := sweeps[name]; ok {
		return s.rep, s.runs
	}
	var s sweep
	run = func(cfg core.Config) (*core.Result, error) {
		res, err := core.Run(cfg)
		s.runs = append(s.runs, res)
		return res, err
	}
	defer func() { run = core.Run }()
	var err error
	if s.rep, err = Run(name, exp(t, "experiment.name="+name)); err != nil {
		t.Fatal(err)
	}
	sweeps[name] = s
	return s.rep, s.runs
}

type sweep struct {
	rep  *Report
	runs []*core.Result
}

var sweeps = map[string]sweep{}
