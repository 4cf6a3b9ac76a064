package experiments

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"fedcdp/internal/attack"
	"fedcdp/internal/config"
	"fedcdp/internal/core"
)

// The seams every driver trains and attacks through; the planned-config
// tests replace them to read a driver's cells without running them.
var (
	run         = core.Run
	reconstruct = attack.Reconstruct
)

// plan is one driver's view of the user's experiment. A driver never builds a
// core.Config: each run it makes is the user's experiment plus the
// section.key=value sets that define the cell, so every key the driver leaves
// alone reaches core.Run through config.CoreConfig, and a key the driver sets
// that the user also moved off its default is refused rather than overridden.
type plan struct {
	name string // the driver, for refusals and errors
	e    *config.Experiment
}

// n scales a base count by experiment.scale with a floor. Scale 1 is the
// harness default — parameters reduced from the paper's GPU-scale setup (K up
// to 10,000 clients, T·L = 10,000 SGD steps per dataset) to CPU-friendly
// sizes that preserve every comparison the paper makes; larger scales move
// toward the paper's setup.
func (p plan) n(base, min int) int {
	return max(int(math.Round(float64(base)*p.scale())), min)
}

// scale is experiment.scale, unset meaning 1.
func (p plan) scale() float64 {
	if p.e.Experiment.Scale <= 0 {
		return 1
	}
	return p.e.Experiment.Scale
}

// kv spells one set the way -set does.
func kv(key string, value any) string { return fmt.Sprintf("%s=%v", key, value) }

// cell derives one run's experiment: the user's plus the driver's sets.
func (p plan) cell(sets ...string) (*config.Experiment, error) {
	moved := p.e.Moved()
	c := *p.e
	for _, s := range sets {
		key, value, _ := strings.Cut(s, "=")
		if slices.Contains(moved, key) {
			return nil, fmt.Errorf("%s sets %s itself (%s in one of its runs); clear it", p.name, key, s)
		}
		if err := config.Set(&c, key, value); err != nil {
			return nil, err
		}
	}
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("%s %v: %w", p.name, sets, err)
	}
	return &c, nil
}

// run trains one cell.
func (p plan) run(sets ...string) (*core.Result, error) {
	c, err := p.cell(sets...)
	if err != nil {
		return nil, err
	}
	res, err := run(c.CoreConfig())
	if err != nil {
		return nil, fmt.Errorf("%s %v: %w", p.name, sets, err)
	}
	return res, nil
}

// axis is one swept dimension: each value is the sets that select it, none
// meaning the user's own setting.
type axis [][]string

// each builds the axis that gives one key each of the values in turn.
func each[T any](key string, values ...T) axis {
	a := make(axis, len(values))
	for i, v := range values {
		a[i] = []string{kv(key, v)}
	}
	return a
}

// matrix trains base plus one value of every axis, for every combination,
// first axis outermost, and returns the runs in sweep order; each run's
// coordinates are in its Result.Cfg.
func (p plan) matrix(base []string, axes ...axis) ([]*core.Result, error) {
	if len(axes) == 0 {
		res, err := p.run(base...)
		return []*core.Result{res}, err
	}
	var out []*core.Result
	for _, v := range axes[0] {
		rs, err := p.matrix(append(base[:len(base):len(base)], v...), axes[1:]...)
		if err != nil {
			return nil, err
		}
		out = append(out, rs...)
	}
	return out, nil
}

// scenarioLabel names a run's partition for a report row.
func scenarioLabel(cfg core.Config) string {
	if cfg.Scenario.Name == "" {
		return "iid"
	}
	return cfg.Scenario.String()
}

// orNone names an empty plan for a report row.
func orNone(plan, none string) string {
	if plan == "" {
		return none
	}
	return plan
}
