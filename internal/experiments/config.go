package experiments

import (
	"fedcdp/internal/config"
	"fedcdp/internal/dataset"
)

// FromExperiment derives driver options from a declarative experiment
// config (see internal/config): the axes the experiment drivers expose —
// scale, seed, precision, codec, scenario, aggregation — plus the
// config's canonical digest, which Run stamps into every report so table
// output can be traced back to the exact config that produced it.
func FromExperiment(e *config.Experiment) Options {
	return Options{
		Scale:        e.Experiment.Scale,
		Seed:         e.Seed,
		Precision:    e.Model.Precision,
		Codec:        e.Codec.Wire,
		Scenario:     dataset.Scenario{Name: e.Data.Scenario, Alpha: e.Data.Alpha, Shards: e.Data.Shards},
		Aggregation:  e.Aggregation.Rule,
		Shards:       e.Aggregation.Shards,
		TreeFanout:   e.Aggregation.TreeFanout,
		Sampler:      e.Aggregation.Sampler,
		ConfigDigest: e.Digest(),
	}
}
