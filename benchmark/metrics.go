package main

import (
	"sort"
)

// metric is one named measurement. Timings carry the quartiles, extremes and
// sample count of the per-deployment samples their value is the median of;
// counts and one-per-run values carry only the value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1,omitempty"`
	Q3    float64 `json:"q3,omitempty"`
	Min   float64 `json:"min,omitempty"`
	Max   float64 `json:"max,omitempty"`
	N     int     `json:"n,omitempty"`
}

// quantile returns the p-quantile of sorted xs by linear interpolation.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	at := p * float64(len(sorted)-1)
	lo := int(at)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (at-float64(lo))*(sorted[lo+1]-sorted[lo])
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// summarize reports samples as median, quartiles, min, max and N.
func summarize(xs []float64, unit string) metric {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return metric{Unit: unit}
	}
	return metric{Value: quantile(s, 0.5), Unit: unit, Q1: quantile(s, 0.25), Q3: quantile(s, 0.75), Min: s[0], Max: s[len(s)-1], N: len(s)}
}

// metricDef names a metric in BENCHMARK.json. Bound is the share of the
// parent's median by which an end-to-end metric may get worse; per-layer
// metrics have none.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// endToEnd is what a user of a deployment sees, measured with tracing off.
// Every one is non-zero on every workload; the two of the issue's ten that
// are zero by construction on some workloads (wire_bytes_per_round,
// failed_share) are exact counts and live in exactCounts below.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"round_ms_p50", "ms", "lower", 0.20},
	{"examples_per_s", "1/s", "higher", 0.20},
	{"cpu_ms_per_round", "ms", "lower", 0.20},
	{"alloc_mb_per_round", "MB", "lower", 0.10},
	{"allocs_per_round", "count", "lower", 0.03},
	{"peak_rss_mb", "MB", "lower", 0.15},
	{"final_accuracy", "fraction", "higher", 0.25},
	{"folded_share", "fraction", "higher", 0.05},
}

// exactCounts repeat exactly on the same seed; -compare treats any difference
// on them as a regression. They are reported with the per-layer metrics.
var exactCounts = []string{
	"failed_share",
	"fl.protocol.bytes_per_client",
	"wire_bytes_per_round", // bit-reproducible where the model digest is; see compare.go
}

// perLayer is what the -trace run reports: one module's public call each,
// named <module>.<op>.<measure>, plus the two exact counts of the issue's
// end-to-end list that are zero on some workloads. A metric that does not
// apply to a workload (no conv layer, no wire, no population plan) reads 0.
var perLayer = []metricDef{
	{Name: "config.load.us", Unit: "us", Better: "lower"},
	{Name: "dataset.build.ms", Unit: "ms", Better: "lower"},
	{Name: "dataset.client_view.ns_per_client", Unit: "ns", Better: "lower"},
	{Name: "dataset.batch.ns_per_example.cold", Unit: "ns", Better: "lower"},
	{Name: "dataset.batch.ns_per_example.warm", Unit: "ns", Better: "lower"},
	{Name: "tensor.gemm.gflops", Unit: "GFLOP/s", Better: "higher"},
	{Name: "tensor.gemm.flops_per_example", Unit: "count", Better: "lower"},
	{Name: "tensor.im2col.ns_per_example", Unit: "ns", Better: "lower"},
	{Name: "tensor.gauss.ns_per_elem", Unit: "ns", Better: "lower"},
	{Name: "nn.batch_pass.ns_per_example", Unit: "ns", Better: "lower"},
	{Name: "nn.example_grads.ns_per_example", Unit: "ns", Better: "lower"},
	{Name: "nn.sgd_step.ns_per_param", Unit: "ns", Better: "lower"},
	{Name: "dp.sanitize.ns_per_example", Unit: "ns", Better: "lower"},
	{Name: "dp.sanitize_batch.ns_per_example", Unit: "ns", Better: "lower"},
	{Name: "dp.sanitize.clip_fraction", Unit: "fraction", Better: "lower"},
	{Name: "core.client_update.us_per_client", Unit: "us", Better: "lower"},
	{Name: "core.client_update.unattributed_share", Unit: "fraction", Better: "lower"},
	{Name: "fl.population.active_set.us_per_round", Unit: "us", Better: "lower"},
	{Name: "simnet.plan.client_active.ns_per_query", Unit: "ns", Better: "lower"},
	{Name: "simnet.plan_bind.ms", Unit: "ms", Better: "lower"},
	{Name: "fl.cohort_draw.us_per_round", Unit: "us", Better: "lower"},
	{Name: "fl.wire.encode_shape.ns_per_param", Unit: "ns", Better: "lower"},
	{Name: "fl.wire.decode_shape.ns_per_param", Unit: "ns", Better: "lower"},
	{Name: "fl.wire.quantize8.ns_per_param", Unit: "ns", Better: "lower"},
	{Name: "fl.protocol.us_per_client", Unit: "us", Better: "lower"},
	{Name: "fl.protocol.bytes_per_client", Unit: "B", Better: "lower"},
	{Name: "simnet.fabric.ns_per_kb", Unit: "ns", Better: "lower"},
	{Name: "fl.fold.ns_per_client", Unit: "ns", Better: "lower"},
	{Name: "fl.commit.us_per_round", Unit: "us", Better: "lower"},
	{Name: "fl.partial.wire.us_per_shard", Unit: "us", Better: "lower"},
	{Name: "fl.evaluate.ns_per_example", Unit: "ns", Better: "lower"},
	{Name: "accountant.epsilon.us_per_round", Unit: "us", Better: "lower"},
	{Name: "accountant.ledger.ns_per_user_round", Unit: "ns", Better: "lower"},
	{Name: "accountant.ledger.max_epsilon.us", Unit: "us", Better: "lower"},
	{Name: "core.round.unattributed_share", Unit: "fraction", Better: "lower"},
	{Name: "core.round.parallel_efficiency", Unit: "fraction", Better: "higher"},
	{Name: "trace.overhead_share", Unit: "fraction", Better: "lower"},
	{Name: "wire_bytes_per_round", Unit: "B", Better: "lower"},
	{Name: "failed_share", Unit: "fraction", Better: "lower"},
}
