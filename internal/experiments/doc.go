// Package experiments contains one driver per table and figure of the
// paper's evaluation (Section VII). Each driver runs a scaled version of
// the experiment on the synthetic benchmark family and emits a Report whose
// rows carry both our measured values and the paper's reported values, so
// the reproduction shape (orderings, ratios, crossovers) can be checked at
// a glance. The same drivers back cmd/tables and the root bench harness.
//
// Options is the shared experiment surface. Scale trades fidelity for time
// (1 is the CPU-friendly default; larger approaches the paper's GPU-scale
// parameters; Table VI is a pure computation and ignores it). Seed roots
// every run. The switches mirror core.Config: Precision, Codec, Scenario
// (the data-heterogeneity partition every training and attack driver
// applies), Aggregation (FedSGD / FedAvg / weighted) and the fold
// topology. Running the suite under a non-default Scenario is the
// heterogeneity sweep the scenario engine exists for, and Run stamps each
// report with the scenario plus the realized per-client dataset statistics.
//
// Reports are pure values (text tables + notes); all nondeterminism in a
// driver is timing measurement (ms/iter columns). Everything else is a
// deterministic function of Options.
package experiments
