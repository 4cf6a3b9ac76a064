// Package experiments contains one driver per table and figure of the
// paper's evaluation (Section VII). Each driver runs a scaled version of
// the experiment on the synthetic benchmark family and emits a Report whose
// rows carry both our measured values and the paper's reported values, so
// the reproduction shape (orderings, ratios, crossovers) can be checked at
// a glance. The same drivers back cmd/tables and the root bench harness.
//
// A driver takes the user's *config.Experiment and nothing else. Each run it
// makes is that experiment plus the section.key=value sets that define the
// cell (see plan): a key the driver does not set — training.lr, method.clip,
// data.scenario, runtime.*, aggregation.*, codec.* … — reaches core.Run
// through config.CoreConfig, the one schema → core mapping; a key the driver
// sets itself and the user also moved off its default is refused, naming the
// driver and the key. experiment.scale trades fidelity for time (1 is the
// CPU-friendly default; larger approaches the paper's GPU-scale parameters;
// Table VI is a pure computation and ignores it). The matrix experiments
// (faults, churn, byzantine) are axes of such sets over one runner, and the
// attack drivers read what each threat type observes from core.Config.Leak.
// Running a driver under a non-default data.scenario is the heterogeneity
// sweep the scenario engine exists for, and Run stamps each report with the
// scenario plus the realized per-client dataset statistics.
//
// Reports are pure values (text tables + notes); all nondeterminism in a
// driver is timing measurement (ms/iter columns). Everything else is a
// deterministic function of the experiment.
package experiments
