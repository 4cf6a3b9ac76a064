package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"fedcdp/internal/accountant"
	"fedcdp/internal/core"
	"fedcdp/internal/fl"
)

// processStart anchors setup_s: package variables initialise before main, so
// this is as close to "child start" as the process itself can observe.
var processStart = time.Now()

// signature is what must repeat across deployments of one seeded workload.
type signature struct {
	digest    uint64 // FNV-64a of the final model's parameter bits
	eps       []float64
	folded    []int
	committed []bool
	wire      []int64
}

// cohortSizes returns |cohort| per round, drawn exactly as the runtimes draw
// it. It is a pure function of the seeded config, so it is computed once.
func (w *workload) cohortSizes() ([]int, error) {
	plan, err := w.boundPlan()
	if err != nil {
		return nil, err
	}
	pop := population(w.Cfg.K, plan)
	sizes := make([]int, w.Cfg.Rounds)
	for r := range sizes {
		sizes[r] = len(fl.ActiveCohort(w.Cfg.Seed, r, pop, w.Cfg.Kt, w.Cfg.Sampler, false))
	}
	return sizes, nil
}

// checkDeployment verifies the invariants of one finished deployment and
// returns its signature. The checks are invariants, not goldens, so they
// hold on any seed.
func (w *workload) checkDeployment(res *core.Result, cohort []int) (signature, error) {
	var sig signature
	cfg := res.Cfg
	if len(res.Rounds) != cfg.Rounds {
		return sig, fmt.Errorf("%d rounds returned, want %d", len(res.Rounds), cfg.Rounds)
	}
	if cfg.Method != core.MethodFedCDP && cfg.Method != core.MethodFedCDPDecay {
		return sig, fmt.Errorf("method %q: the epsilon check knows Fed-CDP accounting only", cfg.Method)
	}
	q := math.Min(1, accountant.Params{TotalData: res.Spec.TrainN, PerRoundKt: cfg.Kt, BatchSize: cfg.BatchSize}.FedCDPSamplingRate())
	sigma := cfg.Sigma
	if cfg.AccountantSigma > 0 {
		sigma = cfg.AccountantSigma
	}
	openWorld := res.Ledger != nil
	committed := 0
	prevEps := 0.0
	for i, rs := range res.Rounds {
		if rs.Clients+rs.Dropped != cohort[i] {
			return sig, fmt.Errorf("round %d: clients %d + dropped %d != cohort %d", i, rs.Clients, rs.Dropped, cohort[i])
		}
		if rs.Active < cohort[i] {
			return sig, fmt.Errorf("round %d: active %d below cohort %d", i, rs.Active, cohort[i])
		}
		if rs.Epsilon < prevEps {
			return sig, fmt.Errorf("round %d: epsilon fell from %v to %v", i, prevEps, rs.Epsilon)
		}
		if !rs.Committed && rs.Epsilon != prevEps {
			return sig, fmt.Errorf("round %d: uncommitted round charged epsilon (%v → %v)", i, prevEps, rs.Epsilon)
		}
		if rs.Committed {
			committed++
		}
		if !openWorld {
			want := 0.0
			if committed > 0 {
				want, _ = accountant.Epsilon(q, sigma, cfg.LocalIters*committed, cfg.Delta, nil)
			}
			if math.Abs(rs.Epsilon-want) > 1e-9*math.Max(1, math.Abs(want)) {
				return sig, fmt.Errorf("round %d: epsilon %v, accountant says %v after %d committed rounds", i, rs.Epsilon, want, committed)
			}
		}
		prevEps = rs.Epsilon
		sig.eps = append(sig.eps, rs.Epsilon)
		sig.folded = append(sig.folded, rs.Clients)
		sig.committed = append(sig.committed, rs.Committed)
		sig.wire = append(sig.wire, rs.WireBytes)
	}
	if w.Cfg.Population != "" {
		if !openWorld {
			return sig, fmt.Errorf("population plan set but Result.Ledger is nil")
		}
		if eps, _, _ := res.Ledger.MaxEpsilon(); eps != prevEps {
			return sig, fmt.Errorf("ledger max epsilon %v != last round's %v", eps, prevEps)
		}
	}
	acc, ok := res.FinalAccuracy()
	if !ok {
		return sig, fmt.Errorf("no round was evaluated")
	}
	if acc < w.AccuracyFloor {
		return sig, fmt.Errorf("final accuracy %.4f below the %.2f floor", acc, w.AccuracyFloor)
	}
	h := fnv.New64a()
	var b [8]byte
	for _, p := range res.Final.Params() {
		for _, v := range p.Data() {
			bits := math.Float64bits(v)
			for i := range b {
				b[i] = byte(bits >> (8 * i))
			}
			h.Write(b[:])
		}
	}
	sig.digest = h.Sum64()
	return sig, nil
}

// sameAs compares two deployments' signatures under the workload's
// repeatability contract.
func (w *workload) sameAs(a, b signature) error {
	for i := range a.eps {
		if a.eps[i] != b.eps[i] || a.folded[i] != b.folded[i] || a.committed[i] != b.committed[i] {
			return fmt.Errorf("round %d differs across repeats: eps %v/%v folded %d/%d committed %v/%v",
				i, a.eps[i], b.eps[i], a.folded[i], b.folded[i], a.committed[i], b.committed[i])
		}
		if w.BitIdentical && a.wire[i] != b.wire[i] {
			return fmt.Errorf("round %d: wire bytes differ across repeats: %d vs %d", i, a.wire[i], b.wire[i])
		}
	}
	if w.BitIdentical && a.digest != b.digest {
		return fmt.Errorf("final model digest differs across repeats: %016x vs %016x", a.digest, b.digest)
	}
	return nil
}

// meter is a reading of the process counters the per-round costs come from.
type meter struct {
	at      time.Time
	cpu     time.Duration
	alloc   uint64
	mallocs uint64
}

func readMeter() meter {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF with a valid pointer
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return meter{at: time.Now(), cpu: cpu, alloc: ms.TotalAlloc, mallocs: ms.Mallocs}
}

// resetPeakRSS restarts the kernel's high-water mark of this process's
// resident set, so that the next reading is the peak of what ran in between.
// One excursion of the garbage collector's pacing in a dozen deployments
// otherwise sets the whole run's figure.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the process's high-water resident set from /proc.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// e2eRun is what one measuring child reports.
type e2eRun struct {
	Workload    string            `json:"workload"`
	Correct     bool              `json:"correct"`
	CheckError  string            `json:"check_error,omitempty"`
	Attempted   int               `json:"attempted"` // deployment calls, cold one included
	Failed      int               `json:"failed"`    // deployments that errored or broke a check
	CohortSlots int               `json:"cohort_slots"`
	Dropped     int               `json:"dropped"`
	DroppedKeys []string          `json:"dropped_keys"`
	Metrics     map[string]metric `json:"metrics"`
}

// measureE2E runs the workload's closed loop in this process: one cold
// deployment (set-up), then timed deployments, one at a time, until the
// window is over. minN keeps a median meaningful on a slow machine.
func measureE2E(name string, seed int64, window time.Duration, minN, roundsDiv int) (*e2eRun, *workload, error) {
	w, err := loadWorkload(name, seed, roundsDiv)
	if err != nil {
		return nil, nil, err
	}
	run := &e2eRun{Workload: name, DroppedKeys: w.DroppedKeys, Metrics: map[string]metric{}}
	fail := func(err error) (*e2eRun, *workload, error) {
		run.Failed++
		run.CheckError = err.Error()
		return run, w, nil
	}

	run.Attempted++
	cold, err := w.deploy()
	if err != nil {
		return fail(fmt.Errorf("cold deployment: %w", err))
	}
	setup := time.Since(processStart)
	cohort, err := w.cohortSizes()
	if err != nil {
		return nil, nil, err
	}
	first, err := w.checkDeployment(cold, cohort)
	if err != nil {
		return fail(fmt.Errorf("cold deployment: %w", err))
	}

	rounds := float64(w.Cfg.Rounds)
	perExample := float64(cold.Cfg.LocalIters * cold.Cfg.BatchSize)
	var roundMs, cpuMs, allocMB, allocs, wireB, rssMB []float64
	var wall time.Duration
	var examples float64
	var last *core.Result
	for start := time.Now(); len(roundMs) < minN || time.Since(start) < window; {
		run.Attempted++
		perDeployment := resetPeakRSS() == nil
		before := readMeter()
		res, err := w.deploy()
		after := readMeter()
		if err != nil {
			return fail(fmt.Errorf("deployment %d: %w", len(roundMs), err))
		}
		if rss, err := peakRSSMB(); perDeployment && err == nil {
			rssMB = append(rssMB, rss)
		}
		sig, err := w.checkDeployment(res, cohort)
		if err == nil {
			err = w.sameAs(first, sig)
		}
		if err != nil {
			return fail(fmt.Errorf("deployment %d: %w", len(roundMs), err))
		}
		d := after.at.Sub(before.at)
		wall += d
		roundMs = append(roundMs, d.Seconds()*1e3/rounds)
		cpuMs = append(cpuMs, (after.cpu-before.cpu).Seconds()*1e3/rounds)
		allocMB = append(allocMB, float64(after.alloc-before.alloc)/(1<<20)/rounds)
		allocs = append(allocs, float64(after.mallocs-before.mallocs)/rounds)
		var bytes int64
		for i, rs := range res.Rounds {
			examples += float64(rs.Clients) * perExample
			run.CohortSlots += cohort[i]
			run.Dropped += rs.Dropped
			bytes += rs.WireBytes
		}
		wireB = append(wireB, float64(bytes)/rounds)
		last = res
	}

	// Where the kernel lets the mark be reset, peak RSS is the median of the
	// deployments' own peaks; elsewhere it is the process's single mark.
	rss := summarize(rssMB, "MB")
	if len(rssMB) != len(roundMs) {
		whole, err := peakRSSMB()
		if err != nil {
			return nil, nil, err
		}
		rss = metric{Value: whole, Unit: "MB"}
	}
	acc, _ := last.FinalAccuracy()
	failedShare := float64(run.Dropped) / float64(run.CohortSlots)
	run.Metrics["setup_s"] = metric{Value: setup.Seconds(), Unit: "s"}
	run.Metrics["round_ms_p50"] = summarize(roundMs, "ms")
	run.Metrics["examples_per_s"] = metric{Value: examples / wall.Seconds(), Unit: "1/s"}
	run.Metrics["cpu_ms_per_round"] = summarize(cpuMs, "ms")
	run.Metrics["alloc_mb_per_round"] = summarize(allocMB, "MB")
	run.Metrics["allocs_per_round"] = summarize(allocs, "count")
	run.Metrics["peak_rss_mb"] = rss
	run.Metrics["final_accuracy"] = metric{Value: acc, Unit: "fraction"}
	run.Metrics["folded_share"] = metric{Value: 1 - failedShare, Unit: "fraction"}
	run.Metrics["wire_bytes_per_round"] = summarize(wireB, "B")
	run.Metrics["failed_share"] = metric{Value: failedShare, Unit: "fraction"}
	run.Correct = true
	return run, w, nil
}
