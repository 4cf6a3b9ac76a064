package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
)

// setupSamples is how many cold starts setup_s is the median of: the
// measuring child's own, plus set-up-only children.
const setupSamples = 3

// runSeconds is BENCHMARK.json's run_seconds and the default timed window.
const runSeconds = 22

// workloadResult is one workload's merged result, as the table prints it and
// a result set stores it.
type workloadResult struct {
	Workload    string            `json:"workload"`
	Correct     bool              `json:"correct"`
	CheckError  string            `json:"check_error,omitempty"`
	Attempted   int               `json:"attempted"`
	Failed      int               `json:"failed"`
	CohortSlots int               `json:"cohort_slots,omitempty"`
	Dropped     int               `json:"dropped,omitempty"`
	DroppedKeys []string          `json:"dropped_keys"`
	SpanFile    string            `json:"span_file,omitempty"`
	ProfileFile string            `json:"profile_file,omitempty"`
	Metrics     map[string]metric `json:"metrics"`
}

// resultSet is the file -o writes and -compare reads.
type resultSet struct {
	GoVersion  string           `json:"go_version"`
	NumCPU     int              `json:"nproc"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	Seed       int64            `json:"seed"`
	Seconds    float64          `json:"seconds"`
	Trace      bool             `json:"trace"`
	Workloads  []workloadResult `json:"workloads"`
}

// spawn re-executes this binary as a child with one role and decodes the
// JSON document it prints. The child has ended when spawn returns.
func spawn(role, name string, seed int64, seconds float64, into any) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.Command(self, "-child", role, "-workload", name,
		"-seed", strconv.FormatInt(seed, 10), "-seconds", strconv.FormatFloat(seconds, 'g', -1, 64))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("%s child for %s: %w", role, name, err)
	}
	if err := json.Unmarshal(out, into); err != nil {
		return fmt.Errorf("%s child for %s: %w", role, name, err)
	}
	return nil
}

// runWorkload measures one workload in child processes of its own.
func runWorkload(name string, seed int64, seconds float64, trace bool) (*workloadResult, error) {
	if _, err := workloadDefFor(name); err != nil {
		return nil, err
	}
	if trace {
		var run traceRun
		if err := spawn("trace", name, seed, seconds, &run); err != nil {
			return nil, err
		}
		return &workloadResult{Workload: name, Correct: run.Correct, CheckError: run.CheckError, Attempted: run.Attempted,
			Failed: run.Failed, SpanFile: run.SpanFile, ProfileFile: run.ProfileFile, Metrics: run.Metrics}, nil
	}
	var run e2eRun
	if err := spawn("measure", name, seed, seconds, &run); err != nil {
		return nil, err
	}
	res := &workloadResult{Workload: name, Correct: run.Correct, CheckError: run.CheckError, Attempted: run.Attempted, Failed: run.Failed,
		CohortSlots: run.CohortSlots, Dropped: run.Dropped, DroppedKeys: run.DroppedKeys, Metrics: run.Metrics}
	if !run.Correct {
		return res, nil
	}
	setups := []float64{run.Metrics["setup_s"].Value}
	for len(setups) < setupSamples {
		var s struct {
			SetupS float64 `json:"setup_s"`
		}
		if err := spawn("setup", name, seed, 0, &s); err != nil {
			return nil, err
		}
		setups = append(setups, s.SetupS)
	}
	res.Metrics["setup_s"] = summarize(setups, "s")
	return res, nil
}

// contractLine is the last line of standard output the driver reads.
type contractLine struct {
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Metrics   map[string]contractValue `json:"metrics"`
}

type contractValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func defsFor(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}

// runOne runs one workload and ends standard output with the contract's
// one-line JSON result.
func runOne(name string, seed int64, seconds float64, trace bool) error {
	res, err := runWorkload(name, seed, seconds, trace)
	if err != nil {
		return err
	}
	printTable(os.Stdout, res, trace)
	line := contractLine{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]contractValue{}}
	for _, d := range defsFor(trace) {
		if m, ok := res.Metrics[d.Name]; ok {
			line.Metrics[d.Name] = contractValue{m.Value, m.Unit}
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	if !res.Correct {
		return fmt.Errorf("%s: %s", name, res.CheckError)
	}
	return nil
}

// runAll runs every workload, one child process each, prints the tables and
// optionally writes the result set.
func runAll(seed int64, seconds float64, trace bool, out string) error {
	set := resultSet{GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Seed: seed, Seconds: seconds, Trace: trace}
	var bad []string
	for _, d := range workloadDefs {
		res, err := runWorkload(d.Name, seed, seconds, trace)
		if err != nil {
			return err
		}
		printTable(os.Stdout, res, trace)
		if !res.Correct {
			bad = append(bad, d.Name+": "+res.CheckError)
		}
		set.Workloads = append(set.Workloads, *res)
	}
	if out != "" {
		b, err := json.MarshalIndent(set, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("failed checks: %v", bad)
	}
	return nil
}

func printTable(w io.Writer, res *workloadResult, trace bool) {
	fmt.Fprintf(w, "== %s  correct=%v  deployments attempted=%d failed=%d", res.Workload, res.Correct, res.Attempted, res.Failed)
	if res.CohortSlots > 0 {
		fmt.Fprintf(w, "  cohort slots=%d dropped=%d", res.CohortSlots, res.Dropped)
	}
	if len(res.DroppedKeys) > 0 {
		fmt.Fprintf(w, "  dropped_keys=%v", res.DroppedKeys)
	}
	fmt.Fprintln(w)
	if res.CheckError != "" {
		fmt.Fprintf(w, "   check failed: %s\n", res.CheckError)
	}
	var names []string
	for _, d := range defsFor(trace) {
		names = append(names, d.Name)
	}
	if !trace { // the issue's two exact counts ride along in the table
		names = append(names, "wire_bytes_per_round", "failed_share")
	}
	for _, n := range names {
		m, ok := res.Metrics[n]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "   %-42s %16.6g %-8s", n, m.Value, m.Unit)
		if m.N > 0 {
			fmt.Fprintf(w, " q1=%.6g q3=%.6g min=%.6g max=%.6g n=%d", m.Q1, m.Q3, m.Min, m.Max, m.N)
		}
		fmt.Fprintln(w)
	}
	if res.SpanFile != "" {
		fmt.Fprintf(w, "   spans: %s   profile: %s\n", res.SpanFile, res.ProfileFile)
	}
}

// benchmarkSpec is BENCHMARK.json.
type benchmarkSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []specWorkload `json:"workloads"`
	EndToEnd   []specMetric   `json:"end_to_end"`
	PerLayer   []specMetric   `json:"per_layer"`
}

type specWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func currentSpec() benchmarkSpec {
	spec := benchmarkSpec{Command: []string{"bash", "benchmark/run.sh"}, Paths: []string{"benchmark"}, RunSeconds: runSeconds}
	for _, d := range workloadDefs {
		spec.Workloads = append(spec.Workloads, specWorkload{d.Name, d.Why})
	}
	for _, d := range endToEnd {
		bound := d.Bound
		spec.EndToEnd = append(spec.EndToEnd, specMetric{d.Name, d.Unit, d.Better, &bound})
	}
	for _, d := range perLayer {
		spec.PerLayer = append(spec.PerLayer, specMetric{Name: d.Name, Unit: d.Unit, Better: d.Better})
	}
	return spec
}

// printSpec writes BENCHMARK.json as the code defines it; the smoke test
// holds the checked-in file to it.
func printSpec(w io.Writer) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(currentSpec()); err != nil {
		return err
	}
	_, err := w.Write(buf.Bytes())
	return err
}
