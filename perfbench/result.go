package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"

	"repro/internal/experiments"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// perLayer is the per-layer metric set every traced run reports, in
// BENCHMARK.json order. A metric of a layer the workload does not reach reads
// 0; README.md maps each metric to the workload whose traced run measures it.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"experiments.plan_s", "s"},
		{"experiments.execute_s", "s"},
		{"experiments.replay_s", "s"},
		{"experiments.tasks", "count"},
		{"experiments.pool_util", "ratio"},
		{"experiments.verdicts_failed", "count"},
	}
	for _, e := range experiments.All() {
		defs = append(defs, metricDef{"experiments.exec_s." + e.ID, "s"})
	}
	return append(defs, []metricDef{
		{"graph.build_s", "s"},
		{"graph.decomposition_s", "s"},
		{"graph.cluster_order_s", "s"},
		{"graph.sparse_masks_s", "s"},
		{"graph.edges_gprime", "count"},
		{"graph.mask_entries", "count"},
		{"graph.mask_bytes", "bytes"},
		{"radio.trial_s", "s"},
		{"radio.rounds", "count"},
		{"radio.transmissions", "count"},
		{"radio.deliveries_per_tx", "ratio"},
		{"radio.ns_per_node_round", "ns"},
		{"shard.write_s", "s"},
		{"shard.read_s", "s"},
		{"shard.merge_s", "s"},
		{"shard.artifact_bytes", "bytes"},
		{"report.render_s", "s"},
		{"runsvc.cache_get_ms", "ms"},
		{"runsvc.cache_put_ms", "ms"},
		{"runsvc.cache_entries", "count"},
		{"runsvc.cache_bytes", "bytes"},
		{"runsvc.cache_hit_ratio", "ratio"},
		{"runsvc.dedupe_ratio", "ratio"},
		{"runsvc.executed_tasks", "count"},
		{"runsvc.duplicate_exec_frac", "ratio"},
		{"http.submit_ms.warm", "ms"},
		{"http.submit_ms.cold", "ms"},
		{"http.wait_ms.warm", "ms"},
		{"http.wait_ms.cold", "ms"},
		{"http.result_ms.warm", "ms"},
		{"http.result_ms.cold", "ms"},
		{"dgserved.runs_held", "count"},
		{"trace_overhead_frac", "ratio"},
	}...)
}()

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's report: the metrics of the JSON line, plus printed
// extras, notes and failed checks.
type result struct {
	workload          string
	traced            bool
	attempted, failed int
	metrics           map[string]metricValue
	order             []string
	extras            []string
	info              []string
	problems          []string
}

func newResult(workload string, traced bool) result {
	return result{workload: workload, traced: traced, metrics: map[string]metricValue{}}
}

func (r *result) add(name string, v float64, unit string) {
	r.metrics[name] = metricValue{v, unit}
	r.order = append(r.order, name)
}

// extra records a printed metric outside the JSON line.
func (r *result) extra(name string, v float64, unit string) {
	r.extras = append(r.extras, fmt.Sprintf("%-28s %14.6g %s", name, v, unit))
}

// print writes the human-readable report and, last, the JSON line.
func (r result) print(w io.Writer) {
	mode := "end-to-end (tracing off)"
	if r.traced {
		mode = "per-layer (traced)"
	}
	fmt.Fprintf(w, "perfbench %s: %s\n", r.workload, mode)
	for _, name := range r.order {
		m := r.metrics[name]
		fmt.Fprintf(w, "  %-36s %14.6g %s\n", name, m.Value, m.Unit)
	}
	failedFrac := 0.0
	if r.attempted > 0 {
		failedFrac = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "  %-36s %14.6g %s\n", "failed_frac", failedFrac, "ratio")
	for _, e := range r.extras {
		fmt.Fprintf(w, "  %s\n", e)
	}
	for _, s := range r.info {
		fmt.Fprintf(w, "  note: %s\n", s)
	}
	for _, p := range r.problems {
		fmt.Fprintf(w, "  CHECK FAILED: %s\n", p)
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.failed == 0 && len(r.problems) == 0 && r.attempted > 0, r.attempted, r.failed, r.metrics})
	if err != nil {
		fatalf("encoding result: %v", err)
	}
	fmt.Fprintf(w, "%s\n", line)
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// childPass runs one pass in a fresh child process (this binary with -pass)
// and decodes the report it prints.
func childPass(o opts, setupOnly, verify bool) (*passReport, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if o.trace {
		trace = "1"
	}
	args := []string{"-pass", o.workload, "-seed", strconv.FormatUint(o.seed, 10), "-index", strconv.Itoa(o.index), "-trace", trace, "-out", o.out}
	if setupOnly {
		args = append(args, "-setup-only")
	}
	if verify {
		args = append(args, "-verify")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("child pass: %w", err)
	}
	rep := &passReport{}
	if err := json.Unmarshal(out, rep); err != nil {
		return nil, fmt.Errorf("child pass report: %w", err)
	}
	return rep, nil
}
