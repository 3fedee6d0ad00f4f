// Command perfbench is the repository's benchmark: three seed-driven
// workloads that together reach every layer of the stack, each measured end
// to end with tracing off, and layer by layer in a separate traced run.
//
//	perfbench -workload registry-quick -seed 0 -seconds 30 -trace 0
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end set; with -trace 1 they are
// the per-layer set, and the run's spans (and, for registry-quick, a CPU
// profile) are written under -out. README.md documents the workloads, the
// metrics and how to read a traced run. run.sh builds this binary and
// dgserved from the surrounding checkout and invokes it.
//
// A workload's unit of measurement is a pass: one set-up followed by a fixed
// amount of work. registry-quick and scale-sparse run each pass in a fresh
// child process (this binary with -pass), so every pass pays its own set-up
// and its peak RSS belongs to that pass alone; served-mixed starts a fresh
// dgserved daemon per pass. A run repeats passes until -seconds of measured
// time have elapsed, tops set-up samples up with set-up-only passes, and
// reports medians. registry-quick repeats the same work in every pass;
// scale-sparse and served-mixed give pass k its own block of seed-generated
// inputs, so a run's median spans more of the seed's inputs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// workload is one benchmark input family. With opts.trace set, its pass
// records spans, runs the layer probes and fills passReport.Layer.
type workload struct {
	name string
	// pass runs one pass. setupOnly stops after set-up; verify runs the
	// output checks that are made once per run, outside the timed window.
	pass func(o opts, setupOnly, verify bool) (*passReport, error)
	// inChild runs passes in a fresh child process.
	inChild bool
	// blocks means each pass runs its own block of seed-generated inputs,
	// chosen by the pass index; otherwise every pass repeats the same work.
	blocks bool
	// setups is how many set-up samples a run takes at least: passes that
	// do not reach it are topped up with set-up-only passes. Cheap set-ups
	// take more, for a steadier median.
	setups int
}

var workloads = []workload{
	{name: "registry-quick", pass: registryPass, inChild: true, setups: 5},
	{name: "scale-sparse", pass: scalePass, inChild: true, blocks: true, setups: 9},
	{name: "served-mixed", pass: servedPass, blocks: true, setups: 15},
}

// opts are the command-line settings every pass sees.
type opts struct {
	workload string
	seed     uint64
	seconds  int
	index    int // the pass's index in its run
	trace    bool
	out      string // directory for spans, profiles and scratch files
	dgserved string // dgserved binary (served-mixed)
}

// passReport is one pass's measurements. Child processes print it as JSON.
type passReport struct {
	SetupS    float64 `json:"setupS"`
	WallS     float64 `json:"wallS"`
	CPUS      float64 `json:"cpuS"`
	PeakRSSMB float64 `json:"peakRssMB"`
	// Attempted and Failed count operations: tasks, trials or requests.
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
	// Tasks counts simulation tasks completed or served in the pass.
	Tasks int `json:"tasks"`
	// LatMS holds one submit-to-result latency per operation.
	LatMS []float64 `json:"latMS"`
	// Extra holds workload-specific end-to-end figures that are printed but
	// not part of the bounded set.
	Extra map[string]metricValue `json:"extra,omitempty"`
	// Digest identifies the pass's outputs, for the traced/untraced check.
	Digest string `json:"digest"`
	// Problems lists failed output checks.
	Problems []string `json:"problems,omitempty"`
	// Layer holds per-layer metrics (traced passes only).
	Layer map[string]float64 `json:"layer,omitempty"`
}

func (r *passReport) problem(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

func main() {
	var o opts
	var traceFlag int
	var passFlag string
	var setupOnly, verify bool
	flag.StringVar(&o.workload, "workload", "", "workload: registry-quick, scale-sparse or served-mixed")
	flag.Uint64Var(&o.seed, "seed", 0, "workload seed; the same seed gives the same inputs")
	flag.IntVar(&o.seconds, "seconds", 30, "measured time per run, in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced pass and reports per-layer metrics")
	flag.StringVar(&o.out, "out", ".bench_build/perfbench-out", "directory for spans, profiles and scratch files")
	flag.StringVar(&o.dgserved, "dgserved", "", "dgserved binary (served-mixed)")
	flag.StringVar(&passFlag, "pass", "", "internal: run one pass of this workload and print its report")
	flag.BoolVar(&setupOnly, "setup-only", false, "internal: stop the pass after set-up")
	flag.BoolVar(&verify, "verify", false, "internal: run the once-per-run output checks after the pass")
	flag.IntVar(&o.index, "index", 0, "internal: the pass's index in its run")
	flag.Parse()
	o.trace = traceFlag == 1

	if passFlag != "" {
		o.workload = passFlag
		w, ok := lookup(passFlag)
		if !ok {
			fatalf("unknown workload %q", passFlag)
		}
		rep, err := w.pass(o, setupOnly, verify)
		if err != nil {
			fatalf("%s pass: %v", passFlag, err)
		}
		if err := json.NewEncoder(os.Stdout).Encode(rep); err != nil {
			fatalf("writing pass report: %v", err)
		}
		return
	}

	w, ok := lookup(o.workload)
	if !ok {
		fatalf("unknown workload %q", o.workload)
	}
	if o.seconds < 1 || (traceFlag != 0 && traceFlag != 1) {
		fatalf("need -seconds >= 1 and -trace 0 or 1")
	}
	abs, err := filepath.Abs(o.out)
	if err != nil {
		fatalf("%v", err)
	}
	o.out = filepath.Join(abs, fmt.Sprintf("%s-seed%d-trace%d", o.workload, o.seed, traceFlag))
	if err := os.RemoveAll(o.out); err != nil {
		fatalf("%v", err)
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		fatalf("%v", err)
	}

	var res result
	if o.trace {
		res, err = tracedRun(w, o)
	} else {
		res, err = measuredRun(w, o)
	}
	if err != nil {
		fatalf("%s: %v", o.workload, err)
	}
	res.print(os.Stdout)
}

func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

// runPass runs pass index of w, in a child process when the workload asks
// for one.
func runPass(w workload, o opts, index int, setupOnly, verify bool) (*passReport, error) {
	o.index = index
	if !w.inChild {
		return w.pass(o, setupOnly, verify)
	}
	return childPass(o, setupOnly, verify)
}

// measuredRun is the untraced run: passes until o.seconds of measured time,
// then set-up-only passes up to w.setups set-up samples.
func measuredRun(w workload, o opts) (result, error) {
	var passes []*passReport
	measured := 0.0
	for len(passes) == 0 || measured < float64(o.seconds) {
		rep, err := runPass(w, o, len(passes), false, len(passes) == 0)
		if err != nil {
			return result{}, err
		}
		passes = append(passes, rep)
		measured += rep.SetupS + rep.WallS
	}
	setups := make([]float64, 0, w.setups)
	for _, p := range passes {
		setups = append(setups, p.SetupS)
	}
	for len(setups) < w.setups {
		rep, err := runPass(w, o, 0, true, false)
		if err != nil {
			return result{}, err
		}
		setups = append(setups, rep.SetupS)
	}

	res := newResult(o.workload, false)
	var walls, cpus, rss, tput, p50s, lat []float64
	extras := map[string][]float64{}
	units := map[string]string{}
	for i, p := range passes {
		res.attempted += p.Attempted
		res.failed += p.Failed
		res.problems = append(res.problems, p.Problems...)
		if i > 0 && !w.blocks && p.Digest != passes[0].Digest {
			res.failed++
			res.problems = append(res.problems, fmt.Sprintf("pass %d output differs from pass 0 at the same seed", i))
		}
		walls = append(walls, p.WallS)
		cpus = append(cpus, p.CPUS)
		rss = append(rss, p.PeakRSSMB)
		tput = append(tput, float64(p.Tasks)/p.WallS)
		p50s = append(p50s, median(p.LatMS))
		lat = append(lat, p.LatMS...)
		for k, m := range p.Extra {
			extras[k] = append(extras[k], m.Value)
			units[k] = m.Unit
		}
	}
	res.add("setup_s", median(setups), "s")
	res.add("wall_s", median(walls), "s")
	res.add("cpu_s", median(cpus), "s")
	res.add("peak_rss_mb", median(rss), "MB")
	res.add("tasks_per_s", median(tput), "1/s")
	// The median over passes of each pass's p50: a pass the host slowed
	// down moves it less than it moves a p50 pooled over passes.
	res.add("result_p50_ms", median(p50s), "ms")
	// Too few samples lie beyond p95 on registry-quick and scale-sparse for
	// a stable bound, so it is printed only.
	res.extra("result_p95_ms", quantile(lat, 0.95), "ms")
	res.info = append(res.info, fmt.Sprintf("%d passes, %d set-up samples, %d latency samples", len(passes), len(setups), len(lat)))
	keys := make([]string, 0, len(extras))
	for k := range extras {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		res.extra(k, median(extras[k]), units[k])
	}
	return res, nil
}

// tracedRun runs one untraced pass and one traced pass (with the layer
// probes), checks that their outputs are byte-identical, and reports the
// per-layer metrics.
func tracedRun(w workload, o opts) (result, error) {
	plain := o
	plain.trace = false
	base, err := runPass(w, plain, 0, false, false)
	if err != nil {
		return result{}, err
	}
	tr, err := runPass(w, o, 0, false, true)
	if err != nil {
		return result{}, err
	}
	res := newResult(o.workload, true)
	for _, p := range []*passReport{base, tr} {
		res.attempted += p.Attempted
		res.failed += p.Failed
		res.problems = append(res.problems, p.Problems...)
	}
	if tr.Digest != base.Digest {
		res.failed++
		res.problems = append(res.problems, "traced outputs differ from untraced outputs")
	}
	layer := map[string]float64{}
	for k, v := range tr.Layer {
		layer[k] = v
	}
	layer["trace_overhead_frac"] = (tr.SetupS+tr.WallS)/(base.SetupS+base.WallS) - 1
	for _, m := range perLayer {
		v, ok := layer[m.name]
		if !ok {
			res.info = append(res.info, fmt.Sprintf("%s: not on %s's path (0)", m.name, o.workload))
		}
		res.add(m.name, v, m.unit)
	}
	res.info = append(res.info, "spans and profiles in "+o.out)
	return res, nil
}

// timer returns the seconds elapsed since it was made.
func timer() func() float64 {
	t0 := time.Now()
	return func() float64 { return time.Since(t0).Seconds() }
}
