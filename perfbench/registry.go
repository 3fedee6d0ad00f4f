package main

// registry-quick: the whole quick registry through an in-process
// runsvc.Service with no cache — the `dgbench -all` path researchers run.

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"slices"

	"repro/internal/experiments"
	"repro/internal/report"
	"repro/internal/runsvc"
	"repro/internal/shard"
)

// registryWorkers is the scheduler's worker count: one per core of the
// two-core machine the benchmark was sized on.
const registryWorkers = 2

// tracedRunner wraps the engine runner with a span around each lifecycle
// phase the service drives, and keeps the executed artifact for the replay
// probes. With a nil tracer it only delegates.
type tracedRunner struct {
	tr         *tracer
	planParent int // span the synchronous Plan call nests under (Submit)
	root       int // span the asynchronous phases nest under (the pass)
	art        *shard.Artifact
}

func (r *tracedRunner) Plan(cfg experiments.Config, exps []experiments.Experiment) ([]shard.ExperimentPlan, error) {
	id := r.tr.begin("experiments.PlanTasks", r.planParent)
	defer r.tr.end(id)
	return runsvc.EngineRunner{}.Plan(cfg, exps)
}

func (r *tracedRunner) Execute(cfg experiments.Config, exps []experiments.Experiment, index, count int) (*shard.Artifact, error) {
	id := r.tr.begin("experiments.ExecuteShard", r.root)
	defer r.tr.end(id)
	art, err := runsvc.EngineRunner{}.Execute(cfg, exps, index, count)
	r.art = art
	return art, err
}

func (r *tracedRunner) Merge(cfg experiments.Config, exps []experiments.Experiment, m *shard.Merged) ([]*experiments.Result, []error) {
	id := r.tr.begin("experiments.RunMerged", r.root)
	defer r.tr.end(id)
	return runsvc.EngineRunner{}.Merge(cfg, exps, m)
}

func registryPass(o opts, setupOnly, _ bool) (*passReport, error) {
	var tr *tracer
	if o.trace {
		tr = newTracer()
		f, err := os.Create(filepath.Join(o.out, "cpu.pprof"))
		if err != nil {
			return nil, err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return nil, err
		}
	}
	runner := &tracedRunner{tr: tr}
	svc, err := runsvc.New(runsvc.Options{Runner: runner})
	if err != nil {
		return nil, err
	}
	spec := runsvc.Spec{Seed: o.seed, Workers: registryWorkers}
	rep := &passReport{}

	runner.root = tr.begin("registry.pass", 0)
	elapsed := timer()
	submit := tr.begin("runsvc.Service.Submit", runner.root)
	runner.planParent = submit
	run, _, err := svc.Submit(spec)
	tr.end(submit)
	if err != nil {
		return nil, err
	}
	rep.SetupS = elapsed()
	if setupOnly {
		// The run keeps executing on the service's goroutine; the child
		// process exits with it.
		return rep, nil
	}
	cpu0 := selfCPU()
	<-run.Done()
	results, runErr := run.Results()
	var md bytes.Buffer
	render := tr.begin("report.Render", runner.root)
	// Render's error restates deviating verdicts: a finding, not a failure.
	_ = report.Render(&md, results, report.Options{Markdown: true})
	renderS := tr.end(render)
	rep.WallS = elapsed() - rep.SetupS
	rep.CPUS = selfCPU() - cpu0
	tr.end(runner.root)
	if o.trace {
		pprof.StopCPUProfile()
	}
	if rep.PeakRSSMB, err = peakRSSMB(0); err != nil {
		return nil, err
	}
	rep.LatMS = []float64{(rep.SetupS + rep.WallS) * 1000}
	rep.Digest = digest(md.Bytes())

	// Output checks: every planned task executed, none failed, and every
	// experiment produced a non-empty table.
	st := run.Status()
	planned := 0
	for _, e := range st.Experiments {
		planned += e.Tasks
		if e.Error != "" || len(e.FailedTasks) > 0 {
			rep.Failed += max(len(e.FailedTasks), 1)
			rep.problem("%s: %s (failed tasks %v)", e.ID, e.Error, e.FailedTasks)
		}
	}
	rep.Attempted = planned
	rep.Tasks = st.ExecutedTasks
	if st.ExecutedTasks != planned {
		rep.Failed += max(planned-st.ExecutedTasks, st.ExecutedTasks-planned)
		rep.problem("executed %d tasks, plan has %d", st.ExecutedTasks, planned)
	}
	if runErr != nil {
		rep.problem("run failed: %v", runErr)
		if rep.Failed == 0 {
			rep.Failed = planned
		}
	}
	if len(results) != len(st.Experiments) || len(results) == 0 {
		rep.problem("%d results for %d planned experiments", len(results), len(st.Experiments))
	}
	verdictsFailed := 0
	for i, res := range results {
		if res == nil || res.Table == nil || res.Table.NumRows() == 0 {
			rep.Failed += st.Experiments[i].Tasks
			rep.problem("%s produced an empty table", st.Experiments[i].ID)
			continue
		}
		if !res.Pass {
			verdictsFailed++
		}
	}
	if !o.trace {
		return rep, nil
	}

	workers := float64(registryWorkers)
	rep.Layer = map[string]float64{
		"experiments.plan_s":          tr.sum("experiments.PlanTasks"),
		"experiments.execute_s":       tr.sum("experiments.ExecuteShard"),
		"experiments.replay_s":        tr.sum("experiments.RunMerged"),
		"experiments.tasks":           float64(planned),
		"experiments.pool_util":       rep.CPUS / (rep.WallS * workers),
		"experiments.verdicts_failed": float64(verdictsFailed),
		"report.render_s":             renderS,
		"runsvc.executed_tasks":       float64(st.ExecutedTasks),
	}
	cfg := experiments.Config{Quick: true, BaseSeed: o.seed, Workers: registryWorkers}
	if runner.art == nil {
		rep.problem("the service executed no artifact")
	} else if err := registryReplay(tr, o, cfg, runner.art, md.Bytes(), rep); err != nil {
		return nil, err
	}
	if err := registryExecEach(tr, cfg, rep); err != nil {
		return nil, err
	}
	return rep, tr.write(o.out)
}

// registryReplay times the shard codec, the merge replay and the cache on
// the pass's artifact, and checks that Write → Read → Merge → RunMerged
// renders byte-identical markdown.
func registryReplay(tr *tracer, o opts, cfg experiments.Config, art *shard.Artifact, want []byte, rep *passReport) error {
	root := tr.begin("probe.replay", 0)
	defer tr.end(root)
	path := filepath.Join(o.out, "registry.shard.json")
	id := tr.begin("shard.Write", root)
	if err := shard.Write(path, art); err != nil {
		return err
	}
	rep.Layer["shard.write_s"] = tr.end(id)
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	rep.Layer["shard.artifact_bytes"] = float64(fi.Size())

	id = tr.begin("shard.Read", root)
	a, err := shard.Read(path)
	if err != nil {
		return err
	}
	rep.Layer["shard.read_s"] = tr.end(id)
	id = tr.begin("shard.Merge", root)
	m, err := shard.Merge([]*shard.Artifact{a})
	if err != nil {
		return err
	}
	rep.Layer["shard.merge_s"] = tr.end(id)
	exps, err := experiments.MergedExperiments(m)
	if err != nil {
		return err
	}
	id = tr.begin("experiments.RunMerged", root)
	results, errs := experiments.RunMerged(experiments.ConfigFromMerged(m), exps, m)
	tr.end(id)
	if err := errors.Join(errs...); err != nil {
		rep.problem("replay: %v", err)
	}
	var md bytes.Buffer
	id = tr.begin("report.Render", root)
	_ = report.Render(&md, results, report.Options{Markdown: true})
	tr.end(id)
	if !bytes.Equal(md.Bytes(), want) {
		rep.Failed++
		rep.problem("shard Write → Read → Merge → RunMerged replay renders different markdown")
	}

	// The cache stores one single-experiment artifact per experiment: time
	// Put and Get of each of the run's experiments.
	cache, err := runsvc.OpenCache(filepath.Join(o.out, "cache"))
	if err != nil {
		return err
	}
	var puts, gets []float64
	for _, p := range m.Plan {
		key := runsvc.ExperimentKey(cfg, p)
		recs := m.Records(p.ID)
		id := tr.begin("runsvc.Cache.Put", root)
		if err := cache.Put(key, cfg, p, recs); err != nil {
			return err
		}
		puts = append(puts, tr.end(id)*1000)
		id = tr.begin("runsvc.Cache.Get", root)
		got, ok := cache.Get(key, cfg, p)
		gets = append(gets, tr.end(id)*1000)
		if !ok || !slices.EqualFunc(got, recs, recordEqual) {
			rep.problem("cache round trip of %s lost records", p.ID)
		}
	}
	entries, bytes, err := dirUsage(filepath.Join(o.out, "cache"))
	if err != nil {
		return err
	}
	rep.Layer["runsvc.cache_put_ms"] = median(puts)
	rep.Layer["runsvc.cache_get_ms"] = median(gets)
	rep.Layer["runsvc.cache_entries"] = float64(entries)
	rep.Layer["runsvc.cache_bytes"] = float64(bytes)
	return nil
}

func recordEqual(a, b shard.TaskRecord) bool {
	return a.Exp == b.Exp && a.Index == b.Index && a.Err == b.Err && slices.Equal(a.Vals, b.Vals)
}

// registryExecEach times each experiment alone as a one-experiment
// ExecuteShard on the same worker count.
func registryExecEach(tr *tracer, cfg experiments.Config, rep *passReport) error {
	root := tr.begin("probe.exec_each", 0)
	defer tr.end(root)
	for _, e := range experiments.All() {
		id := tr.begin("experiments.ExecuteShard["+e.ID+"]", root)
		art, err := experiments.ExecuteShard(cfg, []experiments.Experiment{e}, 1, 1)
		d := tr.end(id)
		if err != nil {
			return fmt.Errorf("executing %s alone: %w", e.ID, err)
		}
		for _, r := range art.Records {
			if r.Err != "" {
				rep.problem("%s task %d failed alone: %s", e.ID, r.Index, r.Err)
				break
			}
		}
		rep.Layer["experiments.exec_s."+e.ID] = d
	}
	return nil
}

// dirUsage counts the regular files in dir and their total size.
func dirUsage(dir string) (files int, size int64, err error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, 0, err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		fi, err := e.Info()
		if err != nil {
			return 0, 0, err
		}
		files++
		size += fi.Size()
	}
	return files, size, nil
}
