package main

// served-mixed: a dgserved daemon with a fresh result cache, driven by
// closed-loop clients over loopback HTTP with a seed-generated mix of cheap
// experiment selections, so most requests are cache or dedupe hits and a
// minority execute tasks.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/bitrand"
	"repro/internal/experiments"
	"repro/internal/report"
	"repro/internal/runsvc"
	"repro/internal/shard"
)

const (
	// servedRequests is the requests one pass sends.
	servedRequests = 300
	// servedClients is the closed-loop clients: each sends its next request
	// only after the previous one's result arrived.
	servedClients = 2
	// servedSeeds is the size of the seed pool the specs draw from: the
	// experiment seeds 0 to servedSeeds-1.
	servedSeeds = 3
)

// servedExcluded are the experiments too costly for a request mix.
var servedExcluded = []string{"ABL-permutation", "F1-oblivious-global", "F1-static-global", "SCALE-n"}

// servedSpecs generates pass index's request sequence from the workload
// seed: random 2–5-experiment subsets of the cheap experiments over a small
// seed pool. The draws are balanced — every subset size, pool seed and
// experiment occurs equally often, up to rounding, in a seed-shuffled order
// — so the work a pass asks for does not swing with the seed. For the same
// reason the pool itself is fixed: executing the cheap experiments once
// costs up to 1.6 times as much at one experiment seed as at another
// (EXT-leader alone takes 0.8–1.7 s), and that cold work is most of a pass.
// Which cold runs overlap, and so execute an experiment twice, depends on
// the order; each pass draws its own order, so that a run's median spans
// several. Each spec asks for one worker: two concurrent cold runs then keep
// to the two cores instead of running four simulation threads.
func servedSpecs(seed uint64, index int) []runsvc.Spec {
	var cheap []string
	for _, e := range experiments.All() {
		if !slices.Contains(servedExcluded, e.ID) {
			cheap = append(cheap, e.ID)
		}
	}
	src := bitrand.New(mix(mix(seed, 0x5e7fed), uint64(index)))
	shuffle := func(xs []int) {
		for i := len(xs) - 1; i > 0; i-- {
			j := src.Intn(i + 1)
			xs[i], xs[j] = xs[j], xs[i]
		}
	}
	sizes := make([]int, servedRequests)
	seeds := make([]int, servedRequests)
	for i := range sizes {
		sizes[i], seeds[i] = 2+i%4, i%servedSeeds
	}
	shuffle(sizes)
	shuffle(seeds)
	// deck deals experiments from consecutive shuffled rounds of all of them.
	var deck []int
	specs := make([]runsvc.Spec, servedRequests)
	for i := range specs {
		var sel []string
		for len(sel) < sizes[i] {
			j := slices.IndexFunc(deck, func(x int) bool { return !slices.Contains(sel, cheap[x]) })
			if j < 0 {
				round := make([]int, len(cheap))
				for k := range round {
					round[k] = k
				}
				shuffle(round)
				deck = append(deck, round...)
				continue
			}
			sel = append(sel, cheap[deck[j]])
			deck = slices.Delete(deck, j, j+1)
		}
		sort.Strings(sel)
		specs[i] = runsvc.Spec{Experiments: sel, Seed: uint64(seeds[i]), Workers: 1}
	}
	return specs
}

// request is one client request's outcome.
type request struct {
	id       string
	existing bool
	body     []byte
	err      error
	// Phase latencies in ms: POST /v1/runs, reading /events to a terminal
	// state, GET /result; total is submit to result body.
	submit, wait, fetch, total float64
}

// daemon is one running dgserved process.
type daemon struct {
	cmd      *exec.Cmd
	base     string
	stopOnce sync.Once
}

// startDaemon execs dgserved on a free loopback port with cacheDir and
// returns once GET /v1/runs answers 200.
func startDaemon(bin, cacheDir string) (*daemon, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	cmd := exec.Command(bin, "-addr", addr, "-cache", cacheDir)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, base: "http://" + addr}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(d.base + "/v1/runs")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("dgserved not ready on %s after 30s", addr)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// stop shuts the daemon down with SIGTERM (it drains in-flight runs) and
// waits for it to exit, killing it if it does not within 20 s.
func (d *daemon) stop() { d.stopOnce.Do(d.terminate) }

func (d *daemon) terminate() {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.cmd.Process.Kill()
	}
	done := make(chan struct{})
	go func() {
		d.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		d.cmd.Process.Kill()
		<-done
	}
}

func servedPass(o opts, setupOnly, verify bool) (*passReport, error) {
	if o.dgserved == "" {
		return nil, errors.New("served-mixed needs -dgserved")
	}
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	cacheDir, err := os.MkdirTemp(o.out, "cache-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(cacheDir)

	rep := &passReport{}
	elapsed := timer()
	d, err := startDaemon(o.dgserved, cacheDir)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	rep.SetupS = elapsed()
	if setupOnly {
		return rep, nil
	}
	pid := d.cmd.Process.Pid
	cpu0, err := procCPU(pid)
	if err != nil {
		return nil, err
	}

	specs := servedSpecs(o.seed, o.index)
	reqs := make([]request, len(specs))
	transport := &http.Transport{MaxIdleConnsPerHost: servedClients}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport, Timeout: 120 * time.Second}
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < servedClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(specs) {
					return
				}
				reqs[i] = doRequest(client, tr, d.base, specs[i])
			}
		}()
	}
	wg.Wait()
	rep.WallS = elapsed() - rep.SetupS
	cpu1, err := procCPU(pid)
	if err != nil {
		return nil, err
	}
	rep.CPUS = cpu1 - cpu0
	if rep.PeakRSSMB, err = peakRSSMB(pid); err != nil {
		return nil, err
	}

	// Outside the timed window: classify requests by the daemon's own
	// counters, and check every body.
	runs, err := listRuns(client, d.base)
	if err != nil {
		return nil, err
	}
	byID := make(map[string]runsvc.RunStatus, len(runs))
	for _, r := range runs {
		byID[r.ID] = r
	}
	rep.Attempted = len(reqs)
	var all []byte
	var warm, cold [4][]float64 // submit, wait, fetch, total
	existing, cacheExps, execExps, executedTasks := 0, 0, 0, 0
	for i, q := range reqs {
		st, ok := byID[q.id]
		if q.err == nil && (!ok || st.State != runsvc.StateMerged) {
			q.err = fmt.Errorf("run %s not merged (state %q)", q.id, st.State)
		}
		if q.err != nil {
			rep.Failed++
			rep.problem("request %d: %v", i, q.err)
			continue
		}
		all = append(all, q.body...)
		for _, e := range st.Experiments {
			rep.Tasks += e.Tasks
		}
		rep.LatMS = append(rep.LatMS, q.total)
		phases := &warm
		if !q.existing && st.ExecutedTasks > 0 {
			phases = &cold
		}
		for k, v := range []float64{q.submit, q.wait, q.fetch, q.total} {
			phases[k] = append(phases[k], v)
		}
		if q.existing {
			existing++
		}
	}
	// Every cache key was executed at least once (the cache starts empty);
	// executions beyond that are concurrent cold runs repeating each
	// other's work.
	uniqueTasks := map[string]int{}
	for _, r := range runs {
		executedTasks += r.ExecutedTasks
		for _, e := range r.Experiments {
			uniqueTasks[e.Key] = e.Tasks
			switch e.Source {
			case "cache":
				cacheExps++
			case "executed":
				execExps++
			}
		}
	}
	unique := 0
	for _, n := range uniqueTasks {
		unique += n
	}
	rep.Digest = digest(all)
	rep.Extra = map[string]metricValue{
		"requests_per_s":  {float64(len(reqs)) / rep.WallS, "1/s"},
		"warm_p50_ms":     {median(warm[3]), "ms"},
		"cold_p50_ms":     {median(cold[3]), "ms"},
		"warm_requests":   {float64(len(warm[3])), "count"},
		"cold_requests":   {float64(len(cold[3])), "count"},
		"dedupe_requests": {float64(existing), "count"},
	}
	if err := servedVerify(o.seed, specs, reqs, verify, rep); err != nil {
		return nil, err
	}
	if !o.trace {
		return rep, nil
	}

	entries, size, err := dirUsage(cacheDir)
	if err != nil {
		return nil, err
	}
	rep.Layer = map[string]float64{
		"runsvc.cache_entries":       float64(entries),
		"runsvc.cache_bytes":         float64(size),
		"runsvc.cache_hit_ratio":     float64(cacheExps) / float64(max(cacheExps+execExps, 1)),
		"runsvc.dedupe_ratio":        float64(existing) / float64(len(reqs)),
		"runsvc.executed_tasks":      float64(executedTasks),
		"runsvc.duplicate_exec_frac": float64(executedTasks)/float64(max(unique, 1)) - 1,
		"dgserved.runs_held":         float64(len(runs)),
	}
	for k, name := range []string{"http.submit_ms", "http.wait_ms", "http.result_ms"} {
		rep.Layer[name+".warm"] = median(warm[k])
		rep.Layer[name+".cold"] = median(cold[k])
	}
	// Stop the daemon before reading its cache in-process.
	d.stop()
	if err := servedCacheProbe(tr, cacheDir, filepath.Join(o.out, "cache-probe"), runs, rep); err != nil {
		return nil, err
	}
	return rep, tr.write(o.out)
}

// doRequest runs one closed-loop request: submit, follow the event stream
// to a terminal state, fetch the markdown result.
func doRequest(client *http.Client, tr *tracer, base string, spec runsvc.Spec) (q request) {
	root := tr.begin("http.request", 0)
	defer tr.end(root)
	total := timer()
	body, err := json.Marshal(spec)
	if err != nil {
		q.err = err
		return q
	}
	id := tr.begin("http.POST /v1/runs", root)
	t := timer()
	resp, err := client.Post(base+"/v1/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		q.err = err
		return q
	}
	var sub struct {
		ID       string `json:"id"`
		Existing bool   `json:"existing"`
	}
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	q.submit = t() * 1000
	tr.end(id)
	if err != nil || (resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK) {
		q.err = fmt.Errorf("POST /v1/runs: status %d, %v", resp.StatusCode, err)
		return q
	}
	q.id, q.existing = sub.ID, sub.Existing

	id = tr.begin("http.GET /v1/runs/{id}/events", root)
	t = timer()
	last, err := followEvents(client, base+"/v1/runs/"+q.id+"/events")
	q.wait = t() * 1000
	tr.end(id)
	if err != nil || last != runsvc.StateMerged {
		q.err = fmt.Errorf("events: last state %q, %v", last, err)
		return q
	}

	id = tr.begin("http.GET /v1/runs/{id}/result", root)
	t = timer()
	resp, err = client.Get(base + "/v1/runs/" + q.id + "/result?format=markdown")
	if err != nil {
		q.err = err
		return q
	}
	q.body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	q.fetch = t() * 1000
	tr.end(id)
	q.total = total() * 1000
	if err != nil || resp.StatusCode != http.StatusOK {
		q.err = fmt.Errorf("GET result: status %d, %v", resp.StatusCode, err)
	}
	return q
}

// followEvents reads a run's NDJSON event stream to its end and returns the
// last state it reported.
func followEvents(client *http.Client, url string) (runsvc.State, error) {
	resp, err := client.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("status %d", resp.StatusCode)
	}
	var last runsvc.State
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev runsvc.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return last, err
		}
		if ev.State != "" {
			last = ev.State
		}
	}
	return last, sc.Err()
}

func listRuns(client *http.Client, base string) ([]runsvc.RunStatus, error) {
	resp, err := client.Get(base + "/v1/runs")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var runs []runsvc.RunStatus
	if err := json.NewDecoder(resp.Body).Decode(&runs); err != nil {
		return nil, fmt.Errorf("GET /v1/runs: %w", err)
	}
	return runs, nil
}

// servedUnit is one experiment at one pool seed.
type servedUnit struct {
	id   string
	seed uint64
}

// servedExpected holds each unit's in-process, cache-less result, computed
// once and shared by the passes of a run.
var servedExpected = map[servedUnit]*experiments.Result{}

// servedVerify checks every served body against in-process, cache-less
// runsvc renderings, outside the timed window. Each (experiment, seed) unit
// the specs use is executed once through a cache-less Service and each
// spec's expected body is the report.Render of its units in selection
// order; tasks are seeded per experiment, so a unit's result does not depend
// on the rest of the selection. With whole set, a few sampled specs are also
// run whole, as submitted.
func servedVerify(seed uint64, specs []runsvc.Spec, reqs []request, whole bool, rep *passReport) error {
	svc, err := runsvc.New(runsvc.Options{})
	if err != nil {
		return err
	}
	defer svc.Close()
	var units []servedUnit
	seen := map[servedUnit]bool{}
	for _, s := range specs {
		for _, id := range s.Experiments {
			u := servedUnit{id, s.Seed}
			if _, ok := servedExpected[u]; !ok && !seen[u] {
				seen[u] = true
				units = append(units, u)
			}
		}
	}
	var mu sync.Mutex
	var firstErr error
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < servedClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(units) {
					return
				}
				u := units[i]
				run, err := svc.RunSync(runsvc.Spec{Experiments: []string{u.id}, Seed: u.seed, Workers: 1})
				var res []*experiments.Result
				if err == nil {
					res, err = run.Results()
				}
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = fmt.Errorf("in-process %s seed %d: %w", u.id, u.seed, err)
				} else if err == nil {
					servedExpected[u] = res[0]
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	render := func(rs []*experiments.Result) []byte {
		var b bytes.Buffer
		_ = report.Render(&b, rs, report.Options{Markdown: true})
		return b.Bytes()
	}
	for i, s := range specs {
		if reqs[i].err != nil {
			continue
		}
		rs := make([]*experiments.Result, len(s.Experiments))
		for j, id := range s.Experiments {
			rs[j] = servedExpected[servedUnit{id, s.Seed}]
		}
		if !bytes.Equal(reqs[i].body, render(rs)) {
			rep.Failed++
			rep.problem("request %d (%s seed %d): served body differs from the in-process rendering", i, strings.Join(s.Experiments, ","), s.Seed)
		}
	}
	for k := 0; whole && k < 3; k++ {
		i := int(mix(seed, uint64(k)) % uint64(len(specs)))
		if reqs[i].err != nil {
			continue
		}
		run, err := svc.RunSync(specs[i])
		if err != nil {
			return fmt.Errorf("in-process spec %d: %w", i, err)
		}
		rs, err := run.Results()
		if err != nil {
			return err
		}
		if !bytes.Equal(reqs[i].body, render(rs)) {
			rep.Failed++
			rep.problem("request %d: served body differs from the in-process rendering of the whole spec", i)
		}
	}
	return nil
}

// servedCacheProbe times runsvc.Cache.Get on every entry the daemon wrote,
// and Cache.Put of the same records into a fresh directory.
func servedCacheProbe(tr *tracer, dir, scratch string, runs []runsvc.RunStatus, rep *passReport) error {
	root := tr.begin("probe.cache", 0)
	defer tr.end(root)
	src, err := runsvc.OpenCache(dir)
	if err != nil {
		return err
	}
	dst, err := runsvc.OpenCache(scratch)
	if err != nil {
		return err
	}
	cfg := experiments.Config{Quick: true}
	var gets, puts []float64
	done := map[string]bool{}
	for _, r := range runs {
		for _, e := range r.Experiments {
			if done[e.Key] {
				continue
			}
			done[e.Key] = true
			cfg.BaseSeed = r.Spec.Seed
			p := shard.ExperimentPlan{ID: e.ID, Tasks: e.Tasks}
			if runsvc.ExperimentKey(cfg, p) != e.Key {
				rep.problem("cache key of %s seed %d does not match the daemon's", e.ID, cfg.BaseSeed)
				continue
			}
			id := tr.begin("runsvc.Cache.Get", root)
			recs, ok := src.Get(e.Key, cfg, p)
			gets = append(gets, tr.end(id)*1000)
			if !ok {
				rep.problem("cache entry %s (%s) missing or invalid", e.Key, e.ID)
				continue
			}
			id = tr.begin("runsvc.Cache.Put", root)
			if err := dst.Put(e.Key, cfg, p, recs); err != nil {
				return err
			}
			puts = append(puts, tr.end(id)*1000)
		}
	}
	rep.Layer["runsvc.cache_get_ms"] = median(gets)
	rep.Layer["runsvc.cache_put_ms"] = median(puts)
	return nil
}
