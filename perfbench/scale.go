package main

// scale-sparse: decay global broadcast on a seed-generated n = 10⁵
// ring+chords dual (the shape of SCALE-n's full-mode 10⁵ row), trials called
// through radio.Run one after another.

import (
	"encoding/binary"
	"fmt"
	"reflect"

	"repro/internal/bitrand"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/radio"
)

const (
	scaleN = 100000
	// scaleTrials is the trials one pass runs, one after another. Pass k
	// runs trials k·scaleTrials onwards, so a run of several short passes
	// covers many trials — their round counts vary by ~7% each — while the
	// median over passes shrugs off a pass the host slowed down. One
	// goroutine leaves the second core to the Go runtime.
	scaleTrials = 4
	// scaleSource is the broadcast source.
	scaleSource = 0
)

func scaleConfig(d *graph.Dual, seed uint64, trial int) radio.Config {
	return radio.Config{
		Net:       d,
		Algorithm: core.DecayGlobal{},
		Spec:      radio.Spec{Problem: radio.GlobalBroadcast, Source: scaleSource},
		Seed:      mix(seed, uint64(1+trial)),
		MaxRounds: 500 * bitrand.LogN(d.N()),
	}
}

func scalePass(o opts, setupOnly, verify bool) (*passReport, error) {
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	rep := &passReport{}
	layer := map[string]float64{}

	// Set-up: the substrate, its decomposition, the cluster-major order and
	// the block-sparse masks — everything the trials share.
	root := tr.begin("scale.pass", 0)
	elapsed := timer()
	id := tr.begin("graph.RingChords+AugmentDual", root)
	src := bitrand.New(mix(o.seed, 0))
	d := graph.AugmentDual(src, graph.RingChords(src, scaleN, 2*scaleN), scaleN)
	layer["graph.build_s"] = tr.end(id)
	id = tr.begin("graph.DecompositionOf", root)
	graph.DecompositionOf(d.G())
	layer["graph.decomposition_s"] = tr.end(id)
	id = tr.begin("graph.ClusterOrderOf", root)
	graph.ClusterOrderOf(d.G())
	layer["graph.cluster_order_s"] = tr.end(id)
	id = tr.begin("graph.SparseMasksOf", root)
	masks := graph.SparseMasksOf(d)
	layer["graph.sparse_masks_s"] = tr.end(id)
	rep.SetupS = elapsed()
	if setupOnly {
		return rep, nil
	}

	cpu0 := selfCPU()
	results := make([]radio.Result, scaleTrials)
	errs := make([]error, scaleTrials)
	durs := make([]float64, scaleTrials)
	for i := range results {
		id := tr.begin("radio.Run", root)
		t := timer()
		results[i], errs[i] = radio.Run(scaleConfig(d, o.seed, o.index*scaleTrials+i))
		durs[i] = t()
		tr.end(id)
	}
	rep.WallS = elapsed() - rep.SetupS
	rep.CPUS = selfCPU() - cpu0
	tr.end(root)
	var err error
	if rep.PeakRSSMB, err = peakRSSMB(0); err != nil {
		return nil, err
	}

	// Output checks, outside the timed window: every trial solved within its
	// budget, and no node informed sooner than its G' hop distance from the
	// source allows.
	rep.Attempted, rep.Tasks = scaleTrials, scaleTrials
	dist := graph.BFSDist(d.GPrime(), scaleSource)
	var rounds, tx, deliveries int64
	var out []byte
	for i, res := range results {
		if problem := scaleCheck(res, errs[i], dist); problem != "" {
			rep.Failed++
			rep.problem("trial %d: %s", i, problem)
		}
		rounds += int64(res.Rounds)
		tx += res.Transmissions
		deliveries += res.Deliveries
		out = binary.LittleEndian.AppendUint64(out, uint64(res.Rounds))
		out = binary.LittleEndian.AppendUint64(out, uint64(res.Transmissions))
		out = binary.LittleEndian.AppendUint64(out, uint64(res.Deliveries))
		for _, r := range res.InformedAt {
			out = binary.LittleEndian.AppendUint32(out, uint32(r))
		}
	}
	rep.Digest = digest(out)
	for _, s := range durs {
		rep.LatMS = append(rep.LatMS, s*1000)
	}
	nodeRounds := float64(scaleN) * float64(rounds)
	rep.Extra = map[string]metricValue{"node_rounds_per_s": {nodeRounds / rep.WallS, "1/s"}}

	if verify {
		// One sampled trial re-run on the scalar CSR walk must reproduce the
		// auto-planned (block-sparse) result exactly.
		i := int(mix(o.seed, 1<<32) % scaleTrials)
		cfg := scaleConfig(d, o.seed, o.index*scaleTrials+i)
		cfg.Plan = radio.PlanScalar
		id := tr.begin("radio.Run[PlanScalar]", 0)
		res, err := radio.Run(cfg)
		tr.end(id)
		if err != nil || !reflect.DeepEqual(res, results[i]) {
			rep.Failed++
			rep.problem("trial %d re-run with PlanScalar differs from PlanAuto (err %v)", i, err)
		}
	}
	if !o.trace {
		return rep, nil
	}

	layer["graph.edges_gprime"] = float64(d.GPrime().NumEdges())
	layer["graph.mask_entries"] = float64(masks.G.Entries())
	layer["graph.mask_bytes"] = float64(masks.G.Bytes())
	layer["radio.trial_s"] = median(durs)
	layer["radio.rounds"] = float64(rounds)
	layer["radio.transmissions"] = float64(tx)
	layer["radio.deliveries_per_tx"] = float64(deliveries) / float64(tx)
	sum := 0.0
	for _, s := range durs {
		sum += s
	}
	layer["radio.ns_per_node_round"] = sum * 1e9 / nodeRounds
	rep.Layer = layer
	return rep, tr.write(o.out)
}

// scaleCheck returns what is wrong with one trial, or "".
func scaleCheck(res radio.Result, err error, dist []int) string {
	if err != nil {
		return err.Error()
	}
	if !res.Solved {
		return fmt.Sprintf("not solved within %d rounds", res.Rounds)
	}
	if len(res.InformedAt) != len(dist) {
		return fmt.Sprintf("InformedAt has %d entries for %d nodes", len(res.InformedAt), len(dist))
	}
	// InformedAt is the 0-based round of first reception, so a node d hops
	// from the source needs rounds 0..d-1 at least: InformedAt >= d-1.
	for u, at := range res.InformedAt {
		if u == scaleSource {
			if at != 0 {
				return fmt.Sprintf("source informed at round %d", at)
			}
		} else if at+1 < dist[u] {
			return fmt.Sprintf("node %d informed in round %d, before its G' distance %d allows", u, at, dist[u])
		}
	}
	return ""
}
