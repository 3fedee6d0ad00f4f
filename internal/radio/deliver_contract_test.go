package radio

import (
	"fmt"
	"maps"
	"testing"

	"repro/internal/bitrand"
	"repro/internal/graph"
)

// strictAlg builds strictProcs: every node holds its own message and
// transmits by a coin of probability p, or, when script is set, exactly in
// the rounds script lists for it. Every Deliver call is checked against the
// engine's contract and counted per (round, node).
type strictAlg struct {
	t      *testing.T
	p      float64
	script map[graph.NodeID][]int
	calls  map[[2]int]int
	total  int64
}

func (a *strictAlg) Name() string { return "strict" }

func (a *strictAlg) NewProcesses(net *graph.Dual, spec Spec, rng *bitrand.Source) []Process {
	out := make([]Process, net.N())
	for u := range out {
		out[u] = &strictProc{alg: a, id: u, msg: &Message{Origin: u}}
	}
	return out
}

type strictProc struct {
	alg *strictAlg
	id  graph.NodeID
	msg *Message
}

func (p *strictProc) Step(r int, rng *bitrand.Source) Action {
	if p.alg.script != nil {
		for _, at := range p.alg.script[p.id] {
			if at == r {
				return Transmit(p.msg)
			}
		}
		return Listen()
	}
	if rng.Coin(p.alg.p) {
		return Transmit(p.msg)
	}
	return Listen()
}

func (p *strictProc) Deliver(r int, msg *Message) {
	if msg == nil {
		p.alg.t.Errorf("round %d: node %d handed Deliver(nil)", r, p.id)
		return
	}
	p.alg.calls[[2]int{r, p.id}]++
	p.alg.total++
}

// strictAllLink commits the all-edges selector every round.
type strictAllLink struct{}

func (strictAllLink) CommitSchedule(*Env) Schedule {
	return StaticSchedule{Selector: graph.SelectAll{}}
}

// TestDeliverReceptionsOnly pins the delivery contract: the engine calls
// Deliver only for a successful reception — never with nil for silence, a
// collision or a transmitting node — once per reception, on every delivery
// path: the PlanScalar CSR walk (reliable edges alone and with every
// unreliable edge), the forced bitmap kernel, PlanAuto's clique
// cover, and the complete-graph fast path with one and with two
// transmitters. The call count must equal Result.Deliveries, and each
// round's calls must be exactly its recorded receptions.
func TestDeliverReceptionsOnly(t *testing.T) {
	dc, _ := graph.DualClique(96, 3)
	geo := graph.GeographicGrid(bitrand.New(5), 8, 8, 0.7, 1.5)
	circ := graph.UniformDual(graph.Circulant(2048, 16))
	clique := graph.UniformDual(graph.Clique(40))

	for _, tc := range []struct {
		name   string
		net    *graph.Dual
		plan   DeliveryPlan
		link   any
		p      float64
		script map[graph.NodeID][]int
		rounds int
		want   int64 // exact deliveries, when known
		check  func(e *engine) error
	}{
		{name: "scalar", net: dc, plan: PlanScalar, p: 0.05, rounds: 64,
			check: func(e *engine) error { return planIs(e, PlanScalar, false) }},
		{name: "scalar/all-link", net: geo, plan: PlanScalar, link: strictAllLink{}, p: 0.1, rounds: 64,
			check: func(e *engine) error { return planIs(e, PlanScalar, false) }},
		{name: "bitmap", net: circ, plan: PlanBitmap, p: 0.01, rounds: 16,
			check: func(e *engine) error { return planIs(e, PlanBitmap, false) }},
		{name: "clique-cover", net: dc, plan: PlanAuto, p: 0.05, rounds: 64,
			check: func(e *engine) error { return planIs(e, PlanScalar, true) }},
		// Round 0: one transmitter; round 1: two; round 2: one again; round
		// 3: nobody. The lone transmitter reaches everyone else; the
		// collision round delivers nothing.
		{name: "complete/one-and-two", net: clique, link: strictAllLink{}, rounds: 4,
			script: map[graph.NodeID][]int{3: {0, 1}, 17: {1}, 39: {2}}, want: 2 * int64(clique.N()-1),
			check: func(e *engine) error {
				if !e.net.UnionComplete() {
					return fmt.Errorf("clique is not complete: no fast path")
				}
				return nil
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{
				Net:              tc.net,
				Spec:             Spec{Problem: GlobalBroadcast, Source: 0},
				Link:             tc.link,
				Seed:             7,
				MaxRounds:        tc.rounds,
				Plan:             tc.plan,
				IgnoreCompletion: true,
			}
			cfg.Algorithm = &strictAlg{t: t, p: tc.p, script: tc.script, calls: map[[2]int]int{}}
			e, err := newEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			err = tc.check(e)
			e.release()
			if err != nil {
				t.Fatal(err)
			}
			for _, record := range []bool{false, true} {
				alg := &strictAlg{t: t, p: tc.p, script: tc.script, calls: map[[2]int]int{}}
				cfg.Algorithm = alg
				rec := &MemRecorder{}
				cfg.Recorder = nil
				if record {
					cfg.Recorder = rec
				}
				res, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if alg.total != res.Deliveries || res.Deliveries == 0 {
					t.Fatalf("recorder=%v: %d Deliver calls, Result.Deliveries = %d", record, alg.total, res.Deliveries)
				}
				if tc.want != 0 && res.Deliveries != tc.want {
					t.Fatalf("recorder=%v: %d deliveries, want %d", record, res.Deliveries, tc.want)
				}
				if !record {
					continue
				}
				want := map[[2]int]int{}
				for _, rr := range rec.Rounds {
					for _, d := range rr.Deliveries {
						want[[2]int{rr.Round, d.To}]++
					}
				}
				if !maps.Equal(want, alg.calls) {
					t.Fatalf("Deliver calls differ from recorded receptions:\ncalls: %v\nwant:  %v", alg.calls, want)
				}
			}
		})
	}

}

func planIs(e *engine, plan DeliveryPlan, cover bool) error {
	if e.plan != plan || (e.accel != nil) != cover {
		return fmt.Errorf("plan %v cover %v, want %v cover %v", e.plan, e.accel != nil, plan, cover)
	}
	return nil
}
