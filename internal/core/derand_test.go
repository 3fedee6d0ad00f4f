package core

import (
	"reflect"
	"testing"

	"repro/internal/adversary"
	"repro/internal/bitrand"
	"repro/internal/graph"
	"repro/internal/radio"
)

func derandNets() map[string]*graph.Dual {
	src := bitrand.New(0xde7a)
	dc, _ := graph.DualClique(64, 3)
	return map[string]*graph.Dual{
		"line":             graph.UniformDual(graph.Line(48)),
		"grid":             graph.UniformDual(graph.Grid(6, 8)),
		"twoclique":        graph.TwoCliques(64),
		"dualclique":       dc,
		"circulant+fringe": graph.AugmentDual(src, graph.Circulant(96, 6), 96),
	}
}

// TestDerandSolvesBroadcast runs the derandomized broadcast to completion on
// a spread of substrates in the static protocol model.
func TestDerandSolvesBroadcast(t *testing.T) {
	for name, net := range derandNets() {
		t.Run(name, func(t *testing.T) {
			res, err := radio.Run(radio.Config{
				Net:       net,
				Algorithm: DerandBroadcast{},
				Spec:      radio.Spec{Problem: radio.GlobalBroadcast, Source: 0},
				Seed:      1,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Solved {
				t.Fatalf("broadcast did not complete in %d rounds", res.Rounds)
			}
			for u, at := range res.InformedAt {
				if at < 0 {
					t.Fatalf("node %d never informed", u)
				}
			}
		})
	}
}

// TestDerandZeroRandomness pins the algorithm's headline property: the
// execution is a pure function of (network, spec, adversary), so changing
// the engine seed — which reseeds every node rng and the construction rng —
// changes nothing observable.
func TestDerandZeroRandomness(t *testing.T) {
	net := derandNets()["circulant+fringe"]
	fringe := adversary.Static{Selector: graph.SelectAll{}}
	for _, link := range []any{nil, fringe} {
		var base *radio.Result
		for _, seed := range []uint64{1, 2, 0xdeadbeef} {
			res, err := radio.Run(radio.Config{
				Net:       net,
				Algorithm: DerandBroadcast{},
				Spec:      radio.Spec{Problem: radio.GlobalBroadcast, Source: 3},
				Link:      link,
				Seed:      seed,
			})
			if err != nil {
				t.Fatal(err)
			}
			if base == nil {
				base = &res
				continue
			}
			if !reflect.DeepEqual(*base, res) {
				t.Fatalf("link %T: execution depends on the seed", link)
			}
		}
	}
}

// TestDerandResetMatchesFresh exercises the ProcessFactory contract
// directly: a reset slab must be observationally identical to a fresh one,
// and a slab of foreign processes must be refused.
func TestDerandResetMatchesFresh(t *testing.T) {
	net := graph.TwoCliques(32)
	spec := radio.Spec{Problem: radio.GlobalBroadcast, Source: 5}
	rng := bitrand.New(7)
	alg := DerandBroadcast{}
	procs := alg.NewProcesses(net, spec, rng)
	// Dirty the slab the way a trial would: relay adoptions everywhere.
	for u, p := range procs {
		p.Deliver(3, &radio.Message{Origin: (u + 1) % net.N()})
	}
	if !alg.ResetProcesses(procs, net, spec, rng) {
		t.Fatal("reset of the factory's own slab refused")
	}
	fresh := alg.NewProcesses(net, spec, rng)
	for u := range procs {
		got, want := procs[u].(*derandProc), fresh[u].(*derandProc)
		if got.id != want.id || got.dec != want.dec ||
			(got.msg == nil) != (want.msg == nil) ||
			(got.msg != nil && got.msg.Origin != want.msg.Origin) {
			t.Fatalf("node %d: reset state differs from fresh state", u)
		}
		for r := 0; r < 3*got.dec.SweepLen(); r++ {
			if got.TransmitProb(r) != want.TransmitProb(r) {
				t.Fatalf("node %d: transmit schedule differs at round %d after reset", u, r)
			}
		}
	}
	// Foreign slab: refuse, so the engine falls back to NewProcesses.
	foreign := RoundRobin{}.NewProcesses(net, spec, rng)
	if alg.ResetProcesses(foreign, net, spec, rng) {
		t.Fatal("reset accepted a foreign slab")
	}
}

// TestDerandOnEpoch checks the EpochAware re-keying: at an epoch swap every
// process re-points at the new revision's memoized decomposition, and the
// whole execution still completes across the churn.
func TestDerandOnEpoch(t *testing.T) {
	n := 40
	g0 := graph.Line(n)
	g1 := graph.Ring(n)
	net0, net1 := graph.UniformDual(g0), graph.UniformDual(g1)
	alg := DerandBroadcast{}
	procs := alg.NewProcesses(net0, radio.Spec{Problem: radio.GlobalBroadcast}, bitrand.New(1))
	p := procs[7].(*derandProc)
	if p.dec != graph.DecompositionOf(g0) {
		t.Fatal("fresh process not keyed to the base revision")
	}
	p.OnEpoch(1, net1)
	if p.dec != graph.DecompositionOf(g1) {
		t.Fatal("OnEpoch did not re-key the decomposition memo")
	}

	res, err := radio.Run(radio.Config{
		Epochs: []radio.Epoch{
			{Start: 0, Net: net0},
			{Start: 2 * graph.DecompositionOf(g0).SweepLen(), Net: net1},
			{Start: 4 * graph.DecompositionOf(g0).SweepLen(), Net: net0},
		},
		Algorithm: alg,
		Spec:      radio.Spec{Problem: radio.GlobalBroadcast, Source: n / 2},
		Seed:      9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Solved {
		t.Fatalf("broadcast did not survive the epoch schedule (rounds=%d)", res.Rounds)
	}
}

// derandReference is the naive single-threaded oracle for a derand
// execution: it re-derives the deterministic schedule directly from the
// decomposition and computes every round's deliveries by enumeration
// (radio.ReferenceDeliveries), with none of the engine's plans, covers,
// arenas, or monitors. Epoch swaps re-key the decomposition at the boundary
// exactly as OnEpoch does.
type derandReference struct {
	epochs   []radio.Epoch
	sel      graph.EdgeSelector
	informed []bool
}

func (o *derandReference) round(r int) (tx []graph.NodeID, dels []radio.Delivery) {
	idx := 0
	for i, ep := range o.epochs {
		if ep.Start <= r {
			idx = i
		}
	}
	net := o.epochs[idx].Net
	dec := graph.DecompositionOf(net.G())
	for u := 0; u < net.N(); u++ {
		if o.informed[u] && dec.Owns(u, r) {
			tx = append(tx, u)
		}
	}
	dels = radio.ReferenceDeliveries(net, o.sel, tx)
	for _, d := range dels {
		o.informed[d.To] = true
	}
	return tx, dels
}

// FuzzDerandEquivalence races full engine executions of DerandBroadcast
// against the derandReference oracle on fuzzed ring+chords substrates with
// fringe, under no adversary / a committed full selection / a committed
// half-set, optionally across a two-epoch churn schedule. Per-round
// transmitter sets, delivery sets, and the final informed map must agree
// exactly.
func FuzzDerandEquivalence(f *testing.F) {
	f.Add(uint64(1), uint16(24), uint8(2), uint8(10), uint8(0), false)
	f.Add(uint64(2), uint16(48), uint8(5), uint8(30), uint8(1), true)
	f.Add(uint64(3), uint16(80), uint8(0), uint8(0), uint8(2), false)
	f.Fuzz(func(t *testing.T, seed uint64, n uint16, chords, extra, selKind uint8, churn bool) {
		nn := int(n)%96 + 4
		source := int(seed>>8) % nn
		src := bitrand.New(seed)
		net := graph.AugmentDual(src, graph.RingChords(src, nn, int(chords)%24), 2*int(extra))
		epochs := []radio.Epoch{{Start: 0, Net: net}}
		if churn {
			alt := graph.AugmentDual(src, graph.Circulant(nn, 2+int(chords)%6), int(extra))
			epochs = append(epochs, radio.Epoch{Start: nn/2 + 1, Net: alt})
		}
		var sel graph.EdgeSelector
		var link any
		switch selKind % 3 {
		case 0:
			sel = nil
		case 1:
			sel = graph.SelectAll{}
		default:
			var half []graph.EdgeKey
			keep := true
			for u := 0; u < net.N(); u++ {
				for _, v := range net.ExtraNeighbors(u) {
					if v > u {
						if keep {
							half = append(half, graph.EdgeKey{U: u, V: v})
						}
						keep = !keep
					}
				}
			}
			sel = graph.NewSelectSet(half)
		}
		if sel != nil {
			link = adversary.Static{Selector: sel}
		}
		rec := &radio.MemRecorder{}
		res, err := radio.Run(radio.Config{
			Epochs:    epochs,
			Algorithm: DerandBroadcast{},
			Spec:      radio.Spec{Problem: radio.GlobalBroadcast, Source: source},
			Link:      link,
			Seed:      seed,
			MaxRounds: 64 * nn,
			Recorder:  rec,
		})
		if err != nil {
			t.Fatal(err)
		}
		oracle := &derandReference{epochs: epochs, sel: sel, informed: make([]bool, nn)}
		oracle.informed[source] = true
		for _, round := range rec.Rounds {
			tx, dels := oracle.round(round.Round)
			if !reflect.DeepEqual(tx, append([]graph.NodeID(nil), round.Transmitters...)) {
				t.Fatalf("round %d: engine transmitters %v, oracle %v", round.Round, round.Transmitters, tx)
			}
			got := append([]radio.Delivery(nil), round.Deliveries...)
			radio.SortDeliveries(got)
			radio.SortDeliveries(dels)
			if !reflect.DeepEqual(got, dels) {
				t.Fatalf("round %d: engine deliveries %v, oracle %v", round.Round, got, dels)
			}
		}
		for u, at := range res.InformedAt {
			if (at >= 0) != oracle.informed[u] {
				t.Fatalf("node %d: engine informed=%v, oracle informed=%v", u, at >= 0, oracle.informed[u])
			}
		}
	})
}
