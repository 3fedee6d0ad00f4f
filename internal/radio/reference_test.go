package radio

import (
	"testing"

	"repro/internal/bitrand"
	"repro/internal/graph"
)

// validateRecorder cross-checks every recorded round against the naive
// reference implementation.
func validateTrace(t *testing.T, net *graph.Dual, rec *MemRecorder, label string) {
	t.Helper()
	for _, round := range rec.Rounds {
		want := ReferenceDeliveries(net, round.Selector, round.Transmitters)
		got := append([]Delivery(nil), round.Deliveries...)
		SortDeliveries(want)
		SortDeliveries(got)
		if len(want) != len(got) {
			t.Fatalf("%s round %d: %d deliveries, reference says %d\n engine: %v\n ref:    %v",
				label, round.Round, len(got), len(want), got, want)
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("%s round %d: delivery %d = %v, reference %v", label, round.Round, i, got[i], want[i])
			}
		}
	}
}

// TestEngineMatchesReference differential-tests the engine's delivery paths
// (the PlanScalar CSR walk, PlanAuto's clique cover on the clique-structured
// networks, the complete-topology fast path) against the naive reference
// across random networks, selectors, and algorithms.
func TestEngineMatchesReference(t *testing.T) {
	src := bitrand.New(2024)
	mkNets := []func(seed uint64) *graph.Dual{
		func(seed uint64) *graph.Dual {
			d, _ := graph.DualClique(20, int(seed%10))
			return d
		},
		func(seed uint64) *graph.Dual {
			d, _ := graph.BraceletExplicit(3+int(seed%3), 3, 1)
			return d
		},
		func(seed uint64) *graph.Dual {
			s := src.Split(seed, 1)
			g := graph.ErdosRenyi(s, 18, 0.3)
			return graph.RandomDual(s, g, 0.3)
		},
		func(seed uint64) *graph.Dual {
			s := src.Split(seed, 2)
			return graph.Geographic(s, graph.GeographicConfig{N: 20, Side: 3, Radius: 1.8, GreyProb: 0.7})
		},
	}
	links := []func(seed uint64) any{
		func(uint64) any { return nil },
		func(uint64) any { return staticOblivious{sel: graph.SelectAll{}} },
		func(seed uint64) any { return hashLink{p: 0.4, seed: seed} },
		func(uint64) any { return jamLike{} },
	}
	for ni, mkNet := range mkNets {
		for li, mkLink := range links {
			for _, plan := range []DeliveryPlan{PlanScalar, PlanAuto} {
				for seed := uint64(0); seed < 3; seed++ {
					net := mkNet(seed)
					rec := &MemRecorder{}
					_, err := Run(Config{
						Net:       net,
						Algorithm: coinAlg{p: 0.35},
						Spec:      Spec{Problem: GlobalBroadcast, Source: 0},
						Link:      mkLink(seed),
						Seed:      seed,
						MaxRounds: 40,
						Recorder:  rec,
						Plan:      plan,
					})
					if err != nil {
						t.Fatal(err)
					}
					validateTrace(t, net, rec, plan.String()+"-net"+itoa(ni)+"-link"+itoa(li))
				}
			}
		}
	}
}

func itoa(i int) string { return string(rune('0' + i)) }

// jamLike is an offline adaptive test adversary alternating behavior on the
// realized transmitter count.
type jamLike struct{}

func (jamLike) ChooseOffline(env *Env, view *View, tx []graph.NodeID) graph.EdgeSelector {
	if len(tx)%2 == 0 {
		return graph.SelectAll{}
	}
	return graph.SelectNone{}
}

func TestReferenceDeliveriesNilSelector(t *testing.T) {
	d := lineDual(3)
	got := ReferenceDeliveries(d, nil, []graph.NodeID{1})
	if len(got) != 2 {
		t.Fatalf("deliveries = %v", got)
	}
}

func TestReferenceDeliveriesTransmitterCannotReceive(t *testing.T) {
	d := lineDual(3)
	got := ReferenceDeliveries(d, nil, []graph.NodeID{0, 1})
	// 0 and 1 transmit: 0,1 can't receive; 2 neighbors only 1 → receives.
	if len(got) != 1 || got[0] != (Delivery{To: 2, From: 1}) {
		t.Fatalf("deliveries = %v", got)
	}
}

func TestSortDeliveries(t *testing.T) {
	ds := []Delivery{{To: 2, From: 1}, {To: 0, From: 5}, {To: 2, From: 0}}
	SortDeliveries(ds)
	if ds[0].To != 0 || ds[1] != (Delivery{To: 2, From: 0}) || ds[2] != (Delivery{To: 2, From: 1}) {
		t.Fatalf("sorted = %v", ds)
	}
}
