package radio

import (
	"testing"

	"repro/internal/bitrand"
	"repro/internal/graph"
)

// TestAutoPlanCliqueCover pins PlanAuto's cover rule: an epoch takes the
// clique cover exactly when its G is clique-structured (the greedy cover
// leaves at most n residual edges), other graphs memoize no cover at all,
// PlanScalar and PlanBitmap never take it, and the choice is re-derived at
// every epoch swap.
func TestAutoPlanCliqueCover(t *testing.T) {
	src := bitrand.New(0xc0fe)
	dc, _ := graph.DualClique(64, 5)
	two := graph.TwoCliques(64)
	circ := graph.UniformDual(graph.Circulant(64, 8))
	chords := graph.AugmentDual(src, graph.RingChords(src, 64, 128), 64)
	geo := graph.GeographicGrid(src, 8, 8, 0.7, 1.5)

	engineFor := func(cfg Config) *engine {
		t.Helper()
		cfg.Algorithm = coinAlg{p: 0.3}
		cfg.Spec = Spec{Problem: GlobalBroadcast, Source: 0}
		cfg.MaxRounds = 64
		e, err := newEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(e.release)
		return e
	}

	for _, tc := range []struct {
		name  string
		net   *graph.Dual
		cover bool
	}{
		{"dual-clique", dc, true},
		{"two-cliques", two, true},
		{"circulant", circ, false},
		{"ring-chords", chords, false},
		{"geo-grid", geo, false},
	} {
		e := engineFor(Config{Net: tc.net})
		if got := e.accel != nil; got != tc.cover {
			t.Errorf("%s: PlanAuto took the cover = %v, want %v", tc.name, got, tc.cover)
		}
		if tc.cover {
			if e.accel != graph.CliqueCoverOf(tc.net.G()) || len(e.accel.Residual) > tc.net.N() {
				t.Errorf("%s: cover is not the memoized clique-structured cover", tc.name)
			}
			if len(e.cliqueTx) != e.accel.Count {
				t.Errorf("%s: clique tallies sized %d for %d cliques", tc.name, len(e.cliqueTx), e.accel.Count)
			}
		} else if graph.CliqueCoverOf(tc.net.G()) != nil {
			t.Errorf("%s: a non-clique-structured graph retains a cover", tc.name)
		}
		for _, plan := range []DeliveryPlan{PlanScalar, PlanBitmap} {
			if e := engineFor(Config{Net: tc.net, Plan: plan}); e.accel != nil {
				t.Errorf("%s: %v took the clique cover", tc.name, plan)
			}
		}
	}

	// dual clique → circulant → geo grid → two cliques: the cover follows G.
	e := engineFor(Config{Epochs: []Epoch{
		{Start: 0, Net: dc}, {Start: 4, Net: circ}, {Start: 8, Net: geo}, {Start: 12, Net: two},
	}})
	for i, want := range []*graph.CliqueCover{
		graph.CliqueCoverOf(dc.G()), nil, nil, graph.CliqueCoverOf(two.G()),
	} {
		if i > 0 {
			e.swapEpoch()
		}
		if e.accel != want {
			t.Errorf("epoch %d: cover %p, want %p", i, e.accel, want)
		}
		if e.plan != PlanScalar {
			t.Errorf("epoch %d: plan %v, want the CSR walk below the bitmap node floor", i, e.plan)
		}
	}
}
