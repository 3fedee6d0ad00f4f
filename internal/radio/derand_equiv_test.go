package radio_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/radio"
)

// Differential layer for the derandomized broadcast: the deterministic
// schedule must be observationally identical under PlanScalar and
// PlanBitmap, across epoch swaps, for every adversary shape — and every
// recorded round must replay exactly through the naive reference oracle.
// DerandBroadcast draws no coins, so any divergence here is an engine bug
// by construction, not schedule noise.

func TestDerandBitmapScalarEquivalence(t *testing.T) {
	d := denseDual(t, 96, 10, 400, 0xd3a)
	global := radio.Spec{Problem: radio.GlobalBroadcast, Source: 3}

	cases := []struct {
		name string
		cfg  radio.Config
	}{
		{"no-link", radio.Config{
			Net: d, Algorithm: core.DerandBroadcast{}, Spec: global,
			Seed: 41, MaxRounds: 64 * 96,
		}},
		{"static-all", radio.Config{
			Net: d, Algorithm: core.DerandBroadcast{}, Spec: global,
			Link: fixedLink{graph.SelectAll{}}, Seed: 42, MaxRounds: 64 * 96,
		}},
		{"static-set", radio.Config{
			Net: d, Algorithm: core.DerandBroadcast{}, Spec: global,
			Link: fixedLink{graph.NewSelectSet(halfExtraEdges(d))}, Seed: 43, MaxRounds: 64 * 96,
		}},
		{"online-flicker", radio.Config{
			Net: d, Algorithm: core.DerandBroadcast{}, Spec: global,
			Link: flickerLink{}, Seed: 44, MaxRounds: 64 * 96,
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { comparePlans(t, tc.cfg) })
	}
}

// TestDerandEquivalenceAcrossEpochs covers the interaction the scalar/bitmap
// comparison alone cannot: EpochAware re-keying (the derand processes swap
// decompositions at the boundary) happening in lockstep with the engine's
// own mask re-hoist, under both plans.
func TestDerandEquivalenceAcrossEpochs(t *testing.T) {
	d0 := denseDual(t, 96, 10, 400, 0xd30)
	d1 := denseDual(t, 96, 6, 120, 0xd31)
	sweep := graph.DecompositionOf(d0.G()).SweepLen()
	for _, tc := range []struct {
		name string
		link any
	}{
		{"no-link", nil},
		{"static-set", fixedLink{graph.NewSelectSet(halfExtraEdges(d0))}},
		{"online-flicker", flickerLink{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			comparePlans(t, radio.Config{
				Epochs: []radio.Epoch{
					{Start: 0, Net: d0},
					{Start: sweep + 3, Net: d1},
					{Start: 3 * sweep, Net: d0},
				},
				Algorithm: core.DerandBroadcast{},
				Spec:      radio.Spec{Problem: radio.GlobalBroadcast, Source: 5},
				Link:      tc.link,
				Seed:      51,
				MaxRounds: 64 * 96,
			})
		})
	}
}

// TestDerandBitmapMatchesReference replays every recorded round of a bitmap
// derand execution through the O(n·Δ) oracle, for a committed partial set
// and for the online flicker.
func TestDerandBitmapMatchesReference(t *testing.T) {
	d := denseDual(t, 80, 8, 300, 0xd3f)
	for _, tc := range []struct {
		name string
		link any
	}{
		{"static-set", fixedLink{graph.NewSelectSet(halfExtraEdges(d))}},
		{"online-flicker", flickerLink{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := radio.Config{
				Net:       d,
				Algorithm: core.DerandBroadcast{},
				Spec:      radio.Spec{Problem: radio.GlobalBroadcast, Source: 0},
				Link:      tc.link,
				Seed:      61,
				MaxRounds: 64 * 80,
			}
			_, rec, err := tryPlan(cfg, radio.PlanBitmap, true)
			if err != nil {
				t.Fatal(err)
			}
			checkReference(t, cfg, rec)
		})
	}
}
