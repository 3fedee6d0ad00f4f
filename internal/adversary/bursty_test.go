package adversary

import (
	"testing"

	"repro/internal/bitrand"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/radio"
)

func TestBurstyLossEpochStability(t *testing.T) {
	env := testEnv(16)
	sched := BurstyLoss{P: 0.5, Burst: 10}.CommitSchedule(env)
	// Within any window of 10 consecutive rounds, an edge changes state at
	// most once (one epoch boundary can fall inside the window).
	for u := 0; u < 8; u++ {
		for v := 8; v < 16; v++ {
			changes := 0
			prev := sched.SelectorFor(0).Includes(u, v)
			for r := 1; r < 10; r++ {
				cur := sched.SelectorFor(r).Includes(u, v)
				if cur != prev {
					changes++
					prev = cur
				}
			}
			if changes > 1 {
				t.Fatalf("edge (%d,%d) changed %d times within one burst length", u, v, changes)
			}
		}
	}
}

func TestBurstyLossLongRunRate(t *testing.T) {
	env := testEnv(16)
	sched := BurstyLoss{P: 0.3, Burst: 4}.CommitSchedule(env)
	hits, total := 0, 0
	for r := 0; r < 400; r++ {
		sel := sched.SelectorFor(r)
		for u := 0; u < 8; u++ {
			for v := 8; v < 16; v++ {
				total++
				if sel.Includes(u, v) {
					hits++
				}
			}
		}
	}
	rate := float64(hits) / float64(total)
	if rate < 0.2 || rate > 0.4 {
		t.Fatalf("long-run presence rate %.3f, want ≈0.30", rate)
	}
}

func TestBurstyLossSymmetric(t *testing.T) {
	env := testEnv(16)
	sched := BurstyLoss{P: 0.5, Burst: 5}.CommitSchedule(env)
	for r := 0; r < 20; r++ {
		sel := sched.SelectorFor(r)
		for u := 0; u < 8; u++ {
			for v := 8; v < 16; v++ {
				if sel.Includes(u, v) != sel.Includes(v, u) {
					t.Fatalf("asymmetric selector at round %d edge (%d,%d)", r, u, v)
				}
			}
		}
	}
}

func TestBurstyLossExtremes(t *testing.T) {
	env := testEnv(8)
	if !(BurstyLoss{P: 2, Burst: 4}).CommitSchedule(env).SelectorFor(0).All() {
		t.Fatal("P≥1 must select all")
	}
	if !(BurstyLoss{P: -1, Burst: 4}).CommitSchedule(env).SelectorFor(0).None() {
		t.Fatal("P≤0 must select none")
	}
}

func TestBurstyDegeneratesToPerRound(t *testing.T) {
	// Burst=1: each round redecides; verify the edge state actually varies
	// across rounds (not stuck).
	env := testEnv(8)
	sched := BurstyLoss{P: 0.5, Burst: 1}.CommitSchedule(env)
	varied := false
	prev := sched.SelectorFor(0).Includes(0, 5)
	for r := 1; r < 40 && !varied; r++ {
		if sched.SelectorFor(r).Includes(0, 5) != prev {
			varied = true
		}
	}
	if !varied {
		t.Fatal("burst=1 edge never changed state in 40 rounds")
	}
}

func TestTargetedSuppressesVictimEdges(t *testing.T) {
	env := testEnv(16)
	sched := Targeted{Victims: []graph.NodeID{3, 9}}.CommitSchedule(env)
	sel := sched.SelectorFor(5)
	if sel.Includes(3, 12) || sel.Includes(9, 0) || sel.Includes(12, 3) {
		t.Fatal("victim edges must stay absent")
	}
	if !sel.Includes(1, 12) {
		t.Fatal("non-victim edges must stay present")
	}
}

func TestPermutedGlobalSolvesUnderBurstyLoss(t *testing.T) {
	d, _ := graph.DualClique(128, 3)
	res, err := radio.Run(radio.Config{
		Net:       d,
		Algorithm: core.PermutedGlobal{},
		Spec:      radio.Spec{Problem: radio.GlobalBroadcast, Source: 0},
		Link:      BurstyLoss{P: 0.5, Burst: 16},
		Seed:      5,
		MaxRounds: 50000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Solved {
		t.Fatal("permuted global must survive bursty losses")
	}
}

func TestDecayGlobalSolvesUnderTargeted(t *testing.T) {
	// Targeting the bridge endpoints leaves the reliable bridge intact:
	// broadcast must still complete (only slower).
	d, m := graph.DualClique(64, 3)
	res, err := radio.Run(radio.Config{
		Net:       d,
		Algorithm: core.DecayGlobal{},
		Spec:      radio.Spec{Problem: radio.GlobalBroadcast, Source: 0},
		Link:      Targeted{Victims: []graph.NodeID{m.TA, m.TB}},
		Seed:      2,
		MaxRounds: 50000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Solved {
		t.Fatal("decay must complete despite the targeted dead zone")
	}
}

func TestBitrandHashStability(t *testing.T) {
	// Committed schedules depend on Hash64 determinism across calls.
	a := bitrand.Hash64(1, 2, 3)
	b := bitrand.Hash64(1, 2, 3)
	if a != b {
		t.Fatal("Hash64 not deterministic")
	}
	if bitrand.Hash64(1, 2, 3) == bitrand.Hash64(3, 2, 1) {
		t.Fatal("Hash64 insensitive to order")
	}
}
