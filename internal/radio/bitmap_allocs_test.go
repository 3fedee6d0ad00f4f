package radio_test

import (
	"testing"

	"repro/internal/bitrand"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/radio"
)

// TestSparseDeliveryAllocs is the //dglint:noalloc gate for the block-sparse
// delivery kernel (deliverSparse) and its transmitter fill: once the
// per-graph memos (decomposition, cluster order, sparse mask rows) are warm
// — AllocsPerRun's untimed warm-up run builds them — a bitmap-plan trial
// must match the scalar path's whole-trial budget (TestHotPathAllocs), with
// the kernel, the summary pruning, and the cluster-major id translation
// contributing zero allocations per round. Any per-round allocation blows
// the budget by ~MaxRounds and fails loudly.
func TestSparseDeliveryAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation gate needs steady-state pooling")
	}
	src := bitrand.New(0x59a5)
	net := graph.UniformDual(graph.RingChords(src, 4096, 8192))
	spec := radio.Spec{Problem: radio.GlobalBroadcast, Source: 0}

	seed := uint64(0)
	trial := func() {
		seed++
		_, err := radio.Run(radio.Config{
			Net:              net,
			Algorithm:        core.DecayGlobal{},
			Spec:             spec,
			Seed:             seed,
			MaxRounds:        256,
			Plan:             radio.PlanBitmap,
			IgnoreCompletion: true,
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	const budget = 6
	got := testing.AllocsPerRun(100, trial)
	t.Logf("sparse trial allocs/op = %v (budget %d)", got, budget)
	if got > budget {
		t.Errorf("sparse trial allocs/op = %v, budget %d", got, budget)
	}
}
