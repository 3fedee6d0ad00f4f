package radio_test

import (
	"testing"

	"repro/internal/bitrand"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/radio"
)

// Under the bitmap plan the engine flips the transmit coins of BulkStepper
// processes itself instead of dispatching Step per node. comparePlans
// (bitmap_equiv_test.go) holds the delivery plan at PlanBitmap and toggles
// only the coin path: every configuration runs once with the algorithm's own
// processes (bulk coin loop) and once with every process wrapped by stepOnly
// (Step dispatch), and the Results must be identical.
// TestBatchCoinEquivalence keeps that comparison from going vacuous.

// stepOnly hides the BulkStepper extension of the wrapped algorithm's
// processes while keeping Step, Deliver and TransmitProb, so adaptive
// adversaries see the same view, and OnEpoch, so EpochAware processes still
// re-key at epoch swaps. Processes that are not BulkSteppers are passed
// through unchanged.
type stepOnly struct{ alg radio.Algorithm }

func (a stepOnly) Name() string { return a.alg.Name() }

func (a stepOnly) NewProcesses(net *graph.Dual, spec radio.Spec, rng *bitrand.Source) []radio.Process {
	procs := a.alg.NewProcesses(net, spec, rng)
	for u, p := range procs {
		bs, ok := p.(radio.BulkStepper)
		if !ok {
			continue
		}
		if ea, ok := p.(radio.EpochAware); ok {
			procs[u] = stepOnlyEpochProc{stepOnlyProc{bs}, ea}
		} else {
			procs[u] = stepOnlyProc{bs}
		}
	}
	return procs
}

type stepOnlyProc struct{ bs radio.BulkStepper }

func (p stepOnlyProc) Step(r int, rng *bitrand.Source) radio.Action { return p.bs.Step(r, rng) }
func (p stepOnlyProc) Deliver(r int, msg *radio.Message)            { p.bs.Deliver(r, msg) }
func (p stepOnlyProc) TransmitProb(r int) float64                   { return p.bs.TransmitProb(r) }

type stepOnlyEpochProc struct {
	stepOnlyProc
	ea radio.EpochAware
}

func (p stepOnlyEpochProc) OnEpoch(epoch int, net *graph.Dual) { p.ea.OnEpoch(epoch, net) }

// TestBatchCoinEquivalence pins the premise of comparePlans' coin-path
// comparison for every algorithm its tables and fuzzer run: the plain
// processes are all BulkSteppers, so the plain bitmap run takes the engine's
// bulk coin loop, and the stepOnly processes are none, so the wrapped run
// takes the Step dispatch while still exposing TransmitProb (and OnEpoch
// where the plain process has it).
func TestBatchCoinEquivalence(t *testing.T) {
	d := denseDual(t, 96, 10, 400, 0xc0175)
	global := radio.Spec{Problem: radio.GlobalBroadcast, Source: 3}
	local := radio.Spec{Problem: radio.LocalBroadcast, Broadcasters: []graph.NodeID{0, 7, 19}}
	cases := []struct {
		alg  radio.Algorithm
		spec radio.Spec
	}{
		{core.Aloha{P: 0.3}, local},
		{core.DecayGlobal{}, global},
		{core.DecayLocal{}, local},
		{core.DerandBroadcast{}, global},
	}
	for _, tc := range cases {
		t.Run(tc.alg.Name(), func(t *testing.T) {
			procs := tc.alg.NewProcesses(d, tc.spec, bitrand.New(1))
			for u, p := range procs {
				if _, ok := p.(radio.BulkStepper); !ok {
					t.Fatalf("process %d (%T) is not a BulkStepper: the bitmap plan would not take the bulk coin loop", u, p)
				}
			}
			for u, p := range (stepOnly{tc.alg}).NewProcesses(d, tc.spec, bitrand.New(1)) {
				if _, ok := p.(radio.BulkStepper); ok {
					t.Fatalf("wrapped process %d is still a BulkStepper", u)
				}
				if _, ok := p.(radio.TransmitProber); !ok {
					t.Fatalf("wrapped process %d lost TransmitProb", u)
				}
				_, plain := procs[u].(radio.EpochAware)
				if _, wrapped := p.(radio.EpochAware); wrapped != plain {
					t.Fatalf("wrapped process %d: EpochAware %v, plain %v", u, wrapped, plain)
				}
			}
		})
	}
}
