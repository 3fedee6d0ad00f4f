// Adaptive attack: the paper's central separation, live.
//
// On the dual clique network (two reliable cliques joined by one reliable
// bridge, everything else unreliable) we pit two algorithms against two
// adversaries:
//
//   - plain decay [2]: fixed, publicly known probability schedule
//   - permuted decay (§4.1): schedule driven by bits the source draws at
//     runtime
//
// against
//
//   - the online adaptive dense/sparse adversary (Theorem 3.1), which reads
//     the expected transmitter count from the nodes' states each round
//   - the oblivious sampling adversary (Theorem 4.3 machinery), which must
//     commit its schedule before round 1 from presimulations
//
// The outcome reproduces Figure 1's middle rows: the online adaptive
// adversary stalls both algorithms (~linear rounds), while the oblivious
// adversary stalls only plain decay — permuted decay stays polylogarithmic.
//
// Part two extends the separation into the churn regime: on a network whose
// base has no unreliable fringe at all (G' = G), epoch-driven interference
// storms transiently open the G-vs-G' gap, and the churn-window adversary —
// which reads the scenario's degradation metadata and smothers only while
// the topology is degraded — strictly slows broadcast where the same
// machinery pointed at the healthy epochs (the churn-blind control) achieves
// exactly nothing.
package main

import (
	"fmt"
	"log"

	"repro/internal/adversary"
	"repro/internal/bitrand"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/radio"
	"repro/internal/scenario"
	"repro/internal/stats"
)

func main() {
	const n = 2048
	const trials = 3
	net, markers := graph.DualClique(n, 3)
	fmt.Printf("dual clique: n=%d, bridge %d–%d, G' complete\n\n", n, markers.TA, markers.TB)

	algs := []radio.Algorithm{core.DecayGlobal{}, core.PermutedGlobal{}}
	advs := []struct {
		name string
		link any
	}{
		{"(protocol model)", nil},
		{"oblivious sampling", adversary.Presample{C: 1, Horizon: 4 * n}},
		{"online adaptive", adversary.DenseSparse{C: 1}},
	}

	tb := stats.NewTable("algorithm", "adversary", "median rounds")
	for _, alg := range algs {
		for _, adv := range advs {
			var rounds []float64
			for seed := uint64(1); seed <= trials; seed++ {
				res, err := radio.Run(radio.Config{
					Net:       net,
					Algorithm: alg,
					Spec:      radio.Spec{Problem: radio.GlobalBroadcast, Source: 0},
					Link:      adv.link,
					Seed:      seed,
					MaxRounds: 400 * n,
				})
				if err != nil {
					log.Fatal(err)
				}
				rounds = append(rounds, float64(res.Rounds))
			}
			tb.AddRow(alg.Name(), adv.name, stats.Summarize(rounds).Median)
		}
	}
	fmt.Println(tb)
	fmt.Println("Figure 1 reproduced: adaptivity is what makes unreliable links expensive;")
	fmt.Println("runtime randomness (permuted decay) neutralizes the oblivious adversary only.")
	fmt.Println()
	churnWindowDemo()
}

// churnWindowDemo is the churn-regime extension: the same separation logic,
// but in time instead of in information. Two reliable cliques with one
// reliable bridge and G' = G; ten storm epochs flare transient unreliable
// links; the adversary that knows *when* wins.
func churnWindowDemo() {
	const n = 512
	const trials = 3
	base := graph.TwoCliques(n)

	sc, err := scenario.Generate(base, bitrand.New(3000+n), scenario.GenConfig{
		Epochs:    10,
		EpochLen:  2 * bitrand.LogN(n),
		Demotions: 8,
		Storms:    6 * n,
		Protected: []graph.NodeID{0},
	})
	if err != nil {
		log.Fatal(err)
	}
	epochs, err := sc.Compile()
	if err != nil {
		log.Fatal(err)
	}
	wins := sc.DegradedWindows()
	fmt.Printf("churn windows: two reliable %d-cliques, one bridge, G' = G; %d storm epochs\n\n", n/2, len(sc.Epochs)-1)

	tb := stats.NewTable("adversary", "median rounds")
	for _, adv := range []struct {
		name string
		link any
	}{
		{"(no adversary)", nil},
		{"churn-blind (inverted windows)", adversary.ChurnWindowOffline{Windows: wins, Invert: true}},
		{"churn-window online", adversary.ChurnWindow{Windows: wins, C: 1}},
		{"churn-window offline", adversary.ChurnWindowOffline{Windows: wins}},
	} {
		var rounds []float64
		for seed := uint64(1); seed <= trials; seed++ {
			res, err := radio.Run(radio.Config{
				Epochs:    epochs,
				Algorithm: core.DecayGlobal{},
				Spec:      radio.Spec{Problem: radio.GlobalBroadcast, Source: 0},
				Link:      adv.link,
				Seed:      seed,
				MaxRounds: 400 * n,
			})
			if err != nil {
				log.Fatal(err)
			}
			rounds = append(rounds, float64(res.Rounds))
		}
		tb.AddRow(adv.name, stats.Summarize(rounds).Median)
	}
	fmt.Println(tb)
	fmt.Println("The blind row matches the no-adversary row exactly: outside the degraded")
	fmt.Println("epochs there is no E'\\E to select from. Timing is the whole attack.")
}
