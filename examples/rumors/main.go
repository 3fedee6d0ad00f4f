// Rumors: the paper's future work, running — k-rumor spreading and leader
// election in the dual graph model.
//
// Four rumor sources on a lossy dual clique must get their rumors to every
// node. The TDM algorithm time-multiplexes k permuted-decay broadcasts, one
// rumor per slot, each coordinated by bits its origin drew at runtime (the
// Section 4.1 defense applied per rumor). Then the same machinery elects a
// leader: every node relays the highest rank it has heard, and the execution
// completes when the true maximum's claim has reached everyone.
package main

import (
	"fmt"
	"log"

	"repro/internal/adversary"
	"repro/internal/gossip"
	"repro/internal/graph"
	"repro/internal/radio"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/viz"
)

func main() {
	const n = 256
	net, _ := graph.DualClique(n, 3)
	link := adversary.RandomLoss{P: 0.5}

	// Part 1: k-rumor spreading, k = 1, 2, 4.
	fmt.Println("k-rumor spreading on a lossy dual clique (n=256):")
	tb := stats.NewTable("k", "median rounds", "rounds/k", "solved")
	for _, k := range []int{1, 2, 4} {
		sources := make([]graph.NodeID, k)
		for i := range sources {
			sources[i] = graph.NodeID(i * n / (2 * k))
		}
		var rounds []float64
		solved := 0
		const trials = 5
		for seed := uint64(1); seed <= trials; seed++ {
			res, err := radio.Run(radio.Config{
				Net:       net,
				Algorithm: gossip.TDM{},
				Spec:      radio.Spec{Problem: radio.Gossip, Sources: sources},
				Link:      link,
				Seed:      seed,
				MaxRounds: 4000 * n,
			})
			if err != nil {
				log.Fatal(err)
			}
			if res.Solved {
				solved++
			}
			rounds = append(rounds, float64(res.Rounds))
		}
		med := stats.Summarize(rounds).Median
		tb.AddRow(k, med, med/float64(k), fmt.Sprintf("%d/%d", solved, trials))
	}
	fmt.Println(tb)

	// Part 2: leader election with a progress curve.
	alg := gossip.LeaderElect{RankSeed: 2026}
	leader := alg.Leader(n)
	res, err := radio.Run(radio.Config{
		Net:       net,
		Algorithm: alg,
		Spec:      radio.Spec{Problem: radio.GlobalBroadcast, Source: leader},
		Link:      link,
		Seed:      9,
		MaxRounds: 400 * n,
	})
	if err != nil {
		log.Fatal(err)
	}
	curve := trace.ProgressFromResult(res)
	counts := make([]float64, len(curve.Counts))
	for i, c := range curve.Counts {
		counts[i] = float64(c)
	}
	fmt.Printf("leader election: node %d (rank 0x%x) elected in %d rounds\n", leader, alg.Rank(leader), res.Rounds)
	fmt.Printf("adoption curve: %s\n", viz.Sparkline(counts, 60))
	fmt.Printf("half the network knew the leader by round %d\n", curve.TimeToFraction(0.5))
}
