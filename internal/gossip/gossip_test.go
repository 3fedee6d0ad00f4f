package gossip

import (
	"testing"

	"repro/internal/bitrand"
	"repro/internal/graph"
	"repro/internal/radio"
)

func runGossip(t *testing.T, net *graph.Dual, sources []graph.NodeID, link any, seed uint64, maxRounds int) radio.Result {
	t.Helper()
	res, err := radio.Run(radio.Config{
		Net:       net,
		Algorithm: TDM{},
		Spec:      radio.Spec{Problem: radio.Gossip, Sources: sources},
		Link:      link,
		Seed:      seed,
		MaxRounds: maxRounds,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestTDMSingleRumorEqualsGlobalBroadcast(t *testing.T) {
	net := graph.UniformDual(graph.Clique(32))
	res := runGossip(t, net, []graph.NodeID{0}, nil, 1, 100000)
	if !res.Solved {
		t.Fatal("single-rumor gossip incomplete")
	}
	if res.RumorAt == nil || res.RumorAt[5][0] < 0 {
		t.Fatal("RumorAt not filled")
	}
}

func TestTDMMultiRumorClique(t *testing.T) {
	net := graph.UniformDual(graph.Clique(32))
	for _, k := range []int{2, 4} {
		sources := make([]graph.NodeID, k)
		for i := range sources {
			sources[i] = i * 3
		}
		res := runGossip(t, net, sources, nil, 2, 200000)
		if !res.Solved {
			t.Fatalf("k=%d gossip incomplete after %d rounds", k, res.Rounds)
		}
		// Every node holds every rumor.
		for u, row := range res.RumorAt {
			for i, at := range row {
				if at < 0 {
					t.Fatalf("node %d missing rumor %d", u, i)
				}
			}
		}
	}
}

func TestTDMOnLine(t *testing.T) {
	net := graph.UniformDual(graph.Line(24))
	res := runGossip(t, net, []graph.NodeID{0, 23}, nil, 3, 400000)
	if !res.Solved {
		t.Fatalf("line gossip incomplete after %d rounds", res.Rounds)
	}
}

func TestTDMUnderRandomLoss(t *testing.T) {
	d, _ := graph.DualClique(64, 3)
	res, err := radio.Run(radio.Config{
		Net:       d,
		Algorithm: TDM{},
		Spec:      radio.Spec{Problem: radio.Gossip, Sources: []graph.NodeID{1, 40}},
		Link:      hashLoss{p: 0.5},
		Seed:      4,
		MaxRounds: 400000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Solved {
		t.Fatal("gossip incomplete under random loss")
	}
}

// hashLoss is a local oblivious i.i.d. adversary (gossip must not import
// the adversary package to keep the dependency graph acyclic for tests).
type hashLoss struct{ p float64 }

func (h hashLoss) CommitSchedule(env *radio.Env) radio.Schedule {
	seed := env.Rng.Uint64()
	return radio.ScheduleFunc(func(r int) graph.EdgeSelector {
		return graph.SelectFunc{F: func(u, v graph.NodeID) bool {
			k := graph.MakeEdgeKey(u, v)
			return bitrand.HashFloat(seed, uint64(r), uint64(k.U), uint64(k.V)) < h.p
		}}
	})
}

func TestTDMScalesWithK(t *testing.T) {
	net := graph.UniformDual(graph.Clique(32))
	r1 := runGossip(t, net, []graph.NodeID{0}, nil, 5, 400000)
	sources := []graph.NodeID{0, 5, 10, 15}
	r4 := runGossip(t, net, sources, nil, 5, 400000)
	if !r1.Solved || !r4.Solved {
		t.Fatal("incomplete")
	}
	if r4.Rounds <= r1.Rounds {
		t.Fatalf("k=4 (%d rounds) should cost more than k=1 (%d rounds)", r4.Rounds, r1.Rounds)
	}
}

func TestGossipMonitorValidation(t *testing.T) {
	net := graph.UniformDual(graph.Line(4))
	bad := []radio.Spec{
		{Problem: radio.Gossip},                                 // no sources
		{Problem: radio.Gossip, Sources: []graph.NodeID{9}},     // out of range
		{Problem: radio.Gossip, Sources: []graph.NodeID{1, 1}},  // duplicate
		{Problem: radio.Gossip, Sources: []graph.NodeID{-1, 2}}, // negative
	}
	for i, spec := range bad {
		_, err := radio.Run(radio.Config{Net: net, Algorithm: TDM{}, Spec: spec, MaxRounds: 4})
		if err == nil {
			t.Fatalf("bad spec %d accepted", i)
		}
	}
}

func TestLeaderRankDeterminism(t *testing.T) {
	a := LeaderElect{RankSeed: 7}
	if a.Rank(3) != a.Rank(3) {
		t.Fatal("rank not deterministic")
	}
	if a.Rank(3) == a.Rank(4) {
		t.Fatal("rank collision on adjacent ids (astronomically unlikely)")
	}
	if (LeaderElect{RankSeed: 8}).Rank(3) == a.Rank(3) {
		t.Fatal("rank seed has no effect")
	}
}

func TestLeaderMatchesArgmax(t *testing.T) {
	a := LeaderElect{RankSeed: 42}
	const n = 50
	leader := a.Leader(n)
	for u := 0; u < n; u++ {
		if a.Rank(u) > a.Rank(leader) {
			t.Fatalf("node %d outranks declared leader %d", u, leader)
		}
	}
}

func TestLeaderElectionConvergesOnClique(t *testing.T) {
	a := LeaderElect{RankSeed: 9}
	net := graph.UniformDual(graph.Clique(32))
	leader := a.Leader(32)
	res, err := radio.Run(radio.Config{
		Net:       net,
		Algorithm: a,
		Spec:      radio.Spec{Problem: radio.GlobalBroadcast, Source: leader},
		Seed:      1,
		MaxRounds: 100000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Solved {
		t.Fatal("leader claim did not reach everyone")
	}
}

func TestLeaderElectionConvergesStateWise(t *testing.T) {
	// White-box: after completion every process's champion is the leader.
	a := LeaderElect{RankSeed: 10}
	net := graph.UniformDual(graph.Grid(6, 6))
	leader := a.Leader(36)
	procs := a.NewProcesses(net, radio.Spec{Problem: radio.GlobalBroadcast, Source: leader}, bitrand.New(1))
	cap := &capturingAlg{procs: procs}
	res, err := radio.Run(radio.Config{
		Net:       net,
		Algorithm: cap,
		Spec:      radio.Spec{Problem: radio.GlobalBroadcast, Source: leader},
		Seed:      2,
		MaxRounds: 200000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Solved {
		t.Fatal("election incomplete")
	}
	for u, p := range procs {
		lp := p.(*leaderProc)
		champ, _ := lp.Champion()
		if champ != leader {
			t.Fatalf("node %d converged on %d, leader is %d", u, champ, leader)
		}
	}
}

// capturingAlg hands pre-built processes to the engine.
type capturingAlg struct{ procs []radio.Process }

func (c *capturingAlg) Name() string { return "captured" }

func (c *capturingAlg) NewProcesses(*graph.Dual, radio.Spec, *bitrand.Source) []radio.Process {
	return c.procs
}

func TestLeaderElectionUnderLoss(t *testing.T) {
	a := LeaderElect{RankSeed: 11}
	d, _ := graph.DualClique(64, 3)
	leader := a.Leader(64)
	res, err := radio.Run(radio.Config{
		Net:       d,
		Algorithm: a,
		Spec:      radio.Spec{Problem: radio.GlobalBroadcast, Source: leader},
		Link:      hashLoss{p: 0.5},
		Seed:      3,
		MaxRounds: 200000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Solved {
		t.Fatal("leader election incomplete under loss")
	}
}

// TestTDMSharesRumorSchedules checks that a rumor's schedule is resolved
// once, from its origin's bits, and run by pointer by every node informed of
// it, that foreign bits get a private schedule, and that an arena reset
// re-resolves the shared schedules in place without allocating.
func TestTDMSharesRumorSchedules(t *testing.T) {
	net := graph.UniformDual(graph.Clique(32))
	spec := radio.Spec{Problem: radio.Gossip, Sources: []graph.NodeID{2, 9}}
	procs := TDM{}.NewProcesses(net, spec, bitrand.New(1))
	origin := procs[9].(*tdmProc)
	shared := &origin.scheds[1]
	if origin.states[1].sched != shared || shared.Bits() != origin.states[1].msg.Payload.(rumor).bits {
		t.Fatal("origin does not run its rumor's shared schedule")
	}

	// Round 5 serves rumor 1 (k = 2); the node learns it in subsequence
	// round 3 and starts at the next block boundary.
	p := procs[4].(*tdmProc)
	p.Deliver(5, origin.states[1].msg)
	st := &p.states[1]
	if st.sched != shared {
		t.Fatal("informed node resolved a private schedule for the origin's bits")
	}
	if bl := shared.BlockLen(); st.start != bl {
		t.Fatalf("start = %d, want the first block boundary %d", st.start, bl)
	}

	foreign := bitrand.NewBitString(bitrand.New(2), 64)
	q := procs[5].(*tdmProc)
	q.Deliver(1, &radio.Message{Origin: 0, Payload: rumor{bits: foreign}})
	if q.states[1].sched == shared || q.states[1].sched.Bits() != foreign {
		t.Fatal("node handed foreign bits did not resolve its own schedule")
	}

	rng := bitrand.New(3)
	if !(TDM{}).ResetProcesses(procs, net, spec, rng) {
		t.Fatal("reset refused its own slab")
	}
	for u, pr := range procs {
		tp := pr.(*tdmProc)
		if &tp.scheds[0] != &origin.scheds[0] {
			t.Fatalf("node %d lost the shared schedules across reset", u)
		}
	}
	if p.states[1].sched != nil || p.states[1].informedAt != -1 {
		t.Fatal("informed node survived the reset")
	}
	if shared.Bits() != origin.states[1].msg.Payload.(rumor).bits || origin.states[1].sched != shared {
		t.Fatal("reset origin does not run the shared schedule over its own bits")
	}
	if allocs := testing.AllocsPerRun(20, func() {
		(TDM{}).ResetProcesses(procs, net, spec, rng)
	}); allocs != 0 {
		t.Fatalf("ResetProcesses allocates %v times, want 0", allocs)
	}
}
