// Command dgsim runs a single dual graph broadcast simulation and reports
// the outcome, optionally with a round-by-round trace.
//
// Examples:
//
//	dgsim -topology dualclique -n 256 -alg permuted-global -adversary presample
//	dgsim -topology geogrid -n 64 -alg geo-local -problem local -adversary randomloss -trace
//	dgsim -topology bracelet -n 512 -alg aloha -problem local -adversary presample
//	dgsim -topology geogrid -n 64 -scenario 'epochs=4,len=32,leaves=4,demotions=8' -trace
//	dgsim -topology line -n 48 -scenario 'epochs=6,storms=96' -adversary churnwindow
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/adversary"
	"repro/internal/bitrand"
	"repro/internal/core"
	"repro/internal/gossip"
	"repro/internal/graph"
	"repro/internal/radio"
	"repro/internal/scenario"
	"repro/internal/trace"
	"repro/internal/viz"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "dgsim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("dgsim", flag.ContinueOnError)
	var (
		topology  = fs.String("topology", "dualclique", "network: dualclique, bracelet, geogrid, line, clique, geo")
		n         = fs.Int("n", 256, "target network size")
		algName   = fs.String("alg", "decay-global", "algorithm: decay-global, permuted-global, decay-local, geo-local, geo-local-noseeds, round-robin, derand, aloha, permuted-local-uncoordinated, gossip-tdm, leader-elect")
		problem   = fs.String("problem", "global", "problem: global, local, or gossip")
		advName   = fs.String("adversary", "none", "adversary: none, all, randomloss, bursty, densesparse, jam, presample; with -scenario also churnwindow, churnwindow-offline, churnwindow-blind")
		lossP     = fs.Float64("loss-p", 0.5, "edge presence probability for randomloss")
		seed      = fs.Uint64("seed", 1, "master seed")
		maxRounds = fs.Int("max-rounds", 0, "round budget (0 = 400·n)")
		doTrace   = fs.Bool("trace", false, "print a per-round trace")
		traceMax  = fs.Int("trace-max", 50, "maximum rounds to trace")
		scenSpec  = fs.String("scenario", "", "replay a generated churn timeline: 'epochs=E,len=L,leaves=X,demotions=Y,flips=Z,storms=S,inject=K' (all keys optional)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	net, spec, err := buildNetwork(*topology, *n, *problem, *seed)
	if err != nil {
		return err
	}
	alg, err := buildAlgorithm(*algName)
	if err != nil {
		return err
	}
	budget := *maxRounds
	if budget <= 0 {
		budget = 400 * net.N()
	}
	var (
		epochs  []radio.Epoch
		windows []bool
		degs    []scenario.Degradation
	)
	if *scenSpec != "" {
		sc, err := buildScenario(*scenSpec, net, &spec, *seed, budget)
		if err != nil {
			return err
		}
		if epochs, err = sc.Compile(); err != nil {
			return err
		}
		windows = sc.DegradedWindows()
		degs = sc.Degradation
	}
	link, err := buildAdversary(*advName, *lossP, net, windows)
	if err != nil {
		return err
	}

	var rec *radio.MemRecorder
	if *doTrace {
		rec = &radio.MemRecorder{}
	}
	cfg := radio.Config{
		Algorithm: alg,
		Spec:      spec,
		Link:      link,
		Seed:      *seed,
		MaxRounds: budget,
	}
	if epochs != nil {
		cfg.Epochs = epochs
	} else {
		cfg.Net = net
	}
	if rec != nil {
		cfg.Recorder = rec
	}
	res, err := radio.Run(cfg)
	if err != nil {
		return err
	}

	fmt.Printf("network   %s (n=%d, |E|=%d, |E'|=%d, Δ=%d)\n",
		*topology, net.N(), net.G().NumEdges(), net.GPrime().NumEdges(), net.MaxDegree())
	fmt.Printf("algorithm %s   problem %s   adversary %s   seed %d\n", alg.Name(), spec.Problem, *advName, *seed)
	if epochs != nil {
		fmt.Printf("scenario  %d epochs (timeline below); %d injections\n", len(epochs), len(spec.Injections))
		for i, ep := range epochs {
			mark := "healthy"
			if windows[i] {
				mark = "DEGRADED"
			}
			d := degs[i]
			fmt.Printf("  epoch %2d  start r=%-5d |E|=%-5d departed=%-3d demoted=%-3d gained=%-4d %s\n",
				i, ep.Start, ep.Net.G().NumEdges(), d.Departed, d.Demoted, d.Gained, mark)
		}
	}
	fmt.Printf("solved    %v in %d rounds (%d transmissions, %d deliveries)\n",
		res.Solved, res.Rounds, res.Transmissions, res.Deliveries)
	if res.InformedAt != nil {
		last, lastAt := -1, -1
		for u, at := range res.InformedAt {
			if at > lastAt {
				last, lastAt = u, at
			}
		}
		fmt.Printf("last node informed: %d at round %d\n", last, lastAt)
	}
	if curve := trace.ProgressFromResult(res); curve.Total > 0 {
		fmt.Printf("progress  %s (%d completions; half by round %d)\n",
			viz.Sparkline(toFloats(curve.Counts), 60), curve.Total, curve.TimeToFraction(0.5))
	}
	if rec != nil {
		cs := trace.AnalyzeChannel(rec)
		fmt.Printf("channel   silent %d · singleton %d · collision %d · delivering %d (utilization %.2f)\n",
			cs.SilentRounds, cs.SingletonRounds, cs.CollisionRounds, cs.DeliveringRounds, cs.Utilization())
		for _, r := range rec.Rounds {
			if r.Round >= *traceMax {
				fmt.Printf("... (%d more rounds)\n", len(rec.Rounds)-*traceMax)
				break
			}
			fmt.Printf("  r=%4d sel=%-7s tx=%3d deliveries=%d\n", r.Round, r.SelectorKind, len(r.Transmitters), len(r.Deliveries))
		}
	}
	return nil
}

func toFloats(xs []int) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}

func buildNetwork(topology string, n int, problem string, seed uint64) (*graph.Dual, radio.Spec, error) {
	var (
		net  *graph.Dual
		spec radio.Spec
		bSet []graph.NodeID
	)
	switch topology {
	case "dualclique":
		d, m := graph.DualClique(n, 3)
		net = d
		for u := 0; u < m.SizeA; u++ {
			bSet = append(bSet, u)
		}
	case "bracelet":
		d, m := graph.Bracelet(n, 1)
		net = d
		bSet = append(append(bSet, m.AHead...), m.BHead...)
	case "geogrid":
		side := 2
		for side*side < n {
			side++
		}
		net = graph.GeographicGrid(bitrand.New(seed), side, side, 0.7, 1.5)
		for u := 0; u < net.N(); u += 3 {
			bSet = append(bSet, u)
		}
	case "geo":
		net = graph.Geographic(bitrand.New(seed), graph.GeographicConfig{
			N: n, Side: float64(n) / 16, Radius: 2, GreyProb: 1,
		})
		for u := 0; u < net.N(); u += 3 {
			bSet = append(bSet, u)
		}
	case "line":
		net = graph.UniformDual(graph.Line(n))
		bSet = []graph.NodeID{0}
	case "clique":
		net = graph.UniformDual(graph.Clique(n))
		bSet = []graph.NodeID{0}
	default:
		return nil, spec, fmt.Errorf("unknown topology %q", topology)
	}
	switch problem {
	case "global":
		spec = radio.Spec{Problem: radio.GlobalBroadcast, Source: 0}
	case "local":
		spec = radio.Spec{Problem: radio.LocalBroadcast, Broadcasters: bSet}
	case "gossip":
		// Use up to four well-spread sources.
		k := 4
		if net.N() < 8 {
			k = 2
		}
		sources := make([]graph.NodeID, 0, k)
		for i := 0; i < k; i++ {
			sources = append(sources, graph.NodeID(i*net.N()/k))
		}
		spec = radio.Spec{Problem: radio.Gossip, Sources: sources}
	default:
		return nil, spec, fmt.Errorf("unknown problem %q", problem)
	}
	return net, spec, nil
}

func buildAlgorithm(name string) (radio.Algorithm, error) {
	switch strings.ToLower(name) {
	case "decay-global":
		return core.DecayGlobal{}, nil
	case "permuted-global":
		return core.PermutedGlobal{}, nil
	case "decay-local":
		return core.DecayLocal{}, nil
	case "geo-local":
		return core.GeoLocal{}, nil
	case "geo-local-noseeds":
		return core.GeoLocal{DisableSeedSharing: true}, nil
	case "round-robin":
		return core.RoundRobin{}, nil
	case "derand":
		return core.DerandBroadcast{}, nil
	case "aloha":
		return core.Aloha{P: 0.5}, nil
	case "permuted-local-uncoordinated":
		return core.PermutedLocalUncoordinated{}, nil
	case "gossip-tdm":
		return gossip.TDM{}, nil
	case "leader-elect":
		return gossip.LeaderElect{RankSeed: 77}, nil
	default:
		return nil, fmt.Errorf("unknown algorithm %q", name)
	}
}

func buildAdversary(name string, lossP float64, net *graph.Dual, windows []bool) (any, error) {
	switch strings.ToLower(name) {
	case "none":
		return nil, nil
	case "all":
		return adversary.AlwaysAll(), nil
	case "randomloss":
		return adversary.RandomLoss{P: lossP}, nil
	case "densesparse":
		return adversary.DenseSparse{C: 1}, nil
	case "jam":
		return adversary.Jam{}, nil
	case "presample":
		return adversary.Presample{C: 1, Horizon: 4 * net.N()}, nil
	case "bursty":
		return adversary.BurstyLoss{P: lossP, Burst: 16}, nil
	case "churnwindow":
		if windows == nil {
			return nil, fmt.Errorf("adversary %q needs a churn timeline; add -scenario", name)
		}
		return adversary.ChurnWindow{Windows: windows, C: 1}, nil
	case "churnwindow-offline":
		if windows == nil {
			return nil, fmt.Errorf("adversary %q needs a churn timeline; add -scenario", name)
		}
		return adversary.ChurnWindowOffline{Windows: windows}, nil
	case "churnwindow-blind":
		if windows == nil {
			return nil, fmt.Errorf("adversary %q needs a churn timeline; add -scenario", name)
		}
		return adversary.ChurnWindowOffline{Windows: windows, Invert: true}, nil
	default:
		return nil, fmt.Errorf("unknown adversary %q", name)
	}
}

// buildScenario parses the -scenario spec ('epochs=4,len=32,leaves=2,...'),
// generates the deterministic churn timeline over the run's network, and
// schedules inject=K staggered gossip rumors into spec.
func buildScenario(raw string, net *graph.Dual, spec *radio.Spec, seed uint64, budget int) (scenario.Scenario, error) {
	n := net.N()
	gen := scenario.GenConfig{
		Epochs:    4,
		EpochLen:  2 * bitrand.LogN(n),
		MaxRounds: budget,
	}
	inject := 0
	for _, field := range strings.Split(raw, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(field), "=")
		if !ok {
			return scenario.Scenario{}, fmt.Errorf("-scenario field %q: want key=value", field)
		}
		x, err := strconv.Atoi(val)
		if err != nil {
			return scenario.Scenario{}, fmt.Errorf("-scenario field %q: %v", field, err)
		}
		switch key {
		case "epochs":
			gen.Epochs = x
		case "len":
			gen.EpochLen = x
		case "leaves":
			gen.Leaves = x
		case "demotions":
			gen.Demotions = x
		case "flips":
			gen.ExtraFlips = x
		case "storms":
			gen.Storms = x
		case "inject":
			inject = x
		default:
			return scenario.Scenario{}, fmt.Errorf("-scenario key %q: want epochs, len, leaves, demotions, flips, storms, or inject", key)
		}
	}
	// The problem's protagonists must survive the churn: the source, the
	// broadcasters, and every rumor origin are protected from departure.
	switch spec.Problem {
	case radio.GlobalBroadcast:
		gen.Protected = []graph.NodeID{spec.Source}
	case radio.LocalBroadcast:
		gen.Protected = spec.Broadcasters
	case radio.Gossip:
		gen.Protected = spec.Sources
	}
	if inject > 0 {
		if spec.Problem != radio.Gossip {
			return scenario.Scenario{}, fmt.Errorf("-scenario inject=%d needs -problem gossip", inject)
		}
		if inject > n-len(spec.Sources) {
			return scenario.Scenario{}, fmt.Errorf("-scenario inject=%d: only %d nodes are free to originate a rumor (one rumor per node)", inject, n-len(spec.Sources))
		}
		taken := make(map[graph.NodeID]bool, len(spec.Sources))
		for _, s := range spec.Sources {
			taken[s] = true
		}
		for i := 0; i < inject; i++ {
			u := graph.NodeID((2*i + 1) * n / (2 * inject))
			for taken[u] {
				u = (u + 1) % graph.NodeID(n)
			}
			taken[u] = true
			gen.InjectSources = append(gen.InjectSources, u)
		}
	}
	sc, err := scenario.Generate(net, bitrand.New(seed), gen)
	if err != nil {
		return scenario.Scenario{}, err
	}
	spec.Injections = append(spec.Injections, sc.Injections...)
	return sc, nil
}
