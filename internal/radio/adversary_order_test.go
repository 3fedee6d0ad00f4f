package radio

import (
	"math"
	"testing"

	"repro/internal/bitrand"
	"repro/internal/graph"
)

// countingOblivious records how many times CommitSchedule is invoked.
type countingOblivious struct {
	commits int
	rounds  []int
}

func (c *countingOblivious) CommitSchedule(env *Env) Schedule {
	c.commits++
	return ScheduleFunc(func(r int) graph.EdgeSelector {
		c.rounds = append(c.rounds, r)
		return graph.SelectNone{}
	})
}

func TestObliviousCommittedExactlyOnce(t *testing.T) {
	link := &countingOblivious{}
	_, err := Run(Config{
		Net:       lineDual(4),
		Algorithm: coinAlg{p: 0.5},
		Spec:      Spec{Problem: GlobalBroadcast, Source: 0},
		Link:      link,
		Seed:      1,
		MaxRounds: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	if link.commits != 1 {
		t.Fatalf("CommitSchedule called %d times, want 1", link.commits)
	}
	if len(link.rounds) == 0 || link.rounds[0] != 0 {
		t.Fatalf("schedule queried rounds %v", link.rounds)
	}
}

// probCheckOnline verifies that the online adaptive view carries exact
// state-determined probabilities and no realized-coin information.
type probCheckOnline struct {
	t        *testing.T
	expected float64 // per informed node
	calls    int
}

func (o *probCheckOnline) ChooseOnline(env *Env, view *View) graph.EdgeSelector {
	o.calls++
	for _, p := range view.TransmitProbs {
		if p != 0 && math.Abs(p-o.expected) > 1e-12 {
			o.t.Fatalf("round %d: prob %v, want 0 or %v", view.Round, p, o.expected)
		}
	}
	if view.Round > 0 && view.LastTransmitters == nil {
		// LastTransmitters may legitimately be empty but not nil after
		// round 0 when someone transmitted earlier; we don't assert
		// non-nil strictly, only that probs are consistent.
		_ = view
	}
	return graph.SelectNone{}
}

func TestOnlineAdaptiveSeesProbs(t *testing.T) {
	link := &probCheckOnline{t: t, expected: 0.4}
	_, err := Run(Config{
		Net:       lineDual(5),
		Algorithm: coinAlg{p: 0.4},
		Spec:      Spec{Problem: GlobalBroadcast, Source: 0},
		Link:      link,
		Seed:      3,
		MaxRounds: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if link.calls == 0 {
		t.Fatal("online adversary never consulted")
	}
}

// txCheckOffline verifies the offline adaptive adversary sees the realized
// transmitter set matching what was actually transmitted.
type txCheckOffline struct {
	t    *testing.T
	seen [][]graph.NodeID
}

func (o *txCheckOffline) ChooseOffline(env *Env, view *View, tx []graph.NodeID) graph.EdgeSelector {
	cp := append([]graph.NodeID(nil), tx...)
	o.seen = append(o.seen, cp)
	// Realized transmitters must be a subset of nodes with positive
	// probability.
	for _, u := range tx {
		if view.TransmitProbs[u] <= 0 {
			o.t.Fatalf("round %d: node %d transmitted with prob 0", view.Round, u)
		}
	}
	return graph.SelectNone{}
}

func TestOfflineAdaptiveSeesTransmitters(t *testing.T) {
	link := &txCheckOffline{t: t}
	res, err := Run(Config{
		Net:       lineDual(5),
		Algorithm: coinAlg{p: 0.7},
		Spec:      Spec{Problem: GlobalBroadcast, Source: 0},
		Link:      link,
		Seed:      9,
		MaxRounds: 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, tx := range link.seen {
		total += len(tx)
	}
	if int64(total) != res.Transmissions {
		t.Fatalf("offline adversary saw %d transmissions, engine counted %d", total, res.Transmissions)
	}
}

func TestSumTransmitProbs(t *testing.T) {
	v := &View{TransmitProbs: []float64{0.5, -1, 0.25, 0}}
	if got := v.SumTransmitProbs(); math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("SumTransmitProbs = %v, want 0.75", got)
	}
}

func TestRecorderCapturesRounds(t *testing.T) {
	rec := &MemRecorder{}
	_, err := Run(Config{
		Net:       lineDual(4),
		Algorithm: relayAlg{},
		Spec:      Spec{Problem: GlobalBroadcast, Source: 0},
		Recorder:  rec,
		MaxRounds: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Rounds) != 3 {
		t.Fatalf("recorded %d rounds, want 3 (line of 4 floods in 3)", len(rec.Rounds))
	}
	if len(rec.Rounds[0].Transmitters) != 1 || rec.Rounds[0].Transmitters[0] != 0 {
		t.Fatalf("round 0 transmitters = %v", rec.Rounds[0].Transmitters)
	}
	if len(rec.Rounds[0].Deliveries) != 1 || rec.Rounds[0].Deliveries[0] != (Delivery{To: 1, From: 0}) {
		t.Fatalf("round 0 deliveries = %v", rec.Rounds[0].Deliveries)
	}
	if rec.Rounds[0].SelectorKind != "none" {
		t.Fatalf("selector kind = %q", rec.Rounds[0].SelectorKind)
	}
	if rec.TransmissionsIn(0, 3) != 1+2+3 {
		t.Fatalf("TransmissionsIn = %d", rec.TransmissionsIn(0, 3))
	}
}

// epochViewOnline records, per round, which topology and epoch index the
// adaptive view carried, and checks the Env contract: Net pinned to the
// base, Epochs carrying the full schedule.
type epochViewOnline struct {
	t      *testing.T
	epochs []Epoch
	nets   []*graph.Dual
}

func (o *epochViewOnline) ChooseOnline(env *Env, view *View) graph.EdgeSelector {
	if env.Net != o.epochs[0].Net {
		o.t.Fatalf("round %d: Env.Net is not the epoch-0 base network", view.Round)
	}
	if len(env.Epochs) != len(o.epochs) || env.Epochs[0].Net != o.epochs[0].Net {
		o.t.Fatalf("round %d: Env.Epochs does not carry the schedule", view.Round)
	}
	want := 0
	for i, ep := range o.epochs {
		if view.Round >= ep.Start {
			want = i
		}
	}
	if view.EpochIdx != want {
		o.t.Fatalf("round %d: view.EpochIdx = %d, want %d", view.Round, view.EpochIdx, want)
	}
	if view.Net != o.epochs[want].Net {
		o.t.Fatalf("round %d: view.Net is not epoch %d's network", view.Round, want)
	}
	o.nets = append(o.nets, view.Net)
	return graph.SelectNone{}
}

// TestAdaptiveViewTracksEpochs pins the epoch-aware visibility contract for
// adaptive links: a multi-epoch run hands them the post-swap network (and
// epoch index) through the View every round, while Env.Net stays the base.
func TestAdaptiveViewTracksEpochs(t *testing.T) {
	net0 := lineDual(4)
	rev, err := graph.NewRevision(net0).Apply([]graph.ChurnOp{{Kind: graph.ChurnRemoveEdge, U: 1, V: 2}})
	if err != nil {
		t.Fatal(err)
	}
	epochs := []Epoch{{Start: 0, Net: net0}, {Start: 5, Net: rev.Dual()}, {Start: 11, Net: net0}}
	link := &epochViewOnline{t: t, epochs: epochs}
	_, err = Run(Config{
		Epochs:           epochs,
		Algorithm:        coinAlg{p: 0.5},
		Spec:             Spec{Problem: GlobalBroadcast, Source: 0},
		Link:             link,
		Seed:             7,
		MaxRounds:        16,
		IgnoreCompletion: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(link.nets) != 16 {
		t.Fatalf("online adversary consulted %d times, want 16", len(link.nets))
	}
	// The observed topology must actually change at each swap boundary.
	if link.nets[4] != net0 || link.nets[5] != rev.Dual() || link.nets[10] != rev.Dual() || link.nets[11] != net0 {
		t.Fatal("view.Net did not track the swap boundaries")
	}
}

// scheduleCheckOblivious asserts the oblivious side of the same boundary:
// CommitSchedule runs once, before round 1, and already sees the full epoch
// schedule in its Env — commitment against churn, not observation of it.
type scheduleCheckOblivious struct {
	t      *testing.T
	epochs []Epoch
	seen   bool
}

func (c *scheduleCheckOblivious) CommitSchedule(env *Env) Schedule {
	c.seen = true
	if len(env.Epochs) != len(c.epochs) {
		c.t.Fatalf("CommitSchedule saw %d epochs, want %d", len(env.Epochs), len(c.epochs))
	}
	for i, ep := range env.Epochs {
		if ep.Net != c.epochs[i].Net || ep.Start != c.epochs[i].Start {
			c.t.Fatalf("CommitSchedule epoch %d differs from the configured schedule", i)
		}
	}
	if env.Net != c.epochs[0].Net {
		c.t.Fatal("CommitSchedule Env.Net is not the epoch-0 base")
	}
	return StaticSchedule{Selector: graph.SelectNone{}}
}

func TestObliviousCommitSeesSchedule(t *testing.T) {
	net0 := lineDual(4)
	rev, err := graph.NewRevision(net0).Apply([]graph.ChurnOp{{Kind: graph.ChurnAddEdge, U: 0, V: 3}})
	if err != nil {
		t.Fatal(err)
	}
	epochs := []Epoch{{Start: 0, Net: net0}, {Start: 4, Net: rev.Dual()}}
	link := &scheduleCheckOblivious{t: t, epochs: epochs}
	_, err = Run(Config{
		Epochs:    epochs,
		Algorithm: coinAlg{p: 0.5},
		Spec:      Spec{Problem: GlobalBroadcast, Source: 0},
		Link:      link,
		Seed:      3,
		MaxRounds: 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !link.seen {
		t.Fatal("oblivious adversary never committed")
	}
}

// hashLink is an oblivious link process including each extra edge with
// probability p, decided by a hash of (seed, round, edge) — deterministic
// and committed by construction.
type hashLink struct {
	p    float64
	seed uint64
}

func (h hashLink) CommitSchedule(env *Env) Schedule {
	seed := h.seed
	return ScheduleFunc(func(r int) graph.EdgeSelector {
		return graph.SelectFunc{F: func(u, v graph.NodeID) bool {
			k := graph.MakeEdgeKey(u, v)
			s := bitrand.New(seed^uint64(r)*0x9e3779b97f4a7c15).Split(uint64(k.U), uint64(k.V))
			return s.Coin(h.p)
		}}
	})
}

func TestCliqueCoverEquivalence(t *testing.T) {
	// PlanAuto, which takes the clique cover on clique-structured networks,
	// and the PlanScalar reference walk must produce identical executions on
	// clique-heavy and random dual graphs.
	src := bitrand.New(42)
	nets := []*graph.Dual{}
	d1, _ := graph.DualClique(16, 2)
	nets = append(nets, d1)
	d2, _ := graph.Bracelet(64, 1)
	nets = append(nets, d2)
	nets = append(nets, graph.RandomDual(src, graph.Ring(20), 0.2))

	for i, net := range nets {
		for seed := uint64(0); seed < 5; seed++ {
			run := func(plan DeliveryPlan) Result {
				res, err := Run(Config{
					Net:       net,
					Algorithm: coinAlg{p: 0.3},
					Spec:      Spec{Problem: GlobalBroadcast, Source: 0},
					Link:      hashLink{p: 0.5, seed: seed},
					Seed:      seed,
					MaxRounds: 120,
					Plan:      plan,
				})
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			plain, fast := run(PlanScalar), run(PlanAuto)
			if plain.Rounds != fast.Rounds || plain.Transmissions != fast.Transmissions ||
				plain.Deliveries != fast.Deliveries || plain.Solved != fast.Solved {
				t.Fatalf("net %d seed %d: accel mismatch: %+v vs %+v", i, seed, plain, fast)
			}
			for u := range plain.InformedAt {
				if plain.InformedAt[u] != fast.InformedAt[u] {
					t.Fatalf("net %d seed %d: InformedAt[%d] differs", i, seed, u)
				}
			}
		}
	}
}

func TestCompleteFastPathEquivalence(t *testing.T) {
	// On a complete-G' network, SelectAll triggers the fast path; the
	// semantically identical all-true SelectFunc takes the generic path.
	// Executions must match exactly.
	d, _ := graph.DualClique(12, 0)
	type allFunc struct{}
	run := func(fast bool) Result {
		var sel graph.EdgeSelector = graph.SelectAll{}
		if !fast {
			sel = graph.SelectFunc{F: func(u, v graph.NodeID) bool { return true }}
		}
		res, err := Run(Config{
			Net:       d,
			Algorithm: coinAlg{p: 0.4},
			Spec:      Spec{Problem: GlobalBroadcast, Source: 0},
			Link:      staticOblivious{sel: sel},
			Seed:      11,
			MaxRounds: 400,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	_ = allFunc{}
	a, b := run(true), run(false)
	if a.Rounds != b.Rounds || a.Transmissions != b.Transmissions || a.Deliveries != b.Deliveries {
		t.Fatalf("fast path diverges from generic path: %+v vs %+v", a, b)
	}
}

func TestNilLinkMeansProtocolModel(t *testing.T) {
	// With Link nil, extra edges never appear: node 2 in extraDual never
	// receives over the (0,2) G' edge.
	alg := &scriptAlg{plans: map[graph.NodeID]map[int]bool{0: {0: true}}}
	_, err := Run(Config{
		Net:       extraDual(),
		Algorithm: alg,
		Spec:      Spec{Problem: GlobalBroadcast, Source: 0},
		MaxRounds: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if alg.procs[2].got[0] != nil {
		t.Fatal("protocol model must not use G'-only edges")
	}
}
