package radio_test

import (
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/bitrand"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/radio"
)

// The accelerated delivery paths must be observationally identical to the
// scalar CSR walk: same transmitters, same delivery set, same monitor
// verdicts, same per-node energy — for every adversary class and across
// epoch swaps. These tests run each configuration under PlanScalar,
// PlanBitmap and PlanAuto (which takes the clique cover on clique-structured
// networks and the word-parallel path on large ones) with the same seed,
// compare everything the engine reports, and replay every accelerated round
// through the naive ReferenceDeliveries oracle.

// fixedLink commits a static schedule replaying one selector.
type fixedLink struct{ sel graph.EdgeSelector }

func (l fixedLink) CommitSchedule(*radio.Env) radio.Schedule {
	return radio.StaticSchedule{Selector: l.sel}
}

// flickerLink is an online adaptive adversary that rotates through all /
// none / a partial cross-cut, exercising the precomputed G and G' rows and
// the per-round scalar fallback (partial adaptive selectors have no mask).
type flickerLink struct{}

func (flickerLink) ChooseOnline(env *radio.Env, view *radio.View) graph.EdgeSelector {
	switch view.Round % 3 {
	case 0:
		return graph.SelectAll{}
	case 1:
		return graph.SelectNone{}
	}
	return graph.SelectCrossCut{InA: func(u graph.NodeID) bool { return u%3 == 0 }}
}

// denseDual builds the equivalence substrate: a circulant reliable core with
// sampled unreliable extras.
func denseDual(t testing.TB, n, deg, extra int, seed uint64) *graph.Dual {
	t.Helper()
	var src bitrand.Source
	src.Reseed(seed)
	d := graph.AugmentDual(&src, graph.Circulant(n, deg), extra)
	if d.G().NumEdges() == d.GPrime().NumEdges() {
		t.Fatal("substrate has no unreliable edges; the selector paths would be vacuous")
	}
	return d
}

// halfExtraEdges returns every other E'\E edge, for a partial static set.
func halfExtraEdges(d *graph.Dual) []graph.EdgeKey {
	var edges []graph.EdgeKey
	keep := true
	for u := 0; u < d.N(); u++ {
		for _, v := range d.ExtraNeighbors(u) {
			if v <= u {
				continue
			}
			if keep {
				edges = append(edges, graph.EdgeKey{U: u, V: v})
			}
			keep = !keep
		}
	}
	return edges
}

// tryPlan executes cfg under the given plan, with a fresh recorder attached
// when record is set.
func tryPlan(cfg radio.Config, plan radio.DeliveryPlan, record bool) (radio.Result, *radio.MemRecorder, error) {
	var rec *radio.MemRecorder
	cfg.Plan = plan
	cfg.Recorder = nil
	if record {
		rec = &radio.MemRecorder{}
		cfg.Recorder = rec
	}
	res, err := radio.Run(cfg)
	return res, rec, err
}

// checkReference replays every round recorded from an execution of cfg
// through the naive oracle, on the network live at that round. A round's
// deliveries are an unordered set (each plan reports them in its own walk
// order), so the lists compare sorted.
func checkReference(t testing.TB, cfg radio.Config, rec *radio.MemRecorder) {
	t.Helper()
	for _, r := range rec.Rounds {
		net := cfg.Net
		for _, ep := range cfg.Epochs {
			if ep.Start <= r.Round {
				net = ep.Net
			}
		}
		want := radio.ReferenceDeliveries(net, r.Selector, r.Transmitters)
		radio.SortDeliveries(want)
		got := append([]radio.Delivery(nil), r.Deliveries...)
		radio.SortDeliveries(got)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d deliveries diverge from reference:\n got:  %v\n want: %v", r.Round, got, want)
		}
	}
}

// comparePlans is the differential: it runs cfg under the scalar, bitmap
// and auto plans, each with a recorder attached, fails on any observable
// difference from the scalar run, and replays every bitmap and auto round
// through ReferenceDeliveries. Every run must succeed. Per-round delivery
// lists compare as sets (see checkReference).
func comparePlans(t testing.TB, cfg radio.Config) {
	t.Helper()
	sres, srec, err := tryPlan(cfg, radio.PlanScalar, true)
	if err != nil {
		t.Fatalf("scalar: %v", err)
	}
	for _, plan := range []radio.DeliveryPlan{radio.PlanBitmap, radio.PlanAuto} {
		res, rec, err := tryPlan(cfg, plan, true)
		if err != nil {
			t.Fatalf("%v: %v", plan, err)
		}
		if !reflect.DeepEqual(sres, res) {
			t.Errorf("results differ:\n PlanScalar: %+v\n %v: %+v", sres, plan, res)
		}
		if len(srec.Rounds) != len(rec.Rounds) {
			t.Fatalf("round counts differ: PlanScalar %d, %v %d", len(srec.Rounds), plan, len(rec.Rounds))
		}
		for i := range srec.Rounds {
			sr, pr := srec.Rounds[i], rec.Rounds[i]
			if !reflect.DeepEqual(sr.Transmitters, pr.Transmitters) {
				t.Fatalf("round %d transmitters differ: PlanScalar %v, %v %v", sr.Round, sr.Transmitters, plan, pr.Transmitters)
			}
			if sr.SelectorKind != pr.SelectorKind {
				t.Fatalf("round %d selector kind differs: PlanScalar %q, %v %q", sr.Round, sr.SelectorKind, plan, pr.SelectorKind)
			}
			radio.SortDeliveries(sr.Deliveries)
			radio.SortDeliveries(pr.Deliveries)
			if !reflect.DeepEqual(sr.Deliveries, pr.Deliveries) {
				t.Fatalf("round %d deliveries differ:\n PlanScalar: %v\n %v: %v", sr.Round, sr.Deliveries, plan, pr.Deliveries)
			}
		}
		checkReference(t, cfg, rec)
	}
}

// largeDuals returns substrates above the auto plan's node floor
// (bitmapMinNodes = 2048), where PlanAuto takes the bitmap path: a reliable
// circulant and a ring-with-chords core with sampled unreliable extras,
// neither clique-structured. Built once and shared by the tests that need
// them.
var largeDuals = sync.OnceValues(func() (*graph.Dual, *graph.Dual) {
	src := bitrand.New(0xba7c4)
	return graph.UniformDual(graph.Circulant(2500, 320)),
		graph.AugmentDual(src, graph.RingChords(src, 2400, 4800), 3000)
})

func TestBitmapScalarEquivalence(t *testing.T) {
	d := denseDual(t, 96, 10, 400, 0x5ca1e)
	global := radio.Spec{Problem: radio.GlobalBroadcast, Source: 3}
	local := radio.Spec{Problem: radio.LocalBroadcast, Broadcasters: []graph.NodeID{0, 7, 19, 40, 66, 91}}
	dc, _ := graph.DualClique(64, 5)
	circ, chords := largeDuals()
	var everyEighth []graph.NodeID
	for u := 0; u < chords.N(); u += 8 {
		everyEighth = append(everyEighth, u)
	}

	cases := []struct {
		name string
		cfg  radio.Config
	}{
		{"no-link", radio.Config{
			Net: d, Algorithm: core.DecayGlobal{}, Spec: global,
			Seed: 11, MaxRounds: 160,
		}},
		{"static-all", radio.Config{
			Net: d, Algorithm: core.DecayGlobal{}, Spec: global,
			Link: fixedLink{graph.SelectAll{}}, Seed: 12, MaxRounds: 160,
		}},
		{"static-set", radio.Config{
			Net: d, Algorithm: core.DecayGlobal{}, Spec: global,
			Link: fixedLink{graph.NewSelectSet(halfExtraEdges(d))}, Seed: 13, MaxRounds: 160,
		}},
		{"online-flicker", radio.Config{
			Net: d, Algorithm: core.DecayGlobal{}, Spec: global,
			Link: flickerLink{}, Seed: 14, MaxRounds: 160,
		}},
		{"aloha-local", radio.Config{
			Net: d, Algorithm: core.Aloha{P: 0.25}, Spec: local,
			Link: fixedLink{graph.NewSelectSet(halfExtraEdges(d))}, Seed: 15, MaxRounds: 160,
			IgnoreCompletion: true,
		}},
		{"decay-local", radio.Config{
			Net: d, Algorithm: core.DecayLocal{}, Spec: local,
			Link: flickerLink{}, Seed: 16, MaxRounds: 160,
		}},
		// The paper's dual clique is clique-structured: the auto runs take
		// the clique cover, under every selector shape.
		{"dual-clique-flicker", radio.Config{
			Net: dc, Algorithm: core.DecayGlobal{},
			Spec: radio.Spec{Problem: radio.GlobalBroadcast, Source: 9},
			Link: flickerLink{}, Seed: 18, MaxRounds: 160,
		}},
		{"dual-clique-aloha-set", radio.Config{
			Net: dc, Algorithm: core.Aloha{P: 0.1},
			Spec: radio.Spec{Problem: radio.LocalBroadcast, Broadcasters: []graph.NodeID{0, 7, 19, 40, 50}},
			Link: fixedLink{graph.NewSelectSet(halfExtraEdges(dc))}, Seed: 19, MaxRounds: 120,
			IgnoreCompletion: true,
		}},
		// Above the node floor. A decay trickle from one source spends its
		// early rounds under bitmapTxMin (CSR walk) and its later rounds on
		// the kernel under the auto run.
		{"auto-below-tx-min", radio.Config{
			Net: circ, Algorithm: core.DecayGlobal{},
			Spec: radio.Spec{Problem: radio.GlobalBroadcast, Source: 7},
			Seed: 42, MaxRounds: 256,
		}},
		// An aloha flood from every eighth node keeps every round above
		// bitmapTxMin, on the kernel over G' rows (all-edges selector).
		{"flood-linked", radio.Config{
			Net: chords, Algorithm: core.Aloha{P: 0.35},
			Spec: radio.Spec{Problem: radio.LocalBroadcast, Broadcasters: everyEighth},
			Link: fixedLink{graph.SelectAll{}}, Seed: 44, MaxRounds: 96, IgnoreCompletion: true,
		}},
		// A committed partial selector has no precomputed rows: every round
		// of the bitmap and auto runs falls back to the CSR walk.
		{"static-partial-fallback", radio.Config{
			Net: chords, Algorithm: core.Aloha{P: 0.3},
			Spec: radio.Spec{Problem: radio.LocalBroadcast, Broadcasters: []graph.NodeID{0, 500, 1500}},
			Link: fixedLink{graph.SelectCrossCut{InA: func(u graph.NodeID) bool { return u%2 == 0 }}},
			Seed: 45, MaxRounds: 96, IgnoreCompletion: true,
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { comparePlans(t, tc.cfg) })
	}

	// No problem is defined on a 0-node network: every plan, the forced
	// bitmap included, rejects it as a configuration error.
	for _, plan := range []radio.DeliveryPlan{radio.PlanAuto, radio.PlanScalar, radio.PlanBitmap} {
		_, err := radio.Run(radio.Config{
			Net: graph.UniformDual(graph.Line(0)), Algorithm: core.Aloha{P: 0.5},
			Spec: radio.Spec{Problem: radio.GlobalBroadcast}, Seed: 17, MaxRounds: 8, Plan: plan,
		})
		if !errors.Is(err, radio.ErrBadConfig) {
			t.Errorf("0-node network under %v: got err %v, want ErrBadConfig", plan, err)
		}
	}
}

// TestBitmapEquivalenceAcrossEpochs pins the swapEpoch re-plan: the mask
// rows must re-hoist per revision exactly like the CSR views, and above the
// node floor the auto plan re-derives its choice at every swap.
func TestBitmapEquivalenceAcrossEpochs(t *testing.T) {
	d0 := denseDual(t, 96, 10, 400, 0xe0)
	d1 := denseDual(t, 96, 6, 120, 0xe1)
	cfg := radio.Config{
		Epochs:    []radio.Epoch{{Start: 0, Net: d0}, {Start: 9, Net: d1}, {Start: 30, Net: d0}},
		Algorithm: core.DecayGlobal{},
		Spec:      radio.Spec{Problem: radio.GlobalBroadcast, Source: 5},
		Link:      flickerLink{},
		Seed:      21,
		MaxRounds: 200,
	}
	comparePlans(t, cfg)

	_, chords := largeDuals()
	var src bitrand.Source
	src.Reseed(0xe2)
	sparser := graph.AugmentDual(&src, graph.RingChords(&src, chords.N(), 1200), 800)
	comparePlans(t, radio.Config{
		Epochs:    []radio.Epoch{{Start: 0, Net: chords}, {Start: 12, Net: sparser}, {Start: 40, Net: chords}},
		Algorithm: core.DecayGlobal{},
		Spec:      radio.Spec{Problem: radio.GlobalBroadcast, Source: 11},
		Link:      fixedLink{graph.SelectAll{}},
		Seed:      22,
		MaxRounds: 400,
	})
}

// TestBitmapMatchesReference replays every recorded round of a bitmap
// execution through the naive O(n·Δ) oracle.
func TestBitmapMatchesReference(t *testing.T) {
	d := denseDual(t, 80, 8, 300, 0x0f)
	cfg := radio.Config{
		Net:       d,
		Algorithm: core.DecayGlobal{},
		Spec:      radio.Spec{Problem: radio.GlobalBroadcast, Source: 0},
		Link:      fixedLink{graph.NewSelectSet(halfExtraEdges(d))},
		Seed:      31,
		MaxRounds: 120,
	}
	_, rec, err := tryPlan(cfg, radio.PlanBitmap, true)
	if err != nil {
		t.Fatal(err)
	}
	checkReference(t, cfg, rec)
}

// cliqueChain builds a clique-structured reliable graph on n ≥ 8 nodes: b
// cliques of at least k ≥ 3 consecutive nodes, chained into a ring by b
// connector nodes (the highest ids), each adjacent to one random node of
// clique j and one of clique j+1. Connectors have the lowest degree and the
// highest ids, so the greedy cover keeps every clique whole and the residual
// is the ≤ 2b ≤ n/2 connector edges: PlanAuto takes the clique cover.
func cliqueChain(src *bitrand.Source, n, k int) *graph.Graph {
	b := max(1, n/(k+1))
	core := n - b
	lo := func(j int) int { return j * core / b }
	g := graph.NewBuilder(n)
	for j := 0; j < b; j++ {
		for u := lo(j); u < lo(j+1); u++ {
			for v := u + 1; v < lo(j+1); v++ {
				g.AddEdge(u, v)
			}
		}
	}
	pick := func(j int) int { return lo(j) + src.Intn(lo(j+1)-lo(j)) }
	for j := 0; j < b; j++ {
		g.AddEdge(core+j, pick(j))
		g.AddEdge(core+j, pick((j+1)%b))
	}
	return g.Build()
}

// FuzzBitmapScalarEquivalence is the differential fuzzer: random sparse-ish
// duals and clique-structured ones (selKind/5 odd: a cliqueChain core, on
// which PlanAuto takes the clique cover), every adversary shape, scalar vs
// bitmap vs auto vs the reference oracle per round (comparePlans). Wired
// into the CI fuzz-smoke job.
func FuzzBitmapScalarEquivalence(f *testing.F) {
	f.Add(uint64(1), uint16(64), uint16(40), uint16(120), uint8(0), false)
	f.Add(uint64(2), uint16(100), uint16(0), uint16(300), uint8(1), true)
	f.Add(uint64(3), uint16(33), uint16(50), uint16(80), uint8(2), false)
	f.Add(uint64(4), uint16(150), uint16(10), uint16(500), uint8(3), true)
	f.Add(uint64(5), uint16(70), uint16(70), uint16(0), uint8(4), false)
	f.Add(uint64(6), uint16(90), uint16(12), uint16(200), uint8(6), false)
	f.Add(uint64(7), uint16(120), uint16(30), uint16(400), uint8(8), true)
	f.Add(uint64(8), uint16(60), uint16(5), uint16(150), uint8(9), false)
	f.Fuzz(func(t *testing.T, seed uint64, n, chords, extra uint16, selKind uint8, local bool) {
		nn := 8 + int(n)%250
		var src bitrand.Source
		src.Reseed(seed)
		var d *graph.Dual
		if selKind/5%2 == 1 {
			k := 3 + int(chords)%14
			g := cliqueChain(&src, nn, k)
			if graph.CliqueCoverOf(g) == nil {
				t.Fatalf("cliqueChain(%d, %d) is not clique-structured", nn, k)
			}
			d = graph.AugmentDual(&src, g, int(extra)%600)
		} else {
			d = graph.AugmentDual(&src, graph.RingChords(&src, nn, int(chords)%256), int(extra)%600)
		}

		var link any
		switch selKind % 5 {
		case 1:
			link = fixedLink{graph.SelectAll{}}
		case 2:
			link = fixedLink{graph.SelectNone{}}
		case 3:
			edges := halfExtraEdges(d)
			if len(edges) == 0 {
				link = fixedLink{graph.SelectNone{}}
			} else {
				link = fixedLink{graph.NewSelectSet(edges)}
			}
		case 4:
			link = flickerLink{}
		}

		var alg radio.Algorithm
		var spec radio.Spec
		if local {
			alg = core.Aloha{P: 0.3}
			spec = radio.Spec{Problem: radio.LocalBroadcast,
				Broadcasters: []graph.NodeID{0, nn / 3, 2 * nn / 3}}
		} else {
			alg = core.DecayGlobal{}
			spec = radio.Spec{Problem: radio.GlobalBroadcast, Source: int(seed % uint64(nn))}
		}

		cfg := radio.Config{Net: d, Algorithm: alg, Spec: spec, Link: link,
			Seed: seed, MaxRounds: 64, IgnoreCompletion: local}
		comparePlans(t, cfg)
	})
}

// TestMaxRoundsGuard pins the large-n footgun fix: above
// maxDefaultRoundsNodes the 64·n² default is refused, an explicit budget is
// accepted.
func TestMaxRoundsGuard(t *testing.T) {
	big := graph.UniformDual(graph.Line(4200))
	cfg := radio.Config{
		Net:       big,
		Algorithm: core.RoundRobin{},
		Spec:      radio.Spec{Problem: radio.GlobalBroadcast, Source: 0},
	}
	_, err := radio.Run(cfg)
	if !errors.Is(err, radio.ErrBadConfig) {
		t.Fatalf("n=4200 without MaxRounds: got err %v, want ErrBadConfig", err)
	}
	// Regression: the refusal must say what was exceeded — the computed
	// default budget (64·4200² = 1128960000 rounds) and the cap it is
	// allowed up to (4096 nodes) — so the caller can act on the message.
	for _, want := range []string{"1128960000", "4096"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("guard message %q does not report %q", err.Error(), want)
		}
	}
	cfg.MaxRounds = 50
	if _, err := radio.Run(cfg); err != nil {
		t.Fatalf("n=4200 with explicit MaxRounds: %v", err)
	}

	small := graph.UniformDual(graph.Line(64))
	cfg = radio.Config{
		Net:       small,
		Algorithm: core.RoundRobin{},
		Spec:      radio.Spec{Problem: radio.GlobalBroadcast, Source: 0},
	}
	if _, err := radio.Run(cfg); err != nil {
		t.Fatalf("n=64 default MaxRounds: %v", err)
	}
}

// TestPlanValidation pins the Plan config checks.
func TestPlanValidation(t *testing.T) {
	d := graph.UniformDual(graph.Line(16))
	base := radio.Config{
		Net:       d,
		Algorithm: core.RoundRobin{},
		Spec:      radio.Spec{Problem: radio.GlobalBroadcast, Source: 0},
		MaxRounds: 32,
	}

	// DeliveryPlan(3) was the retired block-sparse plan value; the bitmap
	// plan is block-sparse now, and the old value is unknown like any other.
	for _, plan := range []radio.DeliveryPlan{-1, 3, 99} {
		cfg := base
		cfg.Plan = plan
		if _, err := radio.Run(cfg); !errors.Is(err, radio.ErrBadConfig) {
			t.Errorf("out-of-range plan %d: got err %v, want ErrBadConfig", plan, err)
		}
	}

	for plan, want := range map[radio.DeliveryPlan]string{
		radio.PlanAuto:   "PlanAuto",
		radio.PlanScalar: "PlanScalar",
		radio.PlanBitmap: "PlanBitmap",
		3:                "DeliveryPlan(3)",
	} {
		if got := plan.String(); got != want {
			t.Errorf("DeliveryPlan(%d).String() = %q, want %q", int(plan), got, want)
		}
	}
}
