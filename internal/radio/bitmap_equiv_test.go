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

// The word-parallel delivery path must be observationally identical to the
// scalar CSR walk: same transmitters, same delivery set, same monitor
// verdicts, same per-node energy — for every adversary class and across
// epoch swaps. These tests run each configuration under PlanScalar and
// PlanBitmap with the same seed, compare everything the engine reports, and
// replay every bitmap round through the naive ReferenceDeliveries oracle (a
// three-way differential). The bitmap plan also switches the step layer from
// the Step dispatch to the engine's bulk coin loop for BulkStepper
// algorithms, so every configuration runs once more under PlanBitmap with
// its processes wrapped Step-only (stepOnly): same delivery plan, other coin
// path, identical Result required.

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
// through the naive oracle, on the network live at that round. Bitmap
// rounds report deliveries in cluster-major order rather than discovery
// order, so the lists compare as sorted sets.
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

// comparePlans is the three-way differential: it runs cfg under the scalar
// and bitmap plans with a recorder attached and fails on any observable
// difference, replays every bitmap round through ReferenceDeliveries, and
// runs cfg twice more without a recorder — under PlanAuto, the only way the
// auto plan takes the bitmap path, with its per-round fallback to the CSR
// walk below bitmapTxMin transmitters, and under PlanBitmap with the Step
// dispatch instead of the bulk coin loop — whose Results must match too.
// Every run must succeed. Per-round delivery lists compare as sets (see
// checkReference).
func comparePlans(t testing.TB, cfg radio.Config) {
	t.Helper()
	sres, srec, err := tryPlan(cfg, radio.PlanScalar, true)
	if err != nil {
		t.Fatalf("scalar: %v", err)
	}
	bres, brec, err := tryPlan(cfg, radio.PlanBitmap, true)
	if err != nil {
		t.Fatalf("bitmap: %v", err)
	}
	ares, _, err := tryPlan(cfg, radio.PlanAuto, false)
	if err != nil {
		t.Fatalf("auto: %v", err)
	}
	stepCfg := cfg
	stepCfg.Algorithm = stepOnly{cfg.Algorithm}
	stres, _, err := tryPlan(stepCfg, radio.PlanBitmap, false)
	if err != nil {
		t.Fatalf("bitmap, Step dispatch: %v", err)
	}
	if !reflect.DeepEqual(sres, bres) {
		t.Errorf("results differ:\n scalar: %+v\n bitmap: %+v", sres, bres)
	}
	if !reflect.DeepEqual(sres, ares) {
		t.Errorf("results differ:\n scalar: %+v\n auto:   %+v", sres, ares)
	}
	if !reflect.DeepEqual(bres, stres) {
		t.Errorf("coin paths differ under PlanBitmap:\n bulk: %+v\n step: %+v", bres, stres)
	}
	if len(srec.Rounds) != len(brec.Rounds) {
		t.Fatalf("round counts differ: scalar %d, bitmap %d", len(srec.Rounds), len(brec.Rounds))
	}
	for i := range srec.Rounds {
		sr, br := srec.Rounds[i], brec.Rounds[i]
		if !reflect.DeepEqual(sr.Transmitters, br.Transmitters) {
			t.Fatalf("round %d transmitters differ: scalar %v, bitmap %v", sr.Round, sr.Transmitters, br.Transmitters)
		}
		if sr.SelectorKind != br.SelectorKind {
			t.Fatalf("round %d selector kind differs: scalar %q, bitmap %q", sr.Round, sr.SelectorKind, br.SelectorKind)
		}
		radio.SortDeliveries(sr.Deliveries)
		radio.SortDeliveries(br.Deliveries)
		if !reflect.DeepEqual(sr.Deliveries, br.Deliveries) {
			t.Fatalf("round %d deliveries differ:\n scalar: %v\n bitmap: %v", sr.Round, sr.Deliveries, br.Deliveries)
		}
	}
	checkReference(t, cfg, brec)
}

// largeDuals returns substrates above the auto plan's node floor
// (bitmapMinNodes = 2048), where an unrecorded PlanAuto run takes the bitmap
// path: a reliable circulant and a ring-with-chords core with sampled
// unreliable extras. Built once and shared by the tests that need them.
var largeDuals = sync.OnceValues(func() (*graph.Dual, *graph.Dual) {
	src := bitrand.New(0xba7c4)
	return graph.UniformDual(graph.Circulant(2500, 320)),
		graph.AugmentDual(src, graph.RingChords(src, 2400, 4800), 3000)
})

func TestBitmapScalarEquivalence(t *testing.T) {
	d := denseDual(t, 96, 10, 400, 0x5ca1e)
	global := radio.Spec{Problem: radio.GlobalBroadcast, Source: 3}
	local := radio.Spec{Problem: radio.LocalBroadcast, Broadcasters: []graph.NodeID{0, 7, 19, 40, 66, 91}}
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
		// Above the node floor. A decay trickle from one source spends its
		// early rounds under bitmapTxMin (CSR walk) and its later rounds on
		// the kernel under the unrecorded auto run.
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

// FuzzBitmapScalarEquivalence is the differential fuzzer: random sparse-ish
// duals, every adversary shape, scalar vs bitmap vs the reference oracle per
// round (comparePlans). Wired into the CI fuzz-smoke job.
func FuzzBitmapScalarEquivalence(f *testing.F) {
	f.Add(uint64(1), uint16(64), uint16(40), uint16(120), uint8(0), false)
	f.Add(uint64(2), uint16(100), uint16(0), uint16(300), uint8(1), true)
	f.Add(uint64(3), uint16(33), uint16(50), uint16(80), uint8(2), false)
	f.Add(uint64(4), uint16(150), uint16(10), uint16(500), uint8(3), true)
	f.Add(uint64(5), uint16(70), uint16(70), uint16(0), uint8(4), false)
	f.Fuzz(func(t *testing.T, seed uint64, n, chords, extra uint16, selKind uint8, local bool) {
		nn := 8 + int(n)%250
		var src bitrand.Source
		src.Reseed(seed)
		d := graph.AugmentDual(&src, graph.RingChords(&src, nn, int(chords)%256), int(extra)%600)

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

	cfg := base
	cfg.Plan = radio.PlanBitmap
	cfg.UseCliqueCover = true
	if _, err := radio.Run(cfg); !errors.Is(err, radio.ErrBadConfig) {
		t.Errorf("PlanBitmap+UseCliqueCover: got err %v, want ErrBadConfig", err)
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
