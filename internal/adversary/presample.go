package adversary

import (
	"repro/internal/bitrand"
	"repro/internal/graph"
	"repro/internal/radio"
)

// Presample is the oblivious sampling adversary: the executable form of the
// Theorem 4.3 lower-bound mechanism (and of the oblivious attack on
// fixed-schedule algorithms like plain decay).
//
// Before the execution begins — which is when an oblivious link process must
// decide everything — it pre-simulates the algorithm on the same network
// with *fresh, independent randomness*, under sparse dynamics (no unreliable
// edges). This realizes the isolated broadcast functions of Lemma 4.4: the
// sampled per-round transmitter counts Y¹_r. By the concentration argument
// of Lemma 4.5, the counts of the real execution Y²_r track the sampled
// ones: rounds sampled dense (count > C·ln n) will, with high probability,
// have ≥ 2 real transmitters, and rounds sampled sparse will have O(log n).
// The committed schedule smothers sampled-dense rounds with every unreliable
// edge and isolates sampled-sparse ones.
//
// Against algorithms whose schedule is fixed or state-predictable (plain
// decay, ALOHA, uncoordinated variants) the labels are accurate and progress
// across the unreliable cut stalls. Against the Section 4.1/4.3 algorithms
// the runtime-generated shared bits decorrelate the real schedule from any
// sample — exactly the paper's separation.
//
// Under an epoch schedule (Env.Epochs), the presimulations run under the
// same schedule as the real execution: the schedule is fixed before round 1
// and therefore public, so an oblivious adversary is entitled to it just as
// it is to a static topology. The sampled transmitter counts — and hence
// the committed dense/sparse labels — then reflect each epoch's topology,
// not just epoch 0's (a swap that connects a previously isolated region
// changes who can be informed, and with it every later count).
//
// Horizon caps the presimulation length; beyond it the schedule stays
// sparse. On the bracelet network the natural horizon is the band length
// (the validity window of the isolated broadcast functions); on the dual
// clique it may be as long as the round budget.
type Presample struct {
	// C scales the dense threshold C·ln n (default 2).
	C float64
	// Floor is a lower bound on the dense threshold (default 8). The paper
	// hides this inside "for a sufficiently large constant c": a round must
	// only be smothered when ≥2 real transmitters are near-certain, because
	// a smothered round with exactly one transmitter hands the algorithm a
	// network-wide delivery. With E[|X|] below ~8, P(|X| = 1) is far from
	// negligible, so such rounds must be treated as sparse.
	Floor float64
	// Horizon is the number of presimulated rounds (default min(MaxRounds,
	// 8n)).
	Horizon int
	// Samples is the number of independent presimulations (default 3). A
	// round is labeled dense only when every sample exceeds the threshold,
	// making borderline labels conservative.
	Samples int
}

var _ radio.ObliviousLink = Presample{}

// presampleSchedule is the committed schedule: a bit per presimulated round.
type presampleSchedule struct {
	dense   []bool
	horizon int
}

// SelectorFor implements radio.Schedule.
func (s *presampleSchedule) SelectorFor(round int) graph.EdgeSelector {
	if round >= s.horizon {
		return graph.SelectNone{}
	}
	if s.dense[round] {
		return graph.SelectAll{}
	}
	return graph.SelectNone{}
}

// CommitSchedule implements radio.ObliviousLink.
func (a Presample) CommitSchedule(env *radio.Env) radio.Schedule {
	c := a.C
	if c <= 0 {
		c = 2
	}
	horizon := a.Horizon
	if horizon <= 0 {
		horizon = 8 * env.Net.N()
	}
	if horizon > env.MaxRounds {
		horizon = env.MaxRounds
	}
	samples := a.Samples
	if samples <= 0 {
		samples = 3
	}
	threshold := c * bitrand.NaturalLog(env.Net.N())
	floor := a.Floor
	if floor <= 0 {
		floor = 8
	}
	if threshold < floor {
		threshold = floor
	}

	mins := make([]float64, horizon)
	for r := range mins {
		mins[r] = -1
	}
	for s := 0; s < samples; s++ {
		counts := a.sampleOnce(env, horizon, uint64(s))
		for r := 0; r < horizon; r++ {
			v := 0.0
			if r < len(counts) {
				v = float64(counts[r])
			}
			if mins[r] < 0 || v < mins[r] {
				mins[r] = v
			}
		}
	}
	dense := make([]bool, horizon)
	for r := range dense {
		if mins[r] > threshold {
			dense[r] = true
		}
	}
	return &presampleSchedule{dense: dense, horizon: horizon}
}

// sampleOnce runs one presimulation with fresh randomness and returns the
// per-round transmitter counts.
func (a Presample) sampleOnce(env *radio.Env, horizon int, label uint64) []int {
	rec := &radio.TxCountRecorder{}
	// Fresh seed from the adversary's own committed randomness: independent
	// of the real execution's coins, as obliviousness requires.
	seed := env.Rng.Split(0x5a3b, label).Uint64()
	// The presimulation budget is the horizon, except that every scheduled
	// rumor injection must still fall inside it (the engine rejects a spec
	// whose injections can never enter); counts beyond the horizon are
	// discarded by the caller either way.
	budget := horizon
	for _, inj := range env.Spec.Injections {
		if inj.Round >= budget {
			budget = inj.Round + 1
		}
	}
	cfg := radio.Config{
		Algorithm:        env.Algorithm,
		Spec:             env.Spec,
		Link:             nil, // sparse dynamics: reliable edges only
		Seed:             seed,
		MaxRounds:        budget,
		Recorder:         rec,
		IgnoreCompletion: true, // labels must cover the whole horizon
	}
	// Pre-simulate under the execution's own topology schedule: per-epoch
	// transmitter counts, not epoch-0-only ones. Static runs keep the
	// static path.
	if len(env.Epochs) > 0 {
		cfg.Epochs = env.Epochs
	} else {
		cfg.Net = env.Net
	}
	_, err := radio.Run(cfg)
	if err != nil {
		// A presimulation failure leaves the adversary without information;
		// it degrades to the all-sparse schedule rather than aborting the
		// host execution.
		return nil
	}
	return rec.Counts
}
