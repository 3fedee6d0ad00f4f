package runsvc

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"repro/internal/experiments"
	"repro/internal/scenario"
)

// Spec is a serialized run request: the experiment selection plus every
// configuration knob that affects the output. It round-trips through JSON
// (ParseSpec rejects unknown fields), and its resolved form is what the
// content hashes are computed over, so a spec file is a complete, replayable
// description of a run.
type Spec struct {
	// Experiments selects registered experiments by exact ID. Empty means
	// every registered experiment (unless Scenario alone is submitted, which
	// runs just the scenario). Resolution sorts and deduplicates.
	Experiments []string `json:"experiments,omitempty"`
	// Full selects full-scale sweeps; the default is the quick scale.
	Full bool `json:"full,omitempty"`
	// Trials is the per-point trial count, at most MaxTrials; 0 means the
	// scale default and is normalized to it, so an explicit default and an
	// omitted one describe — and cache as — the same run.
	Trials int `json:"trials,omitempty"`
	// Seed is the base seed offset.
	Seed uint64 `json:"seed,omitempty"`
	// Workers bounds the worker pool, at most MaxWorkers; 0 means
	// GOMAXPROCS. It changes wall clock, never output, and is therefore
	// excluded from every content hash.
	Workers int `json:"workers,omitempty"`
	// Scenario, when set, adds one caller-defined churn experiment built
	// from the serialized generator config (experiments.CustomChurn).
	Scenario *ScenarioSpec `json:"scenario,omitempty"`
}

// ScenarioSpec serializes a caller-defined churn scenario: decay broadcast
// on a Side×Side geographic grid under the churn timeline Gen generates from
// Seed. The experiment's identity is the whole spec — its ID embeds a
// content hash of this struct, so distinct scenarios never collide in the
// result cache.
type ScenarioSpec struct {
	// Side is the grid side, in [2, 1000]; the network has Side² nodes.
	Side int `json:"side"`
	// Seed drives scenario generation (not trial seeding).
	Seed uint64 `json:"seed,omitempty"`
	// Gen is the churn generator config, serialized field-for-field.
	Gen scenario.GenConfig `json:"gen"`
}

// maxScenarioSide bounds ScenarioSpec.Side: 1000² = 10⁶ nodes is the
// largest network SCALE-n runs. A larger side would overflow Side² or have
// the grid builder allocate for billions of points at execute time, so it
// is refused at submit.
const maxScenarioSide = 1000

// MaxTrials and MaxWorkers bound Spec.Trials and Spec.Workers. The registry
// defaults sit far below them (5 quick and 15 full trials per point; the
// pool defaults to GOMAXPROCS), while a spec past them would have the
// service plan billions of tasks or start thousands of workers, so it is
// refused at submit, before anything is planned or started.
const (
	MaxTrials  = 10_000
	MaxWorkers = 256
)

// ParseSpec decodes one spec from JSON, rejecting unknown fields and
// trailing garbage: a typo'd knob must fail the submission, not silently run
// the default configuration.
func ParseSpec(r io.Reader) (Spec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("runsvc: parsing spec: %w", err)
	}
	if dec.More() {
		return Spec{}, fmt.Errorf("runsvc: parsing spec: trailing data after the spec object")
	}
	return s, nil
}

// resolved is a validated, normalized spec bound to runnable experiments.
type resolved struct {
	spec Spec
	cfg  experiments.Config
	exps []experiments.Experiment
}

// resolveSpec validates a spec against the catalog and normalizes it: the
// trial count becomes its effective value, the selection is sorted and
// deduplicated, and a scenario becomes a concrete experiment whose ID embeds
// the scenario's content hash. Every error names the field that failed.
func resolveSpec(spec Spec, catalog []experiments.Experiment) (resolved, error) {
	if spec.Trials < 0 || spec.Trials > MaxTrials {
		return resolved{}, fmt.Errorf("runsvc: trials must be in [0, %d], got %d", MaxTrials, spec.Trials)
	}
	if spec.Workers < 0 || spec.Workers > MaxWorkers {
		return resolved{}, fmt.Errorf("runsvc: workers must be in [0, %d], got %d", MaxWorkers, spec.Workers)
	}
	cfg := experiments.Config{
		Quick:    !spec.Full,
		Trials:   spec.Trials,
		BaseSeed: spec.Seed,
		Workers:  spec.Workers,
	}
	cfg.Trials = cfg.EffectiveTrials()
	spec.Trials = cfg.Trials

	byID := make(map[string]experiments.Experiment, len(catalog))
	for _, e := range catalog {
		byID[e.ID] = e
	}
	var sel []experiments.Experiment
	if len(spec.Experiments) > 0 {
		ids := append([]string(nil), spec.Experiments...)
		sort.Strings(ids)
		ids = dedupe(ids)
		for _, id := range ids {
			e, ok := byID[id]
			if !ok {
				return resolved{}, fmt.Errorf("runsvc: unknown experiment %q (IDs are exact; see the catalog)", id)
			}
			sel = append(sel, e)
		}
		spec.Experiments = ids
	} else if spec.Scenario == nil {
		sel = append(sel, catalog...)
	}
	if spec.Scenario != nil {
		sc := *spec.Scenario
		if sc.Side < 2 {
			return resolved{}, fmt.Errorf("runsvc: scenario side %d, need at least 2", sc.Side)
		}
		if sc.Side > maxScenarioSide {
			return resolved{}, fmt.Errorf("runsvc: scenario side %d, at most %d (%d² nodes is the largest supported network)",
				sc.Side, maxScenarioSide, maxScenarioSide)
		}
		if len(sc.Gen.InjectSources) > 0 {
			return resolved{}, fmt.Errorf("runsvc: scenario runs global broadcast only; InjectSources is not supported")
		}
		if err := sc.Gen.Validate(sc.Side * sc.Side); err != nil {
			return resolved{}, fmt.Errorf("runsvc: scenario: %w", err)
		}
		sel = append(sel, experiments.CustomChurn(ScenarioID(sc), sc.Side, sc.Seed, sc.Gen))
	}
	if len(sel) == 0 {
		return resolved{}, fmt.Errorf("runsvc: spec selects no experiments")
	}
	sort.Slice(sel, func(i, j int) bool { return sel[i].ID < sel[j].ID })
	return resolved{spec: spec, cfg: cfg, exps: sel}, nil
}

func dedupe(sorted []string) []string {
	out := sorted[:0]
	for i, s := range sorted {
		if i == 0 || s != sorted[i-1] {
			out = append(out, s)
		}
	}
	return out
}
