package runsvc

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/scenario"
)

func TestParseSpecRoundTrip(t *testing.T) {
	in := Spec{
		Experiments: []string{"CHURN-broadcast", "L3.2-hitting"},
		Full:        true,
		Trials:      7,
		Seed:        42,
		Workers:     3,
		Scenario: &ScenarioSpec{
			Side: 4,
			Seed: 9,
			Gen: scenario.GenConfig{
				Epochs: 2, EpochLen: 20, Leaves: 1, Demotions: 1,
				Protected: []graph.NodeID{0, 3},
				MaxRounds: 5000,
			},
		},
	}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := ParseSpec(strings.NewReader(string(data)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip diverged:\n in: %+v\nout: %+v", in, out)
	}
}

func TestParseSpecRejectsGarbage(t *testing.T) {
	for _, tc := range []struct {
		name, body, want string
	}{
		{"unknown field", `{"experiemnts": ["F1-static-local"]}`, "unknown field"},
		{"trailing data", `{"trials": 2} {"trials": 3}`, "trailing data"},
		{"wrong type", `{"trials": "two"}`, "trials"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseSpec(strings.NewReader(tc.body))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v, want mention of %q", err, tc.want)
			}
		})
	}
}

func TestResolveSpecValidation(t *testing.T) {
	catalog := experiments.All()
	for _, tc := range []struct {
		name string
		spec Spec
		want string
	}{
		{"unknown id", Spec{Experiments: []string{"F1-nope"}}, `unknown experiment "F1-nope"`},
		{"substring is not a selection", Spec{Experiments: []string{"F1"}}, `unknown experiment "F1"`},
		{"negative trials", Spec{Trials: -1}, "trials must be in [0, 10000], got -1"},
		{"negative workers", Spec{Workers: -2}, "workers must be in [0, 256], got -2"},
		{"trials past the cap", Spec{Trials: MaxTrials + 1}, "trials must be in [0, 10000], got 10001"},
		{"huge trials", Spec{Trials: 1 << 40}, "trials must be in [0, 10000], got 1099511627776"},
		{"workers past the cap", Spec{Workers: MaxWorkers + 1}, "workers must be in [0, 256], got 257"},
		{"huge workers", Spec{Workers: 1 << 40}, "workers must be in [0, 256], got 1099511627776"},
		{"tiny scenario", Spec{Scenario: &ScenarioSpec{Side: 1, Gen: scenario.GenConfig{EpochLen: 5}}}, "side 1"},
		{"huge scenario", Spec{Scenario: &ScenarioSpec{Side: 1001, Gen: scenario.GenConfig{EpochLen: 5}}}, "side 1001"},
		{"overflowing scenario", Spec{Scenario: &ScenarioSpec{Side: 1 << 32, Gen: scenario.GenConfig{EpochLen: 5}}}, "side 4294967296"},
		{"scenario epoch geometry", Spec{Scenario: &ScenarioSpec{Side: 3, Gen: scenario.GenConfig{Epochs: 2}}}, "EpochLen"},
		{"scenario injections", Spec{Scenario: &ScenarioSpec{Side: 3, Gen: scenario.GenConfig{EpochLen: 5, InjectSources: []graph.NodeID{1}}}}, "InjectSources"},
		{"scenario protected range", Spec{Scenario: &ScenarioSpec{Side: 3, Gen: scenario.GenConfig{EpochLen: 5, Protected: []graph.NodeID{99}}}}, "out of range"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := resolveSpec(tc.spec, catalog)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v, want mention of %q", err, tc.want)
			}
		})
	}

	// The trial and worker caps are inclusive. Resolving validates only:
	// nothing is planned or started.
	atCap, err := resolveSpec(Spec{Experiments: []string{"L3.2-hitting"}, Trials: MaxTrials, Workers: MaxWorkers}, catalog)
	if err != nil {
		t.Fatalf("trials %d, workers %d: %v", MaxTrials, MaxWorkers, err)
	}
	if atCap.cfg.Trials != MaxTrials || atCap.cfg.Workers != MaxWorkers {
		t.Fatalf("resolved trials %d workers %d, want the caps", atCap.cfg.Trials, atCap.cfg.Workers)
	}

	// The side bound is inclusive: SCALE-n's largest network resolves.
	largest := Spec{Scenario: &ScenarioSpec{Side: maxScenarioSide, Gen: scenario.GenConfig{EpochLen: 5}}}
	if _, err := resolveSpec(largest, catalog); err != nil {
		t.Fatalf("side %d: %v", maxScenarioSide, err)
	}
}

func TestResolveSpecNormalizes(t *testing.T) {
	catalog := experiments.All()

	// Duplicated, unsorted selection comes back sorted and deduplicated;
	// Trials 0 becomes the quick default.
	rs, err := resolveSpec(Spec{Experiments: []string{"L3.2-hitting", "CHURN-broadcast", "L3.2-hitting"}}, catalog)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"CHURN-broadcast", "L3.2-hitting"}; !reflect.DeepEqual(rs.spec.Experiments, want) {
		t.Errorf("normalized selection = %v, want %v", rs.spec.Experiments, want)
	}
	if rs.spec.Trials != 5 || rs.cfg.Trials != 5 {
		t.Errorf("quick default trials not normalized: spec %d, cfg %d", rs.spec.Trials, rs.cfg.Trials)
	}
	if len(rs.exps) != 2 || rs.exps[0].ID != "CHURN-broadcast" {
		t.Errorf("resolved experiments = %v", rs.exps)
	}

	// Empty selection means the whole catalog.
	rs, err = resolveSpec(Spec{}, catalog)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.exps) != len(catalog) {
		t.Errorf("empty selection resolved to %d experiments, want %d", len(rs.exps), len(catalog))
	}

	// A scenario alone runs just the scenario; combined with a selection it
	// joins it, in sorted position.
	sc := &ScenarioSpec{Side: 3, Gen: scenario.GenConfig{Epochs: 1, EpochLen: 10}}
	rs, err = resolveSpec(Spec{Scenario: sc}, catalog)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.exps) != 1 || !strings.HasPrefix(rs.exps[0].ID, "CUSTOM-churn-") {
		t.Errorf("scenario-only spec resolved to %+v", rs.exps)
	}
	rs, err = resolveSpec(Spec{Experiments: []string{"L3.2-hitting", "CHURN-broadcast"}, Scenario: sc}, catalog)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.exps) != 3 {
		t.Fatalf("selection+scenario resolved to %d experiments", len(rs.exps))
	}
	for i := 1; i < len(rs.exps); i++ {
		if rs.exps[i-1].ID >= rs.exps[i].ID {
			t.Errorf("resolved experiments not sorted: %s >= %s", rs.exps[i-1].ID, rs.exps[i].ID)
		}
	}
}
