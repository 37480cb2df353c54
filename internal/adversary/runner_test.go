package adversary

import (
	"encoding/json"
	"strings"
	"testing"
)

const corpusDir = "../../scenarios"

// TestSeedCorpus runs the checked-in scenario suite — the same corpus
// `make attack-smoke` runs in CI — and holds it to the acceptance
// criteria: every scenario's pinned assertions pass, and anomaly scoring
// ranks the attacker cohort above the honest median in at least 5 of 6
// scenarios.
func TestSeedCorpus(t *testing.T) {
	scs, err := LoadDir(corpusDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(scs) < 6 {
		t.Fatalf("seed corpus has %d scenarios, want >= 6", len(scs))
	}
	rep, err := NewRunner().RunSuite(scs)
	if err != nil {
		t.Fatal(err)
	}
	separated := 0
	for _, res := range rep.Scenarios {
		for _, f := range res.Failures {
			t.Errorf("%s: %s", res.Name, f)
		}
		if res.AnomalySeparation > 0 {
			separated++
		}
		var sb strings.Builder
		if err := res.Render(&sb); err != nil {
			t.Fatalf("%s: render: %v", res.Name, err)
		}
		t.Logf("\n%s", sb.String())
	}
	if !rep.Passed {
		t.Error("suite verdict is fail")
	}
	if separated < 5 {
		t.Errorf("attacker cohort separated from honest median in only %d/%d scenarios, want >= 5",
			separated, len(rep.Scenarios))
	}
	if _, err := json.Marshal(rep); err != nil {
		t.Fatalf("report not JSON-serialisable: %v", err)
	}
}

// TestScenarioLoading pins loader behavior: unknown fields and invalid
// specs are rejected, valid files round-trip.
func TestScenarioLoading(t *testing.T) {
	if _, err := LoadScenario(corpusDir + "/collusion-ring.json"); err != nil {
		t.Fatalf("corpus scenario failed to load: %v", err)
	}
	if _, err := LoadDir(t.TempDir()); err == nil {
		t.Error("empty dir loaded without error")
	}
	bad := Scenario{Name: "x", Base: "nope", Attacks: []Spec{{Kind: SybilFarm, Size: 1, Activity: 1}}}
	if err := bad.Validate(); err == nil {
		t.Error("unknown base preset passed validation")
	}
	bad = Scenario{Name: "x", Base: "small"}
	if err := bad.Validate(); err == nil {
		t.Error("scenario with no attacks passed validation")
	}
	bad = Scenario{Name: "x", Base: "small",
		Attacks: []Spec{{Kind: SybilFarm, Size: 1, Activity: 1}},
		Assert:  Assertions{MinPropagationInflation: map[string]float64{"pagerank": 0}}}
	if err := bad.Validate(); err == nil {
		t.Error("unknown algorithm in assertions passed validation")
	}
}

// TestApproximateModeScenario pins that attack signals survive the
// serving tier's one approximation: the collusion-ring scenario still
// passes its assertions when the propagation-inflation metric is
// measured through 16-landmark sketch composition (the
// `?approx=landmark` serving mode) — the same configuration
// `make attack-smoke` replays.
func TestApproximateModeScenario(t *testing.T) {
	sc, err := LoadScenario(corpusDir + "/collusion-ring.json")
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner()
	r.Landmarks = 16
	res, err := r.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range res.Failures {
		t.Errorf("approximate mode: %s", f)
	}
	if !res.Passed {
		t.Error("collusion-ring fails under landmark measurement")
	}
	// The landmark-mode measurement must actually differ from the exact
	// one somewhere — otherwise the mode flag is dead.
	exact, err := NewRunner().Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i, ar := range res.Attacks {
		for algo, v := range ar.PropagationInflation {
			if exact.Attacks[i].PropagationInflation[algo] != v {
				same = false
			}
		}
	}
	if same {
		t.Error("landmark-mode inflation identical to exact mode — approximation not exercised")
	}
}
