package adversary

import (
	"fmt"
	"io"

	"weboftrust"
	"weboftrust/internal/anomaly"
	"weboftrust/internal/core"
	"weboftrust/internal/ratings"
	"weboftrust/internal/stats"
	"weboftrust/internal/synth"
	"weboftrust/internal/tables"
)

// The propagation algorithms every scenario measures inflation under.
var measuredAlgos = []weboftrust.PropagationAlgo{
	weboftrust.PropagateAppleseed,
	weboftrust.PropagateMoleTrust,
	weboftrust.PropagateTidalTrust,
}

// Runner executes scenarios against cached clean baselines. The zero
// value is not ready; use NewRunner.
type Runner struct {
	// TopKSources is how many honest users' TopTrusted(10) lists the
	// exposure metric samples (deterministically: lowest ids first).
	TopKSources int
	// PropSources is how many honest sources the per-algorithm
	// propagation-inflation metric averages over.
	PropSources int
	// Landmarks, when positive, measures propagation inflation through
	// the landmark-sketch composition (`?approx=landmark` serving mode)
	// with this many landmarks instead of exact traversals — pinning that
	// attack signals survive the approximation.
	Landmarks int

	baselines map[string]*baseline
}

// baseline caches one synth preset's clean community and derived model,
// shared across every scenario in a suite that uses the same preset.
type baseline struct {
	d     *ratings.Dataset
	model *weboftrust.TrustModel
	ranks []float64
}

// NewRunner returns a Runner with the default sampling sizes.
func NewRunner() *Runner {
	return &Runner{TopKSources: 100, PropSources: 15, baselines: make(map[string]*baseline)}
}

// AttackResult is one cohort's measured impact.
type AttackResult struct {
	Kind       string  `json:"kind"`
	Size       int     `json:"size"`
	Activity   int     `json:"activity"`
	Camouflage float64 `json:"camouflage"`

	Beneficiary int `json:"beneficiary"` // -1 when none
	Victim      int `json:"victim"`      // -1 when none

	// EigenTrust leaderboard positions (1 = most trusted), as /v1/rank
	// serves them. CleanRank is 0 for injected beneficiaries (no clean
	// identity to rank).
	CleanRank    int `json:"clean_rank,omitempty"`
	AttackedRank int `json:"attacked_rank,omitempty"`
	RankLift     int `json:"rank_lift,omitempty"`

	VictimCleanRank    int `json:"victim_clean_rank,omitempty"`
	VictimAttackedRank int `json:"victim_attacked_rank,omitempty"`
	VictimRankDrop     int `json:"victim_rank_drop,omitempty"`

	// Fraction of sampled honest users whose TopTrusted(10) list carries
	// the beneficiary, clean vs attacked.
	TopKExposureClean    float64 `json:"topk_exposure_clean"`
	TopKExposureAttacked float64 `json:"topk_exposure_attacked"`

	// Mean personalised trust honest sources assign the beneficiary,
	// per propagation algorithm: attacked minus clean.
	PropagationInflation map[string]float64 `json:"propagation_inflation,omitempty"`

	// Same delta for the victim — slander should drive it negative.
	VictimPropagationChange map[string]float64 `json:"victim_propagation_change,omitempty"`

	// Median anomaly score of this cohort's attackers.
	AttackerAnomalyMedian float64 `json:"attacker_anomaly_median"`
}

// ScenarioResult is one scenario's full measurement plus its verdict.
type ScenarioResult struct {
	Name          string         `json:"name"`
	Base          string         `json:"base"`
	Seed          uint64         `json:"seed"`
	CleanUsers    int            `json:"clean_users"`
	AttackedUsers int            `json:"attacked_users"`
	Attacks       []AttackResult `json:"attacks"`

	// Community-level anomaly statistics over the attacked dataset.
	HonestAnomalyMedian        float64 `json:"honest_anomaly_median"`
	AttackerAnomalyMedian      float64 `json:"attacker_anomaly_median"`
	AnomalySeparation          float64 `json:"anomaly_separation"`
	AttackersAboveHonestMedian float64 `json:"attackers_above_honest_median"`

	Failures []string `json:"failures,omitempty"`
	Passed   bool     `json:"passed"`
}

// Report aggregates a suite run, in scenario order — the JSON artifact
// CI publishes for trend tracking.
type Report struct {
	Scenarios []*ScenarioResult `json:"scenarios"`
	Passed    bool              `json:"passed"`
}

func (r *Runner) baseline(sc *Scenario) (*baseline, error) {
	key := sc.Base
	if b, ok := r.baselines[key]; ok {
		return b, nil
	}
	cfg, err := sc.BaseConfig()
	if err != nil {
		return nil, err
	}
	d, _, err := synth.Generate(cfg)
	if err != nil {
		return nil, err
	}
	model, err := weboftrust.Derive(d)
	if err != nil {
		return nil, err
	}
	ranks, _, err := model.GlobalRanks()
	if err != nil {
		return nil, err
	}
	b := &baseline{d: d, model: model, ranks: ranks}
	r.baselines[key] = b
	return b, nil
}

// Run executes one scenario: inject, re-derive, measure, assert.
func (r *Runner) Run(sc *Scenario) (*ScenarioResult, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	base, err := r.baseline(sc)
	if err != nil {
		return nil, err
	}
	attackedD, cohorts, err := Inject(base.d, sc.Attacks, sc.Seed)
	if err != nil {
		return nil, err
	}
	attacked, err := weboftrust.Derive(attackedD)
	if err != nil {
		return nil, err
	}
	attackedRanks, _, err := attacked.GlobalRanks()
	if err != nil {
		return nil, err
	}

	res := &ScenarioResult{
		Name:          sc.Name,
		Base:          sc.Base,
		Seed:          sc.Seed,
		CleanUsers:    base.d.NumUsers(),
		AttackedUsers: attackedD.NumUsers(),
	}

	// Anomaly statistics over the attacked community, scored against the
	// web the serving tier would derive from it.
	scores := anomaly.Compute(attackedD, attacked.WebOfTrust().Graph())
	totals := scores.Total()
	honest := totals[:base.d.NumUsers()]
	res.HonestAnomalyMedian = stats.Quantile(honest, 0.5)
	var allAttackers []ratings.UserID
	for _, c := range cohorts {
		allAttackers = append(allAttackers, c.Attackers...)
	}
	attackerScores := make([]float64, 0, len(allAttackers))
	above := 0
	for _, a := range allAttackers {
		attackerScores = append(attackerScores, totals[a])
		if totals[a] > res.HonestAnomalyMedian {
			above++
		}
	}
	res.AttackerAnomalyMedian = stats.Quantile(attackerScores, 0.5)
	res.AnomalySeparation = res.AttackerAnomalyMedian - res.HonestAnomalyMedian
	if len(allAttackers) > 0 {
		res.AttackersAboveHonestMedian = float64(above) / float64(len(allAttackers))
	}

	// Per-algorithm propagation vectors from sampled honest sources are
	// shared by every cohort, so compute them once per model.
	cleanProp := r.propagationMeans(base.model, base.ranks, base.d.NumUsers())
	attackedProp := r.propagationMeans(attacked, attackedRanks, base.d.NumUsers())

	for _, c := range cohorts {
		ar := AttackResult{
			Kind:        string(c.Spec.Kind),
			Size:        c.Spec.Size,
			Activity:    c.Spec.Activity,
			Camouflage:  c.Spec.Camouflage,
			Beneficiary: int(c.Beneficiary),
			Victim:      int(c.Victim),
		}
		cohortScores := make([]float64, 0, len(c.Attackers))
		for _, a := range c.Attackers {
			cohortScores = append(cohortScores, totals[a])
		}
		ar.AttackerAnomalyMedian = stats.Quantile(cohortScores, 0.5)

		if b := c.Beneficiary; b != ratings.NoUser {
			ar.AttackedRank = core.RankPosition(attackedRanks, b)
			if int(b) < base.d.NumUsers() {
				ar.CleanRank = core.RankPosition(base.ranks, b)
				ar.RankLift = ar.CleanRank - ar.AttackedRank
				ar.TopKExposureClean = r.topKExposure(base.model, b, base.d.NumUsers())
			}
			ar.TopKExposureAttacked = r.topKExposure(attacked, b, base.d.NumUsers())
			ar.PropagationInflation = make(map[string]float64, len(measuredAlgos))
			for _, algo := range measuredAlgos {
				clean := 0.0
				if int(b) < base.d.NumUsers() {
					clean = cleanProp[algo][b]
				}
				ar.PropagationInflation[algo.String()] = attackedProp[algo][b] - clean
			}
		}
		if v := c.Victim; v != ratings.NoUser {
			ar.VictimCleanRank = core.RankPosition(base.ranks, v)
			ar.VictimAttackedRank = core.RankPosition(attackedRanks, v)
			ar.VictimRankDrop = ar.VictimAttackedRank - ar.VictimCleanRank
			ar.VictimPropagationChange = make(map[string]float64, len(measuredAlgos))
			for _, algo := range measuredAlgos {
				ar.VictimPropagationChange[algo.String()] = attackedProp[algo][v] - cleanProp[algo][v]
			}
		}
		res.Attacks = append(res.Attacks, ar)
	}

	res.Failures = sc.Assert.check(res)
	res.Passed = len(res.Failures) == 0
	return res, nil
}

// RunSuite runs every scenario and aggregates the verdict.
func (r *Runner) RunSuite(scs []*Scenario) (*Report, error) {
	rep := &Report{Passed: true}
	for _, sc := range scs {
		res, err := r.Run(sc)
		if err != nil {
			return nil, fmt.Errorf("scenario %q: %w", sc.Name, err)
		}
		rep.Scenarios = append(rep.Scenarios, res)
		rep.Passed = rep.Passed && res.Passed
	}
	return rep, nil
}

// topKExposure measures how often the beneficiary appears in sampled
// honest users' top-10 trusted lists (the /v1/topk surface).
func (r *Runner) topKExposure(m *weboftrust.TrustModel, b ratings.UserID, honestUsers int) float64 {
	n := min(r.TopKSources, honestUsers)
	if n == 0 {
		return 0
	}
	hits, sources := 0, 0
	for u := 0; u < n; u++ {
		if ratings.UserID(u) == b {
			continue
		}
		sources++
		for _, rk := range m.TopTrusted(ratings.UserID(u), 10) {
			if rk.User == b {
				hits++
				break
			}
		}
	}
	if sources == 0 {
		return 0
	}
	return float64(hits) / float64(sources)
}

// propagationMeans computes, per algorithm, the mean personalised trust
// vector over the first PropSources honest sources — one propagation per
// (algo, source), shared across cohorts. In landmark mode (Landmarks > 0)
// each source's vector is the landmark-sketch composition over the
// model's rank vector — the `?approx=landmark` serving mode — so the
// inflation assertions measure what an approximating cluster would see.
func (r *Runner) propagationMeans(m *weboftrust.TrustModel, ranks []float64, honestUsers int) map[weboftrust.PropagationAlgo][]float64 {
	n := min(r.PropSources, honestUsers)
	numU := m.Dataset().NumUsers()
	var ids []int32
	if r.Landmarks > 0 {
		ids = weboftrust.SelectLandmarkIDs(ranks, r.Landmarks)
	}
	out := make(map[weboftrust.PropagationAlgo][]float64, len(measuredAlgos))
	dst := make([]float64, numU)
	for _, algo := range measuredAlgos {
		var sk *weboftrust.LandmarkSketch
		if r.Landmarks > 0 {
			var err error
			if sk, err = m.BuildLandmarkSketch(algo, ids); err != nil {
				continue
			}
		}
		mean := make([]float64, numU)
		for src := 0; src < n; src++ {
			var err error
			if sk != nil {
				err = m.ComposeLandmarks(sk, ratings.UserID(src), dst)
			} else {
				err = m.PropagateInto(algo, ratings.UserID(src), dst)
			}
			if err != nil {
				continue
			}
			for i, v := range dst {
				mean[i] += v
			}
		}
		if n > 0 {
			for i := range mean {
				mean[i] /= float64(n)
			}
		}
		out[algo] = mean
	}
	return out
}

// check evaluates every pinned assertion against the measurements,
// returning one failure string per violated bound.
func (a Assertions) check(res *ScenarioResult) []string {
	var fails []string
	failf := func(format string, args ...any) {
		fails = append(fails, fmt.Sprintf(format, args...))
	}
	for _, ar := range res.Attacks {
		if ar.Beneficiary >= 0 {
			existing := ar.Beneficiary < res.CleanUsers
			if a.MinBeneficiaryRankLift != nil && existing && ar.RankLift < *a.MinBeneficiaryRankLift {
				failf("%s: beneficiary %d rank lift %d < %d", ar.Kind, ar.Beneficiary, ar.RankLift, *a.MinBeneficiaryRankLift)
			}
			if a.MaxBeneficiaryRank != nil && ar.AttackedRank > *a.MaxBeneficiaryRank {
				failf("%s: beneficiary %d attacked rank %d > %d", ar.Kind, ar.Beneficiary, ar.AttackedRank, *a.MaxBeneficiaryRank)
			}
			if a.MinTopKExposureGain != nil && ar.TopKExposureAttacked-ar.TopKExposureClean < *a.MinTopKExposureGain {
				failf("%s: beneficiary %d topk exposure gain %.3f < %.3f", ar.Kind, ar.Beneficiary,
					ar.TopKExposureAttacked-ar.TopKExposureClean, *a.MinTopKExposureGain)
			}
			for algo, minInfl := range a.MinPropagationInflation {
				if got, ok := ar.PropagationInflation[algo]; ok && got < minInfl {
					failf("%s: beneficiary %d %s inflation %.4f < %.4f", ar.Kind, ar.Beneficiary, algo, got, minInfl)
				}
			}
		}
		if ar.Victim >= 0 {
			if a.MinVictimRankDrop != nil && ar.VictimRankDrop < *a.MinVictimRankDrop {
				failf("%s: victim %d rank drop %d < %d", ar.Kind, ar.Victim, ar.VictimRankDrop, *a.MinVictimRankDrop)
			}
			for algo, maxChange := range a.MaxVictimPropagationChange {
				if got, ok := ar.VictimPropagationChange[algo]; ok && got > maxChange {
					failf("%s: victim %d %s change %.4f > %.4f", ar.Kind, ar.Victim, algo, got, maxChange)
				}
			}
		}
	}
	if a.MinAnomalySeparation != nil && res.AnomalySeparation < *a.MinAnomalySeparation {
		failf("anomaly separation %.3f < %.3f", res.AnomalySeparation, *a.MinAnomalySeparation)
	}
	if a.MinAttackersAboveHonestMedian != nil && res.AttackersAboveHonestMedian < *a.MinAttackersAboveHonestMedian {
		failf("attackers above honest median %.3f < %.3f", res.AttackersAboveHonestMedian, *a.MinAttackersAboveHonestMedian)
	}
	return fails
}

// Render writes the scenario's measurements as tables, in the style of
// internal/experiments.
func (res *ScenarioResult) Render(w io.Writer) error {
	t := tables.New("Attack", "Size", "Rank clean→attacked", "Lift", "TopK exposure", "Anomaly median").
		Title(fmt.Sprintf("Scenario %s (base %s, %d→%d users)", res.Name, res.Base, res.CleanUsers, res.AttackedUsers)).
		AlignRight(1, 3)
	for _, ar := range res.Attacks {
		rank, lift := "—", "—"
		switch {
		case ar.Beneficiary >= 0 && ar.CleanRank > 0:
			rank = fmt.Sprintf("%d→%d", ar.CleanRank, ar.AttackedRank)
			lift = fmt.Sprintf("%+d", ar.RankLift)
		case ar.Beneficiary >= 0:
			rank = fmt.Sprintf("new→%d", ar.AttackedRank)
		case ar.Victim >= 0:
			rank = fmt.Sprintf("%d→%d", ar.VictimCleanRank, ar.VictimAttackedRank)
			lift = fmt.Sprintf("%+d", -ar.VictimRankDrop)
		}
		t.AddRow(ar.Kind, ar.Size, rank, lift,
			fmt.Sprintf("%.2f→%.2f", ar.TopKExposureClean, ar.TopKExposureAttacked),
			ar.AttackerAnomalyMedian)
	}
	if err := t.Render(w); err != nil {
		return err
	}
	a := tables.New("Honest median", "Attacker median", "Separation", "Attackers above median", "Verdict").
		Title("Anomaly detection")
	verdict := "PASS"
	if !res.Passed {
		verdict = "FAIL"
	}
	a.AddRow(res.HonestAnomalyMedian, res.AttackerAnomalyMedian, res.AnomalySeparation,
		tables.Percent(res.AttackersAboveHonestMedian), verdict)
	if err := a.Render(w); err != nil {
		return err
	}
	for _, f := range res.Failures {
		if _, err := fmt.Fprintf(w, "  FAIL: %s\n", f); err != nil {
			return err
		}
	}
	return nil
}
