package experiments

import (
	"fmt"
	"io"

	"weboftrust/internal/core"
	"weboftrust/internal/graph"
	"weboftrust/internal/mat"
	"weboftrust/internal/propagation"
	"weboftrust/internal/ratings"
	"weboftrust/internal/stats"
	"weboftrust/internal/tables"
)

// PropagationResult is the paper's stated future work (Section V): build a
// web of trust from the derived matrix, propagate it with the trust
// inference algorithms of the related work, and compare against
// propagation over the explicit web.
//
// Three comparisons are run:
//   - TidalTrust coverage: the fraction of (source, sink) pairs an
//     algorithm can answer at all — the sparsity complaint quantified.
//   - EigenTrust rank agreement: Spearman correlation of the global trust
//     vectors computed on each web.
//   - Appleseed neighbourhood overlap: mean Jaccard overlap of the top-K
//     personalised rankings from sampled sources.
type PropagationResult struct {
	ExplicitEdges int
	DerivedEdges  int
	// GuhaEdges is the explicit web densified by Guha et al.'s
	// propagation operators (the related-work answer to sparsity, the
	// paper's reference [5]) — the yardstick the derived web is measured
	// against.
	GuhaEdges int

	CoverageExplicit float64
	CoverageDerived  float64
	CoverageGuha     float64

	// Cold-source coverage restricts to sampled sources with no explicit
	// out-trust — the users the paper's framework is for. The explicit
	// web (propagated or not) has little to offer them beyond reverse
	// edges; the derived web serves them like anyone else.
	ColdSources          int
	CoverageExplicitCold float64
	CoverageGuhaCold     float64
	CoverageDerivedCold  float64

	EigenSpearman float64

	AppleseedJaccard float64
	SampledSources   int
	TopK             int
	MaxDepth         int
}

// PropagationParams tunes the comparison.
type PropagationParams struct {
	// NumSources is how many users with explicit out-trust are sampled
	// for the per-source analyses.
	NumSources int
	// TopK sizes the Appleseed neighbourhood overlap.
	TopK int
	// MaxDepth caps TidalTrust search depth.
	MaxDepth int
	// Seed drives the source sampling.
	Seed uint64
}

// DefaultPropagationParams returns sensible experiment defaults.
func DefaultPropagationParams() PropagationParams {
	return PropagationParams{NumSources: 60, TopK: 10, MaxDepth: 4, Seed: 17}
}

// RunPropagation executes the E-X1 comparison.
func RunPropagation(env *Env, params PropagationParams) (*PropagationResult, error) {
	d := env.Dataset
	numU := d.NumUsers()

	// Explicit web: the dataset's trust edges, weight 1 (Epinions trust
	// is binary).
	var explicitEdges []graph.Edge
	for _, e := range d.TrustEdges() {
		explicitEdges = append(explicitEdges, graph.Edge{From: int(e.From), To: int(e.To), Weight: 1})
	}
	explicit, err := graph.New(numU, explicitEdges)
	if err != nil {
		return nil, err
	}

	// Derived web: the binarised T̂′ support carrying continuous T̂
	// weights — the denser, weighted web the framework produces, built
	// through the same artifact path trustd serves (core.BuildWeb).
	// Users with no explicit trust cannot calibrate their own generosity
	// k_i; in a deployment the framework serves exactly those cold-start
	// users, so they fall back to the population's mean positive
	// generosity (the paper's framework "does not rely on a web of
	// trust"; only the binarisation threshold needs a default) — the
	// web policy's ColdGenerosity knob.
	k := core.Generosity(d)
	var kSum float64
	kPos := 0
	for _, v := range k {
		if v > 0 {
			kSum += v
			kPos++
		}
	}
	meanK := 0.0
	if kPos > 0 {
		meanK = kSum / float64(kPos)
	}
	web, err := core.BuildWeb(d, env.Artifacts.Trust,
		core.WebPolicy{Policy: core.PerUserTopK, ColdGenerosity: meanK}, 0)
	if err != nil {
		return nil, err
	}
	derived := web.Graph()

	res := &PropagationResult{
		ExplicitEdges: explicit.NumEdges(),
		DerivedEdges:  derived.NumEdges(),
		TopK:          params.TopK,
		MaxDepth:      params.MaxDepth,
	}

	// Sample sources among active raters — the population the framework
	// targets. Many of them have little or no explicit trust, which is
	// precisely the sparsity problem the derived web is meant to solve.
	rng := stats.NewRand(params.Seed)
	var candidates []int
	for u := 0; u < numU; u++ {
		if len(d.RatingsBy(ratings.UserID(u))) > 0 {
			candidates = append(candidates, u)
		}
	}
	sources := sampleInts(rng, candidates, params.NumSources)
	res.SampledSources = len(sources)

	tt := propagation.TidalTrust{MaxDepth: params.MaxDepth}
	res.CoverageExplicit = tt.Coverage(explicit, sources)
	res.CoverageDerived = tt.Coverage(derived, sources)

	// Related-work comparison: densify the explicit web with Guha et
	// al.'s operators and measure the coverage it buys. The derived web
	// needs no explicit trust at all and should still come out ahead.
	explicitCSR := mat.NewBuilder(numU, numU)
	for _, e := range d.TrustEdges() {
		explicitCSR.Set(int(e.From), int(e.To), 1)
	}
	guhaMat, err := propagation.DefaultGuha().Propagate(explicitCSR.Build())
	if err != nil {
		return nil, err
	}
	var guhaEdges []graph.Edge
	for i := 0; i < numU; i++ {
		cols, vals := guhaMat.Row(i)
		for n, j := range cols {
			if int(j) != i && vals[n] > 0 {
				guhaEdges = append(guhaEdges, graph.Edge{From: i, To: int(j), Weight: vals[n]})
			}
		}
	}
	guha, err := graph.New(numU, guhaEdges)
	if err != nil {
		return nil, err
	}
	res.GuhaEdges = guha.NumEdges()
	res.CoverageGuha = tt.Coverage(guha, sources)

	var cold []int
	for _, s := range sources {
		if len(d.TrustedBy(ratings.UserID(s))) == 0 {
			cold = append(cold, s)
		}
	}
	res.ColdSources = len(cold)
	if len(cold) > 0 {
		res.CoverageExplicitCold = tt.Coverage(explicit, cold)
		res.CoverageGuhaCold = tt.Coverage(guha, cold)
		res.CoverageDerivedCold = tt.Coverage(derived, cold)
	}

	et := propagation.DefaultEigenTrust()
	rankE, _, err := et.Ranks(explicit)
	if err != nil {
		return nil, err
	}
	rankD, _, err := et.Ranks(derived)
	if err != nil {
		return nil, err
	}
	res.EigenSpearman = stats.Spearman(rankE, rankD)

	as := propagation.DefaultAppleseed()
	var jaccardSum float64
	jaccardN := 0
	for _, s := range sources {
		re, err := as.Rank(explicit, s)
		if err != nil {
			return nil, err
		}
		rd, err := as.Rank(derived, s)
		if err != nil {
			return nil, err
		}
		topE := core.RankRow(re, params.TopK)
		topD := core.RankRow(rd, params.TopK)
		if len(topE) == 0 && len(topD) == 0 {
			continue
		}
		jaccardSum += jaccard(topE, topD)
		jaccardN++
	}
	if jaccardN > 0 {
		res.AppleseedJaccard = jaccardSum / float64(jaccardN)
	}
	return res, nil
}

func sampleInts(rng interface{ IntN(int) int }, pool []int, n int) []int {
	if n >= len(pool) {
		out := make([]int, len(pool))
		copy(out, pool)
		return out
	}
	// Partial Fisher-Yates over a copy.
	cp := make([]int, len(pool))
	copy(cp, pool)
	for i := 0; i < n; i++ {
		j := i + rng.IntN(len(cp)-i)
		cp[i], cp[j] = cp[j], cp[i]
	}
	return cp[:n]
}

// jaccard compares the user ids of two rankings as sets.
func jaccard(a, b []core.Ranked) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	set := make(map[ratings.UserID]bool, len(a))
	for _, x := range a {
		set[x.User] = true
	}
	inter := 0
	for _, x := range b {
		if set[x.User] {
			inter++
		}
	}
	union := len(a) + len(b) - inter
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}

// Render prints the comparison table.
func (r *PropagationResult) Render(w io.Writer) error {
	t := tables.New("Metric", "Explicit web (T)", "Guha-propagated T", "Derived web (T̂')").
		Title("E-X1 - PROPAGATION OVER DERIVED vs EXPLICIT WEB OF TRUST (paper's future work)").
		AlignRight(1, 2, 3)
	t.AddRow("Edges", r.ExplicitEdges, r.GuhaEdges, r.DerivedEdges)
	t.AddRow(fmt.Sprintf("TidalTrust coverage (depth<=%d)", r.MaxDepth),
		fmt.Sprintf("%.3f", r.CoverageExplicit),
		fmt.Sprintf("%.3f", r.CoverageGuha),
		fmt.Sprintf("%.3f", r.CoverageDerived))
	t.AddRow(fmt.Sprintf("... cold sources only (%d of %d)", r.ColdSources, r.SampledSources),
		fmt.Sprintf("%.3f", r.CoverageExplicitCold),
		fmt.Sprintf("%.3f", r.CoverageGuhaCold),
		fmt.Sprintf("%.3f", r.CoverageDerivedCold))
	if err := t.Render(w); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w,
		"EigenTrust global-rank Spearman between webs: %.3f\n"+
			"Appleseed top-%d neighbourhood Jaccard (mean over %d sources): %.3f\n",
		r.EigenSpearman, r.TopK, r.SampledSources, r.AppleseedJaccard)
	return err
}
