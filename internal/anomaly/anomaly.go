// Package anomaly computes per-user suspicion scores from rating
// behavior and trust-graph shape — the serving tier's defensive signal
// against the attacks internal/adversary generates (DESIGN.md §13).
//
// A user's score combines three signals, each in [0, 1]:
//
//   - rating-pattern outlier: how far the user's given ratings sit from
//     the rating distributions of the categories they rate in, plus how
//     concentrated they are at the scale's extremes. Ballot stuffers and
//     slanderers rate 5-star or 1-star regardless of quality; honest
//     raters track it.
//   - graph reciprocity/clustering: how mutual and how internally
//     connected the user's neighborhood in the served web of trust is.
//     Collusion rings are near-cliques of reciprocated edges; organic
//     derived trust is overwhelmingly one-directional.
//   - rating-burst concentration: how concentrated the user's rating
//     volume is on few target writers (a Herfindahl index over the
//     direct-connection row). Sybil farms spend their whole budget on
//     one beneficiary.
//
// Scores are a pure function of (dataset, web graph): Update produces
// bit-identical results to a from-scratch Compute (pinned by test), so
// every replica of a cluster serves identical scores regardless of its
// swap cadence — the property that lets the router fan /v1/anomaly out
// to any shard.
package anomaly

import (
	"math"

	"weboftrust/internal/graph"
	"weboftrust/internal/ratings"
)

// Signal weights. Rating-pattern evidence is the strongest single
// discriminator (every attack family must emit ratings to matter);
// graph shape separates coordinated cohorts from lone zealots; burst
// concentration catches single-target farms the other two can miss.
const (
	weightRating = 0.40
	weightGraph  = 0.35
	weightBurst  = 0.25
)

// maxClusterNeighbors caps the neighborhood size the clustering term
// inspects: local clustering merges every neighbour's rows against the
// neighbour list, O(deg²) and more for a hub, and a hub with hundreds of
// neighbours is the opposite of a small tight ring, so over-cap users
// take clustering 0 instead.
const maxClusterNeighbors = 128

// defaultCatMean is the category rating mean assumed for a category
// that has no ratings yet (the scale's midpoint).
const defaultCatMean = 0.6

// Scores is one dataset version's immutable per-user suspicion state.
// Construct with Compute (full) or Update (incremental); never mutate.
type Scores struct {
	rating []float64 // rating-pattern outlier signal
	graphS []float64 // reciprocity/clustering signal
	burst  []float64 // rating-burst concentration signal
	total  []float64 // weighted combination

	// Per-category rating count and value sum — the sufficient
	// statistics behind the category means, carried across incremental
	// updates so a delta tick pays O(new ratings), not O(all ratings).
	catCount []int64
	catSum   []float64
}

// NumUsers returns the number of scored users.
func (s *Scores) NumUsers() int { return len(s.total) }

// Total returns the combined per-user suspicion vector, indexed by user
// id. The slice is shared; do not modify.
func (s *Scores) Total() []float64 { return s.total }

// Signals returns user u's per-signal breakdown.
func (s *Scores) Signals(u ratings.UserID) (rating, graphS, burst float64) {
	return s.rating[u], s.graphS[u], s.burst[u]
}

// Score returns user u's combined suspicion score.
func (s *Scores) Score(u ratings.UserID) float64 { return s.total[u] }

// MaxScore returns the largest combined score (0 for an empty community).
func (s *Scores) MaxScore() float64 {
	m := 0.0
	for _, v := range s.total {
		if v > m {
			m = v
		}
	}
	return m
}

// Compute scores every user of d against the web-of-trust graph g (which
// may be nil when no graph consumer has built one; graph signals are then
// 0). It is the from-scratch path; Update is the per-swap delta path.
func Compute(d *ratings.Dataset, g *graph.Graph) *Scores {
	s := newScores(d.NumUsers(), d.NumCategories())
	accumulateCategories(s, d, 0)
	means := s.categoryMeans()
	for u := 0; u < d.NumUsers(); u++ {
		s.rescoreUser(d, g, means, ratings.UserID(u))
	}
	return s
}

// Update advances prev — the scores of (oldD, oldG) — to (newD, newG),
// recomputing only users whose inputs could have changed: users with new
// ratings, new users, every rater in a category whose rating mean moved,
// and the graph-dirty closure (webDirty rows plus their old- and
// new-graph neighbours, whose reciprocity and clustering read those
// rows). The result is bit-identical to Compute(newD, newG); webDirty
// nil (or a nil oldG against a non-nil newG) degrades the graph side to
// a full rescore rather than guessing.
func Update(prev *Scores, oldD, newD *ratings.Dataset, oldG, newG *graph.Graph, webDirty []bool) *Scores {
	numU := newD.NumUsers()
	s := &Scores{
		rating:   growCopy(prev.rating, numU),
		graphS:   growCopy(prev.graphS, numU),
		burst:    growCopy(prev.burst, numU),
		total:    growCopy(prev.total, numU),
		catCount: growCopy(prev.catCount, newD.NumCategories()),
		catSum:   growCopy(prev.catSum, newD.NumCategories()),
	}
	accumulateCategories(s, newD, oldD.NumRatings())
	means := s.categoryMeans()

	dirty := make([]bool, numU)
	for u := oldD.NumUsers(); u < numU; u++ {
		dirty[u] = true
	}
	// New ratings dirty their rater directly and — because they move a
	// category's mean — every other rater in that category.
	touchedCat := make(map[ratings.CategoryID]bool)
	for _, rt := range newD.Ratings()[oldD.NumRatings():] {
		dirty[rt.Rater] = true
		touchedCat[newD.Review(rt.Review).Category] = true
	}
	for c := range touchedCat {
		for _, rid := range newD.ReviewsInCategory(c) {
			for _, rt := range newD.RatingsOn(rid) {
				dirty[rt.Rater] = true
			}
		}
	}
	// Graph closure: a dirty row changes its own reciprocity and
	// clustering AND that of every node whose neighbourhood contains it,
	// in either graph (an edge may have moved away). markNeighbors over
	// old and new covers both sides of every added or dropped edge.
	switch {
	case webDirty == nil && newG != nil:
		for u := range dirty {
			dirty[u] = true
		}
	case webDirty != nil:
		for u := 0; u < len(webDirty) && u < numU; u++ {
			if !webDirty[u] {
				continue
			}
			dirty[u] = true
			markNeighbors(oldG, u, dirty)
			markNeighbors(newG, u, dirty)
		}
	}
	for u := 0; u < numU; u++ {
		if dirty[u] {
			s.rescoreUser(newD, newG, means, ratings.UserID(u))
		}
	}
	return s
}

func newScores(numU, numC int) *Scores {
	return &Scores{
		rating:   make([]float64, numU),
		graphS:   make([]float64, numU),
		burst:    make([]float64, numU),
		total:    make([]float64, numU),
		catCount: make([]int64, numC),
		catSum:   make([]float64, numC),
	}
}

func growCopy[T int64 | float64](src []T, n int) []T {
	out := make([]T, n)
	copy(out, src)
	return out
}

// accumulateCategories folds ratings from index `from` onward into the
// per-category sufficient statistics, in dataset order — the same
// association a from-scratch pass uses, so incremental sums stay
// bit-identical.
func accumulateCategories(s *Scores, d *ratings.Dataset, from int) {
	for _, rt := range d.Ratings()[from:] {
		c := d.Review(rt.Review).Category
		s.catCount[c]++
		s.catSum[c] += rt.Value
	}
}

func (s *Scores) categoryMeans() []float64 {
	means := make([]float64, len(s.catCount))
	for c := range means {
		if s.catCount[c] > 0 {
			means[c] = s.catSum[c] / float64(s.catCount[c])
		} else {
			means[c] = defaultCatMean
		}
	}
	return means
}

func markNeighbors(g *graph.Graph, u int, dirty []bool) {
	if g == nil || u >= g.NumNodes() {
		return
	}
	to, _ := g.Out(u)
	for _, v := range to {
		if int(v) < len(dirty) {
			dirty[v] = true
		}
	}
	from, _ := g.In(u)
	for _, v := range from {
		if int(v) < len(dirty) {
			dirty[v] = true
		}
	}
}

// rescoreUser recomputes all of user u's signals from scratch against
// the current dataset index, category means and graph. Both Compute and
// Update funnel through it, which is what makes them agree bitwise.
func (s *Scores) rescoreUser(d *ratings.Dataset, g *graph.Graph, catMean []float64, u ratings.UserID) {
	rating, burst := ratingSignals(d, catMean, u)
	s.rating[u] = rating
	s.burst[u] = burst
	s.graphS[u] = graphSignal(g, int(u))
	s.total[u] = weightRating*rating + weightGraph*s.graphS[u] + weightBurst*burst
}

// ratingSignals computes the rating-pattern outlier and burst
// concentration signals from u's given ratings.
func ratingSignals(d *ratings.Dataset, catMean []float64, u ratings.UserID) (rating, burst float64) {
	rs := d.RatingsBy(u)
	n := len(rs)
	if n == 0 {
		return 0, 0
	}
	extreme := 0
	var devSum float64
	for _, rt := range rs {
		if rt.Value <= ratings.MinRating+1e-9 || rt.Value >= 1-1e-9 {
			extreme++
		}
		devSum += rt.Value - catMean[d.Review(rt.Review).Category]
	}
	// conf damps every signal by volume: a two-rating account can look
	// extreme by chance; a twenty-rating one cannot.
	conf := float64(n) / float64(n+4)
	extremity := float64(extreme) / float64(n)
	// Signed mean deviation: attackers push one direction systematically,
	// honest noise cancels. 0.8 is the scale's widest possible gap; the
	// 0.45 knee saturates the term at "half a scale away on average".
	dev := math.Abs(devSum) / (0.8 * float64(n))
	rating = conf * clamp01(0.45*extremity+0.55*math.Min(1, dev/0.45))

	// Burst concentration: Herfindahl index of the user's rating volume
	// over target writers, rescaled so an even spread scores 0 and a
	// single-target burst scores 1.
	var herf float64
	writers := 0
	d.ConnectionsFrom(u, func(c ratings.Connection) {
		f := float64(c.Count) / float64(n)
		herf += f * f
		writers++
	})
	if writers <= 1 {
		burst = conf
	} else {
		floor := 1 / float64(writers)
		// clamp01: an exactly even spread can land a hair below the floor
		// through float cancellation.
		burst = conf * clamp01((herf-floor)/(1-floor))
	}
	return rating, burst
}

// graphSignal computes the ring signal: the fraction of u's web
// out-edges that are reciprocated, amplified by how internally connected
// u's (capped) neighbourhood is. A user none of whose out-edges is
// reciprocated scores 0 without the clustering pass.
func graphSignal(g *graph.Graph, u int) float64 {
	if g == nil || u >= g.NumNodes() {
		return 0
	}
	to, _ := g.Out(u)
	if len(to) == 0 {
		return 0
	}
	recip := 0
	for _, v := range to {
		if _, ok := g.Weight(int(v), u); ok {
			recip++
		}
	}
	if recip == 0 {
		// conf·0·(0.35+0.65·clust) is +0 whatever the clustering.
		return 0
	}
	recipFrac := float64(recip) / float64(len(to))
	clust := 0.0
	if g.OutDegree(u)+g.InDegree(u) <= maxClusterNeighbors {
		clust = g.LocalClustering(u)
	}
	conf := float64(len(to)) / float64(len(to)+2)
	return conf * recipFrac * (0.35 + 0.65*clust)
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
