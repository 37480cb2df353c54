package main

import (
	"bytes"
	"cmp"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"strconv"

	"weboftrust/internal/graph"
	"weboftrust/internal/ratings"
	"weboftrust/internal/stats"
	"weboftrust/internal/store"
	"weboftrust/internal/synth"
)

// community is a generated community together with the latent state the
// synthetic generator drew it from. The benchmark draws its traffic from
// that state with the generator's own weights, so who asks, who writes, who
// rates and whom they trust follow the community's activity rather than
// numbers of the benchmark's choosing.
type community struct {
	cfg synth.Config
	d   *ratings.Dataset
	gt  *synth.GroundTruth
}

// writeCommunity generates cfg's community and writes the event log that
// replays it into dir; every node of a workload boots from that log. It
// returns the log's path and the community.
func writeCommunity(cfg synth.Config, dir string) (string, *community, error) {
	d, gt, err := synth.Generate(cfg)
	if err != nil {
		return "", nil, fmt.Errorf("generate community: %w", err)
	}
	path := filepath.Join(dir, "events.log")
	f, err := os.Create(path)
	if err != nil {
		return "", nil, err
	}
	if err := store.AppendDataset(store.NewLogWriter(f), d); err != nil {
		f.Close()
		return "", nil, fmt.Errorf("write event log: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", nil, err
	}
	return path, &community{cfg: cfg, d: d, gt: gt}, nil
}

// activity returns each user's activity: the heavy-tailed volume multiplier
// the generator scales a user's ratings by.
func (c *community) activity() []float64 {
	out := make([]float64, len(c.gt.Latents))
	for u, l := range c.gt.Latents {
		out[u] = l.Activity
	}
	return out
}

// newRNG returns the generator for one named stream of a seed, so each
// stream (source order, each client, ingest) is reproducible on its own.
func newRNG(seed uint64, stream string) *rand.Rand {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(stream); i++ {
		h = (h ^ uint64(stream[i])) * 1099511628211
	}
	return rand.New(rand.NewPCG(seed, h))
}

// reqKind is one request family of the workload mixes.
type reqKind int

const (
	kTopK reqKind = iota
	kAppleseed
	kMoleTrust
	kTidalTrust
	kLandmarkAppleseed
	kLandmarkMoleTrust
	kRank
	kAnomalyTop
	numKinds
)

var kindNames = [numKinds]string{
	"topk", "appleseed", "moletrust", "tidaltrust",
	"landmark-appleseed", "landmark-moletrust", "rank", "anomaly-top",
}

// path renders the request for source user (ignored by the global kinds),
// always at k=10. rid, when non-zero, tags the query with a request id the
// traced run's spans share; trustd ignores unknown parameters and the
// router forwards the raw query verbatim.
func (k reqKind) path(user int, rid uint64) string {
	b := make([]byte, 0, 64)
	switch k {
	case kTopK:
		b = append(b, "/v1/topk?user="...)
	case kAppleseed, kMoleTrust, kTidalTrust:
		b = append(b, "/v1/propagate?algo="...)
		b = append(b, algoNames[k-kAppleseed]...)
		b = append(b, "&user="...)
	case kLandmarkAppleseed, kLandmarkMoleTrust:
		b = append(b, "/v1/propagate?approx=landmark&algo="...)
		b = append(b, algoNames[k-kLandmarkAppleseed]...)
		b = append(b, "&user="...)
	case kRank:
		b = append(b, "/v1/rank?k=10"...)
	case kAnomalyTop:
		b = append(b, "/v1/anomaly/top?k=10"...)
	}
	if k != kRank && k != kAnomalyTop {
		b = strconv.AppendInt(b, int64(user), 10)
		b = append(b, "&k=10"...)
	}
	if rid != 0 {
		b = append(b, "&rid="...)
		b = strconv.AppendUint(b, rid, 10)
	}
	return string(b)
}

var algoNames = [3]string{"appleseed", "moletrust", "tidaltrust"}

// connectedUsers lists, in id order, the users with at least one edge out
// of them in the web of trust: the sources a propagation has something to
// traverse from.
func connectedUsers(g *graph.Graph) []int {
	var out []int
	for u := 0; u < g.NumNodes(); u++ {
		if g.OutDegree(u) > 0 {
			out = append(out, u)
		}
	}
	return out
}

// Hot-set sizes: the number of sources the cached-read mixes draw from.
// They are load choices, not measurements. hot-reads' three cached kinds
// per source come to about 150 keys a shard, well within each shard's
// default 512-entry result cache. Every ingest-mixed swap drops nearly all
// cached answers, so after it each hot key misses once; its smaller hot set
// keeps those misses, and the requests queued behind an appleseed miss, well
// below half of the reads, so the median stays a cached read under ingest.
const (
	hotReadsSet  = 96
	ingestHotSet = 16
)

// hotSet is the sources a cached-read mix draws from, with the weight of
// each as a request's source.
type hotSet struct {
	users   []int
	weights []float64
}

// pickHotSet returns the size most active connected users (activity
// descending, id ascending), each weighted by its activity: a user asks the
// service as often, relative to the others, as the generator made them
// rate. Connected users carry a full k=10 body in every cached answer.
func pickHotSet(activity []float64, connected []int, size int) hotSet {
	users := slices.Clone(connected)
	slices.SortStableFunc(users, func(a, b int) int { return cmp.Compare(activity[b], activity[a]) })
	users = users[:min(size, len(users))]
	weights := make([]float64, len(users))
	for i, u := range users {
		weights[i] = activity[u]
	}
	return hotSet{users: users, weights: weights}
}

// shuffled returns a copy of xs in the order one named stream of seed
// draws.
func shuffled(seed uint64, stream string, xs []int) []int {
	out := slices.Clone(xs)
	rng := newRNG(seed, stream)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// mixEntry is one request family's share of a mix, in thousandths.
type mixEntry struct {
	kind  reqKind
	share int
}

// hotMix is hot-reads' mix: per-source cached kinds plus a small share of
// the router's fan-out endpoints. The shares are assumptions; no request
// log of a deployed trust service is at hand to take them from.
var hotMix = []mixEntry{{kTopK, 450}, {kAppleseed, 250}, {kMoleTrust, 250}, {kRank, 25}, {kAnomalyTop, 25}}

// ingestMix is hotMix plus the appleseed landmark mode, whose sketch every
// swap refreshes.
var ingestMix = []mixEntry{{kTopK, 350}, {kAppleseed, 200}, {kMoleTrust, 200}, {kLandmarkAppleseed, 200}, {kRank, 25}, {kAnomalyTop, 25}}

// hotStream draws one client's request sequence: a kind by the mix's
// shares and a source by the hot set's weights.
type hotStream struct {
	rng *rand.Rand
	pop *stats.Sampler
	hot []int
	mix []mixEntry
}

// hotCycle is the request count over which a closed-loop hot-reads
// client's rate is timed: about a tenth of a second.
const hotCycle = 500

func newHotStream(seed uint64, client int, hot hotSet, mix []mixEntry) *hotStream {
	return &hotStream{rng: newRNG(seed, "hot-client-"+strconv.Itoa(client)), pop: stats.NewSampler(hot.weights), hot: hot.users, mix: mix}
}

func (s *hotStream) next() (reqKind, int) {
	r := s.rng.IntN(1000)
	kind := s.mix[len(s.mix)-1].kind
	for _, e := range s.mix {
		if r < e.share {
			kind = e.kind
			break
		}
		r -= e.share
	}
	return kind, s.hot[s.pop.Draw(s.rng)]
}

// coldRound is one lockstep round of cold-propagate, per client: groups
// of exact appleseed, exact moletrust, moletrust landmark and exact
// TidalTrust requests. Both clients run each group at the same time and
// start the next only when both have finished it, so every request runs
// beside one of its own kind; mixed freely, the clients drifted in and out
// of phase and the share of requests that ran beside a TidalTrust miss,
// whose allocations keep the collector busy, moved from run to run. The
// counts put the median among the cheap misses (moletrust and landmark,
// three fifths of the requests), whose latency held steady from run to run
// where the appleseed misses' lower half did not, while appleseed and
// TidalTrust each take about half of a round's time and so set the
// throughput. The landmark mode is moletrust's, whose sketch is cheap to
// build and refresh: an appleseed sketch refresh made every post-run swap
// swing by a fifth from run to run (ingest-mixed exercises that sketch),
// and a TidalTrust sketch (sixteen full TidalTrust vectors) took 5–10 s at
// every set-up and swap and drifted with the host's speed by more than any
// bound could absorb.
var coldRound = []struct {
	kind reqKind
	n    int
}{{kAppleseed, 24}, {kMoleTrust, 20}, {kLandmarkMoleTrust, 20}, {kTidalTrust, 1}}

func newColdPerm(seed uint64, connected []int) []int {
	return shuffled(seed, "cold-sources", connected)
}

// coldSources walks one client's sources over a seeded permutation of the
// connected users, the two clients taking alternate positions, so the
// working set (every connected user under four result kinds) is far larger
// than the result cache and nearly every request misses.
type coldSources struct {
	perm   []int
	client int
	i      int
}

func (s *coldSources) next() int {
	u := s.perm[(2*s.i+s.client)%len(s.perm)]
	s.i++
	return u
}

// batchGen produces the ingest stream: one batch per interval holding a
// new user, a new object, one review of it, batchRatings ratings and
// batchTrust trust edges. Participants are drawn as the synthetic generator
// draws them: the writer by activity and skill, raters by activity, a
// rater's older review by their interests and a tournament over rating
// count and latent quality, trust from raters by activity and generosity
// toward the writer of a review they would rate. Rating levels follow the
// community's own level frequencies. Every batch is replayed into a mirror
// builder before it is handed out, so a batch the log would reject (a
// duplicate review, rating or trust edge, a self-rating or self-trust) stops
// the benchmark here instead of poisoning trustd's tailer.
type batchGen struct {
	rng    *rand.Rand
	c      *community
	mirror *ratings.Builder
	// Per review: its writer (which the builder does not expose, so the
	// generator can skip self-ratings), latent quality and rating count.
	writers  []ratings.UserID
	quality  []float64
	numRated []int
	byCat    [][]ratings.ReviewID
	catW     []float64
	// Users by writing weight, by activity and by activity × generosity;
	// rating levels by frequency.
	authors, raters, trusters, levels *stats.Sampler
	n                                 int
}

// The batch shape is an assumption, taken from the prototype that sized the
// ingest stream.
const (
	batchRatings = 20
	batchTrust   = 3
)

func newBatchGen(seed uint64, c *community) *batchGen {
	d, gt := c.d, c.gt
	g := &batchGen{rng: newRNG(seed, "ingest"), c: c, mirror: ratings.NewBuilderFrom(d),
		quality: slices.Clone(gt.ReviewQuality), byCat: make([][]ratings.ReviewID, d.NumCategories())}
	for r, rev := range d.Reviews() {
		g.writers = append(g.writers, rev.Writer)
		g.numRated = append(g.numRated, len(d.RatingsOn(ratings.ReviewID(r))))
		cat := d.Object(rev.Object).Category
		g.byCat[cat] = append(g.byCat[cat], ratings.ReviewID(r))
	}
	for _, spec := range c.cfg.Categories {
		g.catW = append(g.catW, spec.Weight)
	}
	author, rater, truster := make([]float64, len(gt.Latents)), make([]float64, len(gt.Latents)), make([]float64, len(gt.Latents))
	for u, l := range gt.Latents {
		author[u] = l.Activity * (0.25 + 0.75*l.Skill)
		rater[u] = l.Activity
		truster[u] = l.Activity * l.Generosity
	}
	level := make([]float64, ratings.RatingLevels)
	for _, rt := range d.Ratings() {
		level[ratings.RatingLevel(rt.Value)-1]++
	}
	g.authors, g.raters, g.trusters, g.levels = stats.NewSampler(author), stats.NewSampler(rater), stats.NewSampler(truster), stats.NewSampler(level)
	return g
}

// pickReview draws the review a reader with the given category interests
// turns to: a category by interest, then the best of five reviews of it by
// ratings so far plus eight times latent quality, the generator's
// tournament. It returns false when the drawn category has no review.
func (g *batchGen) pickReview(interests []float64) (ratings.ReviewID, bool) {
	cat := stats.WeightedChoice(g.rng, interests)
	if cat < 0 || len(g.byCat[cat]) == 0 {
		return 0, false
	}
	pool := g.byCat[cat]
	score := func(r ratings.ReviewID) float64 { return float64(g.numRated[r]) + 8*g.quality[r] }
	best := pool[g.rng.IntN(len(pool))]
	for k := 1; k < 5; k++ {
		if cand := pool[g.rng.IntN(len(pool))]; score(cand) > score(best) {
			best = cand
		}
	}
	return best, true
}

// next returns the next batch's events and their encoded log bytes.
func (g *batchGen) next() ([]store.Event, []byte, error) {
	m, rng, lat := g.mirror, g.rng, g.c.gt.Latents
	newUser := ratings.UserID(m.NumUsers())
	newReview := ratings.ReviewID(m.NumReviews())
	writer := ratings.UserID(g.authors.Draw(rng))
	cat := stats.WeightedChoice(rng, lat[writer].Interests)
	evs := []store.Event{
		{Kind: store.EvAddUser, Name: "bench-user-" + strconv.Itoa(g.n)},
		{Kind: store.EvAddObject, Category: ratings.CategoryID(cat), Name: "bench-object-" + strconv.Itoa(g.n)},
		{Kind: store.EvAddReview, User: writer, Object: ratings.ObjectID(m.NumObjects())},
	}
	// Only the community's users have latents: the new user's interests are
	// the category weights.
	interests := func(u ratings.UserID) []float64 {
		if int(u) >= len(lat) {
			return g.catW
		}
		return lat[u].Interests
	}
	// The mirror only knows the batch once it is replayed, so pairs inside
	// the batch are tracked here.
	rated := map[[2]int32]bool{}
	var ratedReviews []ratings.ReviewID
	addRating := func(rater ratings.UserID, review ratings.ReviewID) bool {
		key := [2]int32{int32(rater), int32(review)}
		if rated[key] || g.writers[review] == rater || (review < newReview && m.HasRating(rater, review)) {
			return false
		}
		rated[key] = true
		ratedReviews = append(ratedReviews, review)
		evs = append(evs, store.Event{Kind: store.EvAddRating, User: rater, Review: review, Level: uint8(1 + g.levels.Draw(rng))})
		return true
	}
	g.writers = append(g.writers, writer)
	g.quality = append(g.quality, stats.NormalClamped01(rng, lat[writer].Skill, g.c.cfg.QualityNoise))
	g.numRated = append(g.numRated, 0)
	// The new user rates one review; half the rest land on the new review,
	// the others on the reviews their raters turn to.
	for {
		if r, ok := g.pickReview(interests(newUser)); ok && addRating(newUser, r) {
			break
		}
	}
	for n := 1; n < batchRatings; {
		rater := ratings.UserID(g.raters.Draw(rng))
		review, ok := newReview, true
		if n >= batchRatings/2 {
			review, ok = g.pickReview(interests(rater))
		}
		if ok && addRating(rater, review) {
			n++
		}
	}
	trusted := map[[2]int32]bool{}
	addTrust := func(from, to ratings.UserID) bool {
		key := [2]int32{int32(from), int32(to)}
		if from == to || trusted[key] || (from < newUser && to < newUser && m.HasTrust(from, to)) {
			return false
		}
		trusted[key] = true
		evs = append(evs, store.Event{Kind: store.EvAddTrust, User: from, To: to})
		return true
	}
	// The new user trusts the writer of the review they rated.
	addTrust(newUser, g.writers[ratedReviews[0]])
	for n := 1; n < batchTrust; {
		from := ratings.UserID(g.trusters.Draw(rng))
		if r, ok := g.pickReview(interests(from)); ok && addTrust(from, g.writers[r]) {
			n++
		}
	}
	if err := store.Replay(evs, m); err != nil {
		return nil, nil, fmt.Errorf("ingest batch %d is invalid: %w", g.n, err)
	}
	for _, r := range ratedReviews {
		g.numRated[r]++
	}
	g.byCat[cat] = append(g.byCat[cat], newReview)
	g.n++
	var buf bytes.Buffer
	lw := store.NewLogWriter(&buf)
	for _, ev := range evs {
		if err := lw.Append(ev); err != nil {
			return nil, nil, err
		}
	}
	if err := lw.Flush(); err != nil {
		return nil, nil, err
	}
	return evs, buf.Bytes(), nil
}
