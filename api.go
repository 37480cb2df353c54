package weboftrust

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"weboftrust/internal/affinity"
	"weboftrust/internal/core"
	"weboftrust/internal/propagation"
	"weboftrust/internal/ratings"
	"weboftrust/internal/shard"
)

// UserID identifies a community member; it aliases the data model's id
// type so facade results interoperate with the internal packages.
type UserID = ratings.UserID

// Dataset is the review-community input; build one with a
// ratings.Builder, a store reader, or the synth generator.
type Dataset = ratings.Dataset

// Ranked pairs a user with a derived trust score.
type Ranked = core.Ranked

// Web is the binarised web of trust derived from the continuous matrix:
// the paper's end product, carried as a pipeline artifact (generosity
// vector and the CSR graph that stores its edges) and maintained
// incrementally through Update.
type Web = core.Web

// Option customises Derive.
type Option func(*core.Config) error

// WithRiggsIterations caps the Step 1 fixed-point iterations.
func WithRiggsIterations(n int) Option {
	return func(c *core.Config) error {
		if n < 1 {
			return fmt.Errorf("weboftrust: iterations %d < 1", n)
		}
		c.Riggs.MaxIter = n
		return nil
	}
}

// WithoutExperienceDiscount disables the (1 − 1/(n+1)) inexperience
// discount in both reputation models (eqs. 2-3).
func WithoutExperienceDiscount() Option {
	return func(c *core.Config) error {
		c.Riggs.DiscountExperience = false
		c.Reputation.DiscountExperience = false
		return nil
	}
}

// WithUnratedQuality sets the quality assigned to reviews nobody rated
// (default 0).
func WithUnratedQuality(q float64) Option {
	return func(c *core.Config) error {
		if q < 0 || q > 1 {
			return fmt.Errorf("weboftrust: unrated quality %v outside [0,1]", q)
		}
		c.Riggs.UnratedQuality = q
		return nil
	}
}

// WithAffinityRatingsOnly derives affinity from rating activity alone.
func WithAffinityRatingsOnly() Option {
	return func(c *core.Config) error {
		c.AffinityMode = affinity.RatingsOnly
		return nil
	}
}

// WithAffinityWritesOnly derives affinity from writing activity alone.
func WithAffinityWritesOnly() Option {
	return func(c *core.Config) error {
		c.AffinityMode = affinity.WritesOnly
		return nil
	}
}

// WithWebThreshold switches the web-of-trust binarisation from the
// paper's per-user top-k-generosity protocol to a global threshold:
// predict a trust edge wherever T̂_ij >= tau (the A-4 ablation policy).
// The policy shapes only the graph artifact — continuous scores, top-k
// rankings and checkpoints are unaffected, and the policy is excluded
// from the configuration fingerprint.
func WithWebThreshold(tau float64) Option {
	return func(c *core.Config) error {
		if tau < 0 || tau > 1 {
			return fmt.Errorf("weboftrust: web threshold %v outside [0,1]", tau)
		}
		c.Web.Policy = core.GlobalThreshold
		c.Web.Tau = tau
		return nil
	}
}

// WithWebColdStartGenerosity sets the generosity used to binarise users
// whose own history cannot calibrate one (k_i = 0: no direct connections,
// or none carrying explicit trust). The paper's protocol gives such users
// no out-edges at all; a positive fallback lets the web serve exactly the
// cold-start users the framework exists for. Applies to the per-user
// top-k policy only.
func WithWebColdStartGenerosity(k float64) Option {
	return func(c *core.Config) error {
		if k < 0 || k > 1 {
			return fmt.Errorf("weboftrust: cold-start generosity %v outside [0,1]", k)
		}
		c.Web.ColdGenerosity = k
		return nil
	}
}

// WithShard makes the model answer for shard index of count in an N-way
// shard-by-source deployment: Owns reports the sources the cluster's
// consistent hash assigns it (see internal/shard), and serving layers
// answer only those (trustd replies 421 for the rest; internal/router
// sends each source to its owner). The option is a serving filter only:
// the model derives, updates, checkpoints and restores exactly what an
// unsharded model does, because a query from one source still walks the
// whole web. Like WithWorkers, the spec is excluded from the
// configuration fingerprint.
func WithShard(index, count int) Option {
	return func(c *core.Config) error {
		sp := shard.Spec{Index: index, Count: count}
		if count < 1 {
			return fmt.Errorf("weboftrust: shard count %d < 1", count)
		}
		if err := sp.Validate(); err != nil {
			return fmt.Errorf("weboftrust: %w", err)
		}
		c.Shard = sp
		return nil
	}
}

// WithWorkers caps the goroutines the pipeline fans out to; 0 (the
// default) means one per available CPU and 1 forces serial execution.
// Every stage shards independent work items, so the derived model is
// bitwise-identical at any setting — the knob only trades wall-clock
// time. Update inherits the setting.
func WithWorkers(n int) Option {
	return func(c *core.Config) error {
		if n < 0 {
			return fmt.Errorf("weboftrust: workers %d < 0", n)
		}
		c.Workers = n
		return nil
	}
}

// TrustModel is the derived web of trust for one dataset: a thin,
// query-oriented wrapper around the pipeline's artifacts. It is immutable
// and safe for concurrent use.
type TrustModel struct {
	cfg       core.Config
	dataset   *ratings.Dataset
	artifacts *core.Artifacts
	// webOnce/webLazy back WebOfTrust for restored models, whose
	// artifacts deliberately arrive without the graph (see Restore): the
	// first graph consumer — a propagation query, or the first
	// incremental update — builds it exactly once, off the
	// time-to-serving path. webLazy is atomic so non-forcing observers
	// (WebOfTrustBuilt) can peek without joining the Once. Models
	// produced by Derive/Update carry the graph in artifacts and never
	// touch these.
	webOnce sync.Once
	webLazy atomic.Pointer[core.Web]
}

// Derive runs the full three-step pipeline over the dataset.
func Derive(d *Dataset, opts ...Option) (*TrustModel, error) {
	cfg, err := resolveConfig(opts)
	if err != nil {
		return nil, err
	}
	art, err := cfg.Run(d)
	if err != nil {
		return nil, err
	}
	return &TrustModel{cfg: cfg, dataset: d, artifacts: art}, nil
}

func resolveConfig(opts []Option) (core.Config, error) {
	cfg := core.DefaultConfig()
	for _, opt := range opts {
		if err := opt(&cfg); err != nil {
			return cfg, err
		}
	}
	return cfg, nil
}

// Fingerprint returns the configuration fingerprint Derive(…, opts...)
// would stamp on its model: a stable hash of every option that affects
// derived values (worker count excluded — results are bitwise-identical at
// any parallelism). Persistence layers record it so a checkpoint written
// under one configuration is never restored under another.
func Fingerprint(opts ...Option) (uint64, error) {
	cfg, err := resolveConfig(opts)
	if err != nil {
		return 0, err
	}
	return cfg.Fingerprint(), nil
}

// Restore reassembles a TrustModel from persisted pipeline artifacts — the
// warm-restart path. art must carry the Riggs results and the expertise
// and affinity matrices for d exactly as a Derive with the same opts
// produced them; the derived-trust index is rebuilt deterministically from
// those matrices (see core.RehydrateArtifacts), so the restored model
// serves values bitwise-identical to the Derive it checkpoints, and
// Update continues from it exactly as it would from the original.
func Restore(d *Dataset, art *core.Artifacts, opts ...Option) (*TrustModel, error) {
	if d == nil || art == nil {
		return nil, fmt.Errorf("weboftrust: Restore requires a dataset and artifacts")
	}
	cfg, err := resolveConfig(opts)
	if err != nil {
		return nil, err
	}
	if art.Expertise == nil || art.Expertise.Rows() != d.NumUsers() || art.Expertise.Cols() != d.NumCategories() {
		return nil, fmt.Errorf("weboftrust: Restore artifacts do not match dataset %v", d)
	}
	// Fail fast on an unbuildable web policy: the graph itself is
	// rebuilt lazily (WebOfTrust), off the time-to-serving path, and
	// that build must not be able to fail.
	if err := cfg.Web.Validate(); err != nil {
		return nil, fmt.Errorf("weboftrust: Restore: %w", err)
	}
	if art.Trust == nil {
		rebuilt, err := core.RehydrateArtifacts(art.RiggsResults, art.Expertise, art.Affinity, cfg.Workers)
		if err != nil {
			return nil, fmt.Errorf("weboftrust: Restore: %w", err)
		}
		art = rebuilt
	}
	return &TrustModel{cfg: cfg, dataset: d, artifacts: art}, nil
}

// Update derives a new model for a dataset that extends this model's —
// the shape produced by replaying an append-only event log past the
// position this model was built from. It re-solves the Step 1 fixed point
// only for categories touched by the new activity and reuses the rest —
// including the web-of-trust rows, re-selected only for users whose
// inputs changed and copied from this model's graph otherwise — so it is
// much cheaper than Derive on the grown dataset while producing exactly
// the same model (it keeps the options Derive was called with, shard
// spec included).
// The receiver is unchanged and remains valid: readers can keep querying
// it while the replacement is prepared, then swap atomically.
func (m *TrustModel) Update(newD *Dataset) (*TrustModel, error) {
	art := m.artifacts
	if art.Web == nil {
		// A restored model defers its graph build to here (or to the
		// first graph query): materialise it so the incremental web
		// maintenance has a predecessor to copy rows from.
		web := m.WebOfTrust()
		cp := *art
		cp.Web = web
		art = &cp
	}
	art, err := m.cfg.Update(art, m.dataset, newD)
	if err != nil {
		return nil, err
	}
	return &TrustModel{cfg: m.cfg, dataset: newD, artifacts: art}, nil
}

// DirtyUsers returns, for a model produced by Update, the conservative
// set of users whose derived web row (and so any per-source result) may
// differ from the model Update was called on; users not marked are
// provably unchanged — Update copied their rows from that model's graph
// instead of re-selecting them. It returns nil for models built by Derive
// or Restore. The slice is shared; do not modify it.
func (m *TrustModel) DirtyUsers() []bool {
	if web, ok := m.WebOfTrustBuilt(); ok {
		return web.DirtyUsers()
	}
	return nil
}

// Score returns the degree of trust T̂_ij user i holds for user j, in
// [0, 1]. Zero means no overlap between i's interests and j's expertise.
// Single cells are evaluated through the expert-score index (one binary
// search per interest) when i's affinity is narrow relative to the
// category count, and through the dense eq. 5 dot otherwise; both routes
// return the identical value.
func (m *TrustModel) Score(i, j UserID) float64 {
	return m.artifacts.Trust.Value(i, j)
}

// TopTrusted returns the k users with the highest derived trust from user
// u's point of view, best first, excluding u and zero scores. The row is
// evaluated through the sparse expert-score index when u's interests are
// narrow, and ranked with a bounded heap (O(U log k), O(k) working
// memory), so the cost tracks the community's sparsity rather than U·C.
func (m *TrustModel) TopTrusted(u UserID, k int) []Ranked {
	return m.artifacts.Trust.TopTrusted(u, k)
}

// Expertise returns user u's reputation in every category, indexed by
// CategoryID. The returned slice is shared; do not modify it.
func (m *TrustModel) Expertise(u UserID) []float64 {
	return m.artifacts.Expertise.Row(int(u))
}

// Affinity returns user u's affiliation with every category, indexed by
// CategoryID. The returned slice is shared; do not modify it.
func (m *TrustModel) Affinity(u UserID) []float64 {
	return m.artifacts.Trust.AffinityRow(u)
}

// ShardSpec returns this model's slice of the shard-by-source
// deployment: (0, 1) for an unsharded model.
func (m *TrustModel) ShardSpec() (index, count int) {
	sp := m.cfg.Shard.Canon()
	return sp.Index, sp.Count
}

// Owns reports whether u is a source this model answers for under its
// shard spec (see WithShard). Always true on an unsharded model.
func (m *TrustModel) Owns(u UserID) bool {
	return m.cfg.Shard.Owns(int(u))
}

// ReviewQuality returns the converged quality of a review (eq. 1) and
// whether the review exists.
func (m *TrustModel) ReviewQuality(r ratings.ReviewID) (float64, bool) {
	if int(r) < 0 || int(r) >= m.dataset.NumReviews() {
		return 0, false
	}
	rev := m.dataset.Review(r)
	return m.artifacts.RiggsResults[rev.Category].QualityOf(r)
}

// RaterReputation returns user u's rater reputation in category c (eq. 2)
// and whether u rated anything there.
func (m *TrustModel) RaterReputation(u UserID, c ratings.CategoryID) (float64, bool) {
	if int(c) < 0 || int(c) >= len(m.artifacts.RiggsResults) {
		return 0, false
	}
	return m.artifacts.RiggsResults[c].ReputationOf(u)
}

// Dataset returns the dataset the model was derived from.
func (m *TrustModel) Dataset() *Dataset { return m.dataset }

// Fingerprint returns the configuration fingerprint of the options this
// model was derived (or restored) with; see the package-level Fingerprint.
func (m *TrustModel) Fingerprint() uint64 { return m.cfg.Fingerprint() }

// Artifacts exposes the underlying pipeline artifacts for advanced use
// (binarisation, evaluation, propagation).
func (m *TrustModel) Artifacts() *core.Artifacts { return m.artifacts }

// WebOfTrust returns the binarised web-of-trust artifact: the graph the
// propagation queries traverse. It is immutable and safe for concurrent
// use; Update produces a successor web that copies untouched users' rows.
// Models produced by Derive or Update carry the graph from the pipeline;
// a restored model builds it here exactly once, on first use (the build
// is deterministic, so the result is identical to the eager one —
// pinned by the checkpoint round-trip tests).
func (m *TrustModel) WebOfTrust() *Web {
	if m.artifacts.Web != nil {
		return m.artifacts.Web
	}
	m.webOnce.Do(func() {
		web, err := core.BuildWeb(m.dataset, m.artifacts.Trust, m.cfg.Web, m.cfg.Workers)
		if err != nil {
			// Restore validated the policy and the artifacts' shapes;
			// nothing recoverable can fail here.
			panic(fmt.Sprintf("weboftrust: lazy web build: %v", err))
		}
		m.webLazy.Store(web)
	})
	return m.webLazy.Load()
}

// WebOfTrustBuilt returns the web artifact only if it already exists —
// built eagerly by the pipeline or lazily by an earlier graph consumer —
// without triggering the deferred build. Observability surfaces use it
// so a metrics scrape against a freshly restored model stays O(1)
// instead of paying the full binarisation.
func (m *TrustModel) WebOfTrustBuilt() (*Web, bool) {
	if m.artifacts.Web != nil {
		return m.artifacts.Web, true
	}
	if web := m.webLazy.Load(); web != nil {
		return web, true
	}
	return nil, false
}

// Neighbors returns user u's out-edges in the web of trust — the users u
// is predicted to trust — in ascending user-id order, each carrying its
// continuous T̂ weight.
func (m *TrustModel) Neighbors(u UserID) []Ranked {
	to, w := m.WebOfTrust().Neighbors(u)
	out := make([]Ranked, len(to))
	for i, j := range to {
		out[i] = Ranked{User: ratings.UserID(j), Score: w[i]}
	}
	return out
}

// PropagationAlgo selects a personalised trust-propagation algorithm for
// Propagate: the trust-transitivity query class the related work studies
// over explicit webs, served here over the derived web.
type PropagationAlgo int

const (
	// PropagateAppleseed spreads activation energy from the source
	// (Ziegler & Lausen); scores are retained energies, useful as a
	// ranking rather than absolute trust values.
	PropagateAppleseed PropagationAlgo = iota
	// PropagateMoleTrust runs Massa & Avesani's horizon-bounded
	// trust-weighted average over the BFS distance DAG; scores are in
	// [0, 1].
	PropagateMoleTrust
	// PropagateTidalTrust runs Golbeck's shortest-path threshold
	// inference to every reachable sink; scores are in [0, 1].
	PropagateTidalTrust
)

// propagateDepth caps the search horizon of the path-bounded algorithms
// (MoleTrust's own default horizon is 3; TidalTrust uses the experiment
// suite's depth).
const propagateDepth = 4

// String returns the algorithm's wire name, as accepted by
// ParsePropagationAlgo and the /v1/propagate endpoint.
func (a PropagationAlgo) String() string {
	switch a {
	case PropagateAppleseed:
		return "appleseed"
	case PropagateMoleTrust:
		return "moletrust"
	case PropagateTidalTrust:
		return "tidaltrust"
	default:
		return fmt.Sprintf("PropagationAlgo(%d)", int(a))
	}
}

// ParsePropagationAlgo maps a wire name ("appleseed", "moletrust",
// "tidaltrust"; case-insensitive) to its algorithm.
func ParsePropagationAlgo(s string) (PropagationAlgo, error) {
	switch strings.ToLower(s) {
	case "appleseed":
		return PropagateAppleseed, nil
	case "moletrust":
		return PropagateMoleTrust, nil
	case "tidaltrust":
		return PropagateTidalTrust, nil
	default:
		return 0, fmt.Errorf("weboftrust: unknown propagation algorithm %q (appleseed, moletrust, tidaltrust)", s)
	}
}

// PropagateInto fills dst (length U) with algo's personalised trust ranks
// from source's viewpoint over the web of trust, with the source's own
// entry zeroed (it does not rank itself). Every entry of dst is
// overwritten, so serving layers can hand in pooled, dirty buffers. The
// result is exact and deterministic for a given model and algorithm.
func (m *TrustModel) PropagateInto(algo PropagationAlgo, source UserID, dst []float64) error {
	numU := m.dataset.NumUsers()
	if len(dst) != numU {
		return fmt.Errorf("weboftrust: PropagateInto dst length %d, want %d", len(dst), numU)
	}
	if int(source) < 0 || int(source) >= numU {
		return fmt.Errorf("weboftrust: propagate source %d out of range (%d users)", source, numU)
	}
	g := m.WebOfTrust().Graph()
	switch algo {
	case PropagateAppleseed:
		ranks, err := propagation.DefaultAppleseed().Rank(g, int(source))
		if err != nil {
			return err
		}
		copy(dst, ranks)
	case PropagateMoleTrust:
		ranks, err := propagation.DefaultMoleTrust().Rank(g, int(source))
		if err != nil {
			return err
		}
		copy(dst, ranks)
	case PropagateTidalTrust:
		res := propagation.TidalTrust{MaxDepth: propagateDepth}.InferAll(g, int(source))
		for j, r := range res {
			if r.OK && r.Value > 0 {
				dst[j] = r.Value
			} else {
				dst[j] = 0
			}
		}
	default:
		return fmt.Errorf("weboftrust: unknown propagation algorithm %d", int(algo))
	}
	dst[source] = 0
	return nil
}

// Propagate returns the k highest-ranked users from source's viewpoint
// under algo, best first (ties by ascending user id), excluding the
// source and zero scores. Where TopTrusted ranks the continuous one-hop
// matrix, Propagate ranks multi-hop transitive trust over the binarised
// web — the "web of trust propagation" the paper proposes as the
// framework's payoff.
func (m *TrustModel) Propagate(algo PropagationAlgo, source UserID, k int) ([]Ranked, error) {
	dst := make([]float64, m.dataset.NumUsers())
	if err := m.PropagateInto(algo, source, dst); err != nil {
		return nil, err
	}
	return core.RankRow(dst, k), nil
}

// GlobalRanks computes the EigenTrust global trust vector over the web
// graph, run to convergence from the uniform prior, so it is a function
// of the model alone. It reports the power iterations used. The vector
// is a probability distribution: scores sum to 1.
func (m *TrustModel) GlobalRanks() ([]float64, int, error) {
	ranks, iters, err := propagation.DefaultEigenTrust().Ranks(m.WebOfTrust().Graph())
	if err != nil {
		return nil, 0, fmt.Errorf("weboftrust: global ranks: %w", err)
	}
	return ranks, iters, nil
}
