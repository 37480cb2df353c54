package core

import (
	"fmt"
	"math"

	"weboftrust/internal/graph"
	"weboftrust/internal/mat"
	"weboftrust/internal/par"
	"weboftrust/internal/ratings"
)

// WebPolicy selects how the continuous derived matrix T̂ is binarised
// into the web of trust — the paper's end product, carried through the
// pipeline as a first-class artifact (Artifacts.Web).
//
// The policy is deliberately NOT part of the configuration fingerprint
// (like Config.Workers): none of the persisted pipeline artifacts — the
// dataset, the Riggs fixed points, E, A — depend on it, and a restore
// rebuilds the graph deterministically under the restoring side's policy.
type WebPolicy struct {
	// Policy is the binarisation rule: PerUserTopK (the paper's protocol)
	// or GlobalThreshold (the A-4 ablation).
	Policy BinarizePolicy
	// Tau is the GlobalThreshold cut: predict trust wherever
	// T̂_ij >= Tau (and > 0). Ignored by PerUserTopK. Must be in [0, 1].
	Tau float64
	// ColdGenerosity is the PerUserTopK fallback for users whose own
	// history cannot calibrate a conversion ratio (k_i = 0 — no direct
	// connections, or none carrying explicit trust): when positive, such
	// users binarise with this generosity instead, so the cold-start
	// users the framework exists for still get out-edges to propagate
	// along. 0 (the default) is the paper's protocol exactly: k_i = 0
	// selects nothing. Must be in [0, 1].
	ColdGenerosity float64
}

// DefaultWebPolicy returns the paper's protocol: per-user top-k by
// generosity, no cold-start fallback.
func DefaultWebPolicy() WebPolicy { return WebPolicy{Policy: PerUserTopK} }

// Validate rejects out-of-range parameters and unknown policies.
func (p WebPolicy) Validate() error {
	switch p.Policy {
	case PerUserTopK:
		if p.ColdGenerosity < 0 || p.ColdGenerosity > 1 {
			return fmt.Errorf("core: cold generosity %v outside [0,1]", p.ColdGenerosity)
		}
	case GlobalThreshold:
		// Any real tau is meaningful: tau <= 0 keeps every positive cell,
		// tau > 1 predicts nothing (scores live in [0, 1]) — the ablation
		// sweeps rely on both ends. Only NaN (never-true comparisons) is
		// rejected.
		if math.IsNaN(p.Tau) {
			return fmt.Errorf("core: threshold tau is NaN")
		}
	default:
		return fmt.Errorf("core: unknown binarize policy %d", int(p.Policy))
	}
	return nil
}

// String renders the policy for stats surfaces and logs.
func (p WebPolicy) String() string {
	switch p.Policy {
	case PerUserTopK:
		if p.ColdGenerosity > 0 {
			return fmt.Sprintf("per-user-topk(cold-k=%g)", p.ColdGenerosity)
		}
		return "per-user-topk"
	case GlobalThreshold:
		return fmt.Sprintf("threshold(tau=%g)", p.Tau)
	default:
		return p.Policy.String()
	}
}

// effectiveGenerosity applies the cold-start fallback to a raw k_i.
func (p WebPolicy) effectiveGenerosity(k float64) float64 {
	if k == 0 && p.ColdGenerosity > 0 {
		return p.ColdGenerosity
	}
	return k
}

// WebRow is one user's out-edges as the row selection emits them: target
// users in ascending id order with the parallel continuous T̂ weights.
// Rows are transient — buildWeb packs them into the web's CSR graph,
// which is the only place an edge is stored.
type WebRow struct {
	To []int32
	W  []float64
}

// Web is the binarised web of trust as a pipeline artifact: the per-user
// generosity vector (after any cold-start fallback) and the CSR graph of
// selected edges the propagation algorithms traverse. The graph is the
// only copy of the edges: Neighbors reads a user's row straight out of
// its packed out-arrays. It is immutable and safe for concurrent use.
//
// The artifact is maintained incrementally through Config.Update: a user's
// row is a pure function of their own affinity row, the expert columns of
// the categories they have affinity for, and their own generosity, so an
// update re-selects rows only for users whose inputs could have changed
// and copies every other row from the previous web's graph — the reuse
// DirtyUsers reports.
type Web struct {
	policy     WebPolicy
	generosity []float64
	g          *graph.Graph
	// dirty marks, for a web produced by the incremental path, the users
	// whose row or generosity may differ from the predecessor's — the
	// exact set buildWeb re-selected; every other row was copied from the
	// predecessor's graph and is therefore provably unchanged. nil for
	// full builds.
	dirty []bool
}

// Policy returns the binarize policy the web was built under.
func (w *Web) Policy() WebPolicy { return w.policy }

// NumUsers returns the node count.
func (w *Web) NumUsers() int { return len(w.generosity) }

// NumEdges returns the number of directed trust edges.
func (w *Web) NumEdges() int { return w.g.NumEdges() }

// Generosity returns user u's effective conversion ratio k_u (after the
// cold-start fallback, when the policy has one).
func (w *Web) Generosity(u ratings.UserID) float64 { return w.generosity[u] }

// GenerosityVector returns the effective per-user generosity vector,
// indexed by user id. The returned slice is shared; do not modify it.
func (w *Web) GenerosityVector() []float64 { return w.generosity }

// Neighbors returns user u's out-edges: target ids in ascending order and
// the parallel T̂ weights — the graph's own packed row (Graph().Out(u)).
// The returned slices are shared; do not modify them.
func (w *Web) Neighbors(u ratings.UserID) (to []int32, weights []float64) {
	return w.g.Out(int(u))
}

// Graph returns the CSR graph form the propagation algorithms traverse
// (shared; do not modify).
func (w *Web) Graph() *graph.Graph { return w.g }

// DirtyUsers returns the users whose row or generosity may differ from
// the predecessor web this one was incrementally built from — a
// conservative superset of the actually-changed rows; every user not
// marked had their row copied from the predecessor's graph instead of
// re-selected, and is provably unchanged. It returns nil for webs built
// from scratch (no predecessor to compare against). The slice is shared;
// do not modify.
func (w *Web) DirtyUsers() []bool { return w.dirty }

// BuildWeb binarises the derived matrix into a web of trust under the
// given policy. workers caps the row-selection fan-out (<= 0 means one
// per available CPU); the result is bitwise-identical at any setting.
func BuildWeb(d *ratings.Dataset, dt *DerivedTrust, policy WebPolicy, workers int) (*Web, error) {
	return buildWeb(d, dt, policy, workers, nil, nil, nil)
}

// buildWeb builds the web artifact. When old, oldD and touched are given
// (the incremental-update path), only dirty users' rows are re-selected;
// every other row and generosity entry is copied from old. See
// dirtyUsers for what makes a user dirty.
func buildWeb(d *ratings.Dataset, dt *DerivedTrust, policy WebPolicy, workers int, old *Web, oldD *ratings.Dataset, touched []bool) (*Web, error) {
	if err := policy.Validate(); err != nil {
		return nil, err
	}
	numU := d.NumUsers()
	if dt.NumUsers() != numU {
		return nil, fmt.Errorf("core: web build: derived trust has %d users, dataset %d", dt.NumUsers(), numU)
	}
	w := &Web{
		policy:     policy,
		generosity: make([]float64, numU),
	}

	// Incremental reuse is only sound against a web built under the same
	// policy from a dataset this one extends.
	var dirty []bool
	if old != nil && oldD != nil && old.policy == policy && old.NumUsers() <= numU {
		dirty = dirtyUsers(oldD, d, touched, dt.affinity)
	}

	// Rows live in these transient slices only until graph.FromRows packs
	// them — one O(E) validate-and-copy pass over rows that are already
	// sorted and unique — so the graph is the web's one copy of its edges.
	// Every build packs wholesale: a typical ingest tick dirties most
	// users, so splicing dirty rows into the predecessor's arrays costs
	// more than this rebuild (EXPERIMENTS.md measures both).
	to := make([][]int32, numU)
	weights := make([][]float64, numU)
	n := par.Normalize(workers)
	bufs := make([]*selectScratch, n)
	par.DoWorker(n, numU, func(wk, u int) {
		if dirty != nil && !dirty[u] {
			to[u], weights[u] = old.g.Out(u)
			w.generosity[u] = old.generosity[u]
			return
		}
		if bufs[wk] == nil {
			bufs[wk] = newSelectScratch(numU)
		}
		k := policy.effectiveGenerosity(generosityOf(d, ratings.UserID(u)))
		w.generosity[u] = k
		r := policyRowInto(dt, ratings.UserID(u), policy, k, bufs[wk], true)
		to[u], weights[u] = r.To, r.W
	})
	g, err := graph.FromRows(numU, to, weights)
	if err != nil {
		// policyRowInto emits ascending in-range unique ids; reaching
		// here means the selection invariant broke.
		return nil, fmt.Errorf("core: web build: %w", err)
	}
	w.g = g
	w.dirty = dirty
	return w, nil
}

// dirtyUsers marks the users whose web row or generosity may differ from
// the old web's after the dataset grew. User u's row is a pure function
// of (1) u's own affinity row and its normalisation — changed only by
// u's own new reviews or ratings; (2) the expertise columns of categories
// u has affinity for — changed only for touched categories; and (3) u's
// generosity — changed only by u's own new connections (ratings) or
// explicit trust edges. New users have no old row at all. Everyone else's
// inputs are byte-identical, which is what makes copying their rows
// sound; the equals-fresh-derive property test pins it.
func dirtyUsers(oldD, newD *ratings.Dataset, touched []bool, affinity *mat.Dense) []bool {
	numU := newD.NumUsers()
	dirty := make([]bool, numU)
	for u := oldD.NumUsers(); u < numU; u++ {
		dirty[u] = true
	}
	for r := oldD.NumReviews(); r < newD.NumReviews(); r++ {
		dirty[newD.Review(ratings.ReviewID(r)).Writer] = true
	}
	for _, rt := range newD.Ratings()[oldD.NumRatings():] {
		dirty[rt.Rater] = true
	}
	for _, te := range newD.TrustEdges()[oldD.NumTrustEdges():] {
		dirty[te.From] = true
	}
	for c, t := range touched {
		if !t {
			continue
		}
		for u := 0; u < numU; u++ {
			if !dirty[u] && affinity.At(u, c) != 0 {
				dirty[u] = true
			}
		}
	}
	return dirty
}
