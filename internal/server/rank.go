package server

import (
	"fmt"
	"net/http"

	"weboftrust"
	"weboftrust/internal/core"
	"weboftrust/internal/graph"
	"weboftrust/internal/ratings"
)

// rankRefreshIters is the power-iteration budget a parent-matched swap
// spends refreshing the global EigenTrust vector from its predecessor.
// One ingest tick shifts the fixed point by a small s (the dirty rows are
// a sliver of the graph), and power iteration contracts L1 error by
// rho = (1 - alpha) per step, so a B-iteration refresh leaves steady-state
// drift bounded by s·rho^B/(1 - rho^B) — at B = 3 about 3% of the
// per-tick shift, invisible at ranking granularity — while costing ~3
// iterations per swap where a cold solve pays dozens. The chain is
// deterministic given the swap history, so every replica of a cluster
// (same log, same swaps) serves byte-identical rank vectors.
const rankRefreshIters = 3

// rankVec is a state's global EigenTrust vector and the power
// iterations spent producing it. Root states solve it lazily on first
// use — keeping the cold solve off the boot path preserves the
// warm-restart win — while parent-matched swaps install an eagerly
// refreshed vector (see Server.newState).
type rankVec struct {
	vec   []float64
	iters int
}

// lazyRank defers the cold converged solve until the first /v1/rank (a
// metrics peek never forces it).
func lazyRank(model *weboftrust.TrustModel) *lazy[rankVec] {
	return newLazy(func() rankVec {
		vec, iters, err := model.GlobalRanks()
		if err != nil {
			// DefaultEigenTrust is statically valid and the graph is the
			// model's own; an error here is a broken invariant.
			panic(fmt.Sprintf("server: global ranks: %v", err))
		}
		return rankVec{vec: vec, iters: iters}
	})
}

// taintedUsers marks every user whose propagation result may have changed
// across an incremental swap: a source's multi-hop view depends only on
// the rows of nodes it can reach, so a result is stale only if the source
// reaches a dirty row. Reverse BFS over the predecessor graph's in-edges
// from the dirty seeds marks exactly the sources that can; everyone else
// provably reaches only unchanged rows.
func taintedUsers(g *graph.Graph, dirty []bool) []bool {
	n := g.NumNodes()
	tainted := make([]bool, n)
	queue := make([]int32, 0, 64)
	for u := 0; u < n && u < len(dirty); u++ {
		if dirty[u] {
			tainted[u] = true
			queue = append(queue, int32(u))
		}
	}
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		from, _ := g.In(int(v))
		for _, u := range from {
			if !tainted[u] {
				tainted[u] = true
				queue = append(queue, u)
			}
		}
	}
	return tainted
}

// migrateCache carries result-cache entries whose answers provably cannot
// have changed from the predecessor state into the fresh one. A top-k
// entry survives when its source row is clean (non-dirty rows are shared
// with the parent by reference, and new users only ever append
// zero-valued cells a ranking truncates anyway); a traversal-computed
// propagate entry survives when its source is untainted under the
// caller-supplied taint set (taintedUsers over the predecessor graph; nil
// when that graph was never built, dropping them all). Entries are
// re-inserted oldest-first so the new cache preserves the old recency
// order, and the migrated slices are shared — both caches treat entries
// as immutable.
func (s *Server) migrateCache(st, prev *state, dirty, tainted []bool) {
	entries := prev.results.snapshot()
	if len(entries) == 0 {
		return
	}
	kept := 0
	for _, e := range entries {
		u := int(e.key.user)
		var keep bool
		switch {
		case e.key.kind == kindTopK:
			keep = u < len(dirty) && !dirty[u]
		case e.key.kind == kindAnomalyTop:
			// Anomaly scores move with any delta (new ratings shift category
			// means community-wide); the leaderboard is recut from the eagerly
			// refreshed vector on the next query instead of proven stable.
			keep = false
		case e.key.kind >= kindAppleseedLandmark:
			// Landmark answers depend on the landmark SELECTION (which moves
			// with the rank vector every swap), not just the source's
			// neighborhood, so no taint argument proves them stable; the
			// composition is cheap enough to recompute on the next query.
			keep = false
		default:
			keep = tainted != nil && u < len(tainted) && !tainted[u]
		}
		if keep {
			st.results.put(e.key, e.ranked)
			kept++
		}
	}
	s.metrics.cacheCarryover.Add(int64(kept))
	s.metrics.cacheCarryoverDropped.Add(int64(len(entries) - kept))
}

// RankEntry is one /v1/rank leaderboard row.
type RankEntry struct {
	Rank  int     `json:"rank"`
	User  int     `json:"user"`
	Name  string  `json:"name"`
	Score float64 `json:"score"`
}

// RankResponse is the /v1/rank leaderboard body: the k globally
// highest-ranked users under EigenTrust over the served web of trust.
type RankResponse struct {
	K          int         `json:"k"`
	Version    uint64      `json:"version"`
	Users      int         `json:"users"`
	Iterations int         `json:"iterations"`
	Results    []RankEntry `json:"results"`
}

// RankUserResponse is the /v1/rank?user= body: one user's global rank
// (1-based; ties broken by ascending user id) and EigenTrust score.
type RankUserResponse struct {
	User       int     `json:"user"`
	Name       string  `json:"name"`
	Version    uint64  `json:"version"`
	Users      int     `json:"users"`
	Rank       int     `json:"rank"`
	Score      float64 `json:"score"`
	Iterations int     `json:"iterations"`
}

// handleRank serves the global EigenTrust ranking. The vector is global,
// replicated state — every shard computes it over the same complete
// graph through the same deterministic warm chain — so any replica can
// answer for any user; there is no ownership check.
func (s *Server) handleRank(w http.ResponseWriter, r *http.Request) {
	s.metrics.requests[epRank].Add(1)
	st, ok := s.loadState(w)
	if !ok {
		return
	}
	rv := st.rank.get()
	vec, iters := rv.vec, rv.iters
	if raw := r.URL.Query().Get("user"); raw != "" {
		u, ok := s.userParam(w, r, st, "user")
		if !ok {
			return
		}
		score := vec[u]
		rank := 1
		for j, v := range vec {
			if v > score || (v == score && ratings.UserID(j) < u) {
				rank++
			}
		}
		d := st.model.Dataset()
		writeJSON(w, http.StatusOK, RankUserResponse{
			User: int(u), Name: d.UserName(u), Version: st.version,
			Users: len(vec), Rank: rank, Score: score, Iterations: iters,
		})
		return
	}
	k, ok := s.kParam(w, r)
	if !ok {
		return
	}
	ranked := core.RankRow(vec, k)
	d := st.model.Dataset()
	results := make([]RankEntry, len(ranked))
	for i, rk := range ranked {
		results[i] = RankEntry{Rank: i + 1, User: int(rk.User), Name: d.UserName(rk.User), Score: rk.Score}
	}
	writeJSON(w, http.StatusOK, RankResponse{
		K: k, Version: st.version, Users: len(vec), Iterations: iters, Results: results,
	})
}
