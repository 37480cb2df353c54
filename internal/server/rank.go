package server

import (
	"fmt"
	"net/http"

	"weboftrust"
	"weboftrust/internal/core"
)

// rankVec is a state's global EigenTrust vector and the power
// iterations spent producing it.
type rankVec struct {
	vec   []float64
	iters int
}

// lazyRank defers the cold converged solve until the first /v1/rank or
// landmark selection (a metrics peek never forces it). Every state
// solves from scratch, so the served vector is a function of the model
// alone: a swapped server, a restored replica and a cold boot over the
// same log serve the same bytes.
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
// replicated state — every shard solves it cold over the same complete
// graph — so any replica can answer for any user; there is no ownership
// check.
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
		d := st.model.Dataset()
		writeJSON(w, http.StatusOK, RankUserResponse{
			User: int(u), Name: d.UserName(u), Version: st.version,
			Users: len(vec), Rank: core.RankPosition(vec, u), Score: vec[u], Iterations: iters,
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
