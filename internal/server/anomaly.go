package server

import (
	"net/http"

	"weboftrust"
	"weboftrust/internal/anomaly"
	"weboftrust/internal/ratings"
)

// lazyAnomaly defers the full scoring pass (internal/anomaly) until the
// first anomaly query, or until a swap whose predecessor had scored
// carries that demand over. Scores are a pure function of (dataset, web
// graph), so every replica serves identical scores regardless of its
// swap cadence — the property that lets the router fan /v1/anomaly out
// to any shard.
func (s *Server) lazyAnomaly(model *weboftrust.TrustModel) *lazy[*anomaly.Scores] {
	return newLazy(func() *anomaly.Scores {
		s.metrics.anomalyComputes.Add(1)
		return anomaly.Compute(model.Dataset(), model.WebOfTrust().Graph())
	})
}

// AnomalySignals is the per-signal breakdown of one user's suspicion
// score (each in [0, 1]; see internal/anomaly for definitions).
type AnomalySignals struct {
	Rating float64 `json:"rating"`
	Graph  float64 `json:"graph"`
	Burst  float64 `json:"burst"`
}

// AnomalyResponse is the /v1/anomaly?user= body: one user's combined
// suspicion score, its breakdown, and the user's position on the
// suspicion leaderboard (1 = most suspicious).
type AnomalyResponse struct {
	User    int            `json:"user"`
	Name    string         `json:"name"`
	Version uint64         `json:"version"`
	Users   int            `json:"users"`
	Score   float64        `json:"score"`
	Rank    int            `json:"rank"`
	Signals AnomalySignals `json:"signals"`
}

// handleAnomaly serves one user's suspicion score. Like /v1/rank, the
// score vector is global, replicated state — any shard answers for any
// user, and the router relays the freshest shard's body verbatim.
func (s *Server) handleAnomaly(w http.ResponseWriter, r *http.Request) {
	s.metrics.requests[epAnomaly].Add(1)
	st, ok := s.loadState(w)
	if !ok {
		return
	}
	u, ok := s.userParam(w, r, st, "user")
	if !ok {
		return
	}
	sc := st.anomaly.get()
	totals := sc.Total()
	score := totals[u]
	rank := 1
	for j, v := range totals {
		if v > score || (v == score && ratings.UserID(j) < u) {
			rank++
		}
	}
	rating, graphS, burst := sc.Signals(u)
	writeJSON(w, http.StatusOK, AnomalyResponse{
		User: int(u), Name: st.model.Dataset().UserName(u), Version: st.version,
		Users: len(totals), Score: score, Rank: rank,
		Signals: AnomalySignals{Rating: rating, Graph: graphS, Burst: burst},
	})
}

// AnomalyTopResponse is the /v1/anomaly/top body: the k most suspicious
// users, most suspicious first.
type AnomalyTopResponse struct {
	K       int         `json:"k"`
	Version uint64      `json:"version"`
	Users   int         `json:"users"`
	Results []RankEntry `json:"results"`
}

// handleAnomalyTop serves the suspicion leaderboard through the same
// result-cache/singleflight path as top-k and propagation answers (one
// kindAnomalyTop entry per cached k; the score vector itself lives in
// the state's lazy anomaly holder, so a miss only copies and ranks it).
func (s *Server) handleAnomalyTop(w http.ResponseWriter, r *http.Request) {
	s.metrics.requests[epAnomalyTop].Add(1)
	st, ok := s.loadState(w)
	if !ok {
		return
	}
	k, ok := s.kParam(w, r)
	if !ok {
		return
	}
	ranked := s.ranked(st, kindAnomalyTop, 0, k)
	d := st.model.Dataset()
	results := make([]RankEntry, len(ranked))
	for i, rk := range ranked {
		results[i] = RankEntry{Rank: i + 1, User: int(rk.User), Name: d.UserName(rk.User), Score: rk.Score}
	}
	writeJSON(w, http.StatusOK, AnomalyTopResponse{
		K: k, Version: st.version, Users: d.NumUsers(), Results: results,
	})
}

// fillAnomaly is the kindAnomalyTop branch of fillScore: the suspicion
// vector, copied so the ranked scratch never aliases the immutable
// Scores (and honest zero-score users drop out of the ranking as with
// every other family).
func fillAnomaly(st *state, dst []float64) {
	copy(dst, st.anomaly.get().Total())
}
