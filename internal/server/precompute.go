package server

import (
	"sort"
	"sync"
	"time"

	"weboftrust/internal/core"
	"weboftrust/internal/ratings"
)

// The propagation precompute engine turns swap-time knowledge into
// served latency. Every swap starts an empty result cache, so the
// sources traffic re-queries most would each pay a cold traversal on
// their next request. The server therefore tracks per-key query heat (an
// EWMA of hit counts, folded through swaps), and at each incremental
// swap it recomputes the hottest propagate results on the ingest
// goroutine, under a wall-clock budget, inserting them pre-warmed. The
// vectors come from the exact same fillScore + RankRowScratch path a
// served miss takes, so a pre-warmed answer is bitwise-identical to the
// on-demand one (pinned by TestPrewarmMatchesColdCompute).

// heatKey identifies one propagate-family working-set entry: the result
// kind, the source, and the cacheK bucket it is ranked at.
type heatKey struct {
	kind resultKind
	user ratings.UserID
	k    int
}

// heatEntry pairs a key with its folded heat for the hot() ordering.
type heatEntry struct {
	key  heatKey
	heat float64
}

const (
	// heatDecay is the EWMA fold factor: new = decay·window + (1−decay)·old.
	heatDecay = 0.5
	// heatFloor drops keys whose folded heat decays below it — a key
	// queried once stops being "hot" after a couple of quiet swaps.
	heatFloor = 0.25
	// heatMaxKeys bounds the tracker's memory against key churn (a scan
	// sweeping every user would otherwise grow it without bound).
	heatMaxKeys = 4096
)

// heatTracker accumulates per-key query counts between swaps (window)
// and folds them into a decaying average (ewma) at every swap. record is
// on the query path, so it does one map increment under a mutex. A
// server without a precompute budget has no tracker: record and fold on
// a nil tracker do nothing.
type heatTracker struct {
	mu     sync.Mutex
	window map[heatKey]float64
	ewma   map[heatKey]float64
}

func newHeatTracker() *heatTracker {
	return &heatTracker{
		window: make(map[heatKey]float64),
		ewma:   make(map[heatKey]float64),
	}
}

func (h *heatTracker) record(key heatKey) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.window[key]++
	h.mu.Unlock()
}

// fold merges the since-last-swap window into the EWMA, pruning keys
// that have cooled below the floor and trimming the coldest keys over
// the size bound.
func (h *heatTracker) fold() {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	for k, old := range h.ewma {
		nv := (1 - heatDecay) * old
		if w, ok := h.window[k]; ok {
			nv += heatDecay * w
			delete(h.window, k)
		}
		if nv < heatFloor {
			delete(h.ewma, k)
		} else {
			h.ewma[k] = nv
		}
	}
	for k, w := range h.window {
		if nv := heatDecay * w; nv >= heatFloor {
			h.ewma[k] = nv
		}
		delete(h.window, k)
	}
	if len(h.ewma) > heatMaxKeys {
		entries := h.sortedLocked()
		for _, e := range entries[heatMaxKeys:] {
			delete(h.ewma, e.key)
		}
	}
}

// hot returns the folded working set hottest-first (ties broken by key
// fields, so the order — and therefore what a bounded budget precomputes
// — is deterministic for a given query history).
func (h *heatTracker) hot() []heatEntry {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sortedLocked()
}

func (h *heatTracker) sortedLocked() []heatEntry {
	out := make([]heatEntry, 0, len(h.ewma))
	for k, v := range h.ewma {
		out = append(out, heatEntry{key: k, heat: v})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.heat != b.heat {
			return a.heat > b.heat
		}
		if a.key.kind != b.key.kind {
			return a.key.kind < b.key.kind
		}
		if a.key.user != b.key.user {
			return a.key.user < b.key.user
		}
		return a.key.k < b.key.k
	})
	return out
}

// precompute re-materialises the hot propagation results the swap
// dropped, hottest first, until the budget runs out, so every vector
// computed here is one a hot query would have paid a full traversal for.
// Runs on the ingest goroutine before the state is published; the query
// path never pays any of it.
func (s *Server) precompute(st *state, budget time.Duration) {
	s.metrics.precomputeRuns.Add(1)
	deadline := time.Now().Add(budget)
	numU := st.model.Dataset().NumUsers()
	var vectors int64
	for _, e := range s.heat.hot() {
		if !isPropagateKind(e.key.kind) {
			continue
		}
		if int(e.key.user) >= numU || !st.model.Owns(e.key.user) {
			continue
		}
		// Re-bucket against the new user count: a bucket clamped at the
		// old U maps to the equivalent bucket after growth.
		kc := cacheK(e.key.k, numU)
		key := resultKey{kind: e.key.kind, user: e.key.user, k: kc}
		if _, _, ok := st.results.get(key); ok {
			continue // two heat keys re-bucketed onto one — already warm
		}
		if time.Now().After(deadline) {
			// Hot work remains (this very key) but the budget is spent.
			s.metrics.precomputeBudgetExhausted.Add(1)
			break
		}
		s.prewarm(st, key)
		vectors++
	}
	s.metrics.precomputeVectors.Add(vectors)
}

// prewarm computes one ranked result exactly as a served miss would —
// same fillScore, same scratch discipline, same RankRowScratch and
// exact-length copy — and inserts it marked pre-warmed.
func (s *Server) prewarm(st *state, key resultKey) {
	sc := st.rows.get()
	s.fillScore(st, key.kind, key.user, sc.row)
	r := core.RankRowScratch(sc.row, key.k, sc.idx)
	if cap(r) > len(r) {
		r = append(make([]core.Ranked, 0, len(r)), r...)
	}
	st.results.putPrewarmed(key, r)
	st.rows.put(sc)
}
