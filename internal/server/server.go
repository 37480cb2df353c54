// Package server implements trustd's serving core: an HTTP daemon that
// answers trust queries from immutable pipeline artifacts and keeps itself
// fresh by tailing an append-only event log.
//
// The design splits reads from ingest. Queries read a *state — the derived
// model, its event-log offset and a bounded result cache — through one
// atomic.Pointer load, so the read path never takes a lock and never
// blocks on ingest. The Tailer replays new events past its checkpoint,
// rebuilds artifacts incrementally with core.Update, and swaps the new
// state in atomically; in-flight requests finish against the state they
// started with, and the fresh state starts with an empty cache (swap IS
// the invalidation).
//
// The query path itself is two-tier: a bounded LRU of ranked results
// keyed by (kind, user, k) — O(k) bytes per entry, not the 8·U-byte
// dense rows the first iteration cached — backed by a sync.Pool of
// row-length scratch buffers, so steady-state misses evaluate eq. 5 with
// zero allocations. The cache also coalesces concurrent misses for the
// same key: the first leaves a pending entry and computes it, the rest
// wait on that entry — one computation, many readers.
//
// Beyond the continuous-score endpoints, the daemon serves the binarised
// web of trust itself: /v1/neighbors lists a user's predicted-trust
// edges, /v1/propagate ranks multi-hop transitive trust with Appleseed,
// MoleTrust or TidalTrust over the served graph, and /v1/graph/stats
// reports its shape. Propagation results ride the same result cache,
// byte budget and miss coalescing as top-k answers (one extra key
// dimension), and a model swap invalidates them with the same
// whole-state replacement.
package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"weboftrust"
	"weboftrust/internal/anomaly"
	"weboftrust/internal/core"
	"weboftrust/internal/ratings"
	"weboftrust/internal/shard"
)

// state is everything one consistent view of the world needs. It is
// immutable after construction and replaced wholesale on ingest.
type state struct {
	model   *weboftrust.TrustModel
	offset  int64 // event-log offset the model reflects
	version uint64
	results *resultCache
	rows    *rowPool
	// rank is the state's global EigenTrust vector, solved cold on first
	// use.
	rank *lazy[rankVec]
	// anomaly is the state's per-user suspicion scores, computed cold on
	// first use.
	anomaly *lazy[*anomaly.Scores]
	// landmarks is the state's landmark selection and sketches for the
	// `?approx=landmark` propagation mode, each built cold on first use.
	landmarks *landmarkState
	// shard is the /v1/stats and /metrics partition block, computed once
	// per model; nil when the model is unsharded.
	shard *ShardStats
	// demand is the gets of the holders the state inherited demand for, in
	// warm order; warmed closes when their warm ends. Nil if none.
	demand []func()
	warmed chan struct{}
}

// Options tunes a Server. The zero value uses the defaults.
type Options struct {
	// CacheResults bounds the per-state LRU of ranked top-k results.
	// Zero means DefaultCacheResults; negative disables caching, though
	// concurrent misses for one answer still compute it once.
	CacheResults int
	// CacheBytes bounds the result cache's approximate retained memory,
	// guarding against large-k answers (each legitimately O(k), up to
	// O(U), bytes) filling every entry slot. Zero means
	// DefaultCacheBytes; negative disables the byte bound.
	CacheBytes int64
	// MaxInFlight bounds concurrently served compute queries (the /v1
	// per-source and rank endpoints). Requests over the bound are shed
	// with 429 + Retry-After instead of queueing without limit — bounded
	// latency under overload beats unbounded goroutine pileup. 0 (the
	// default) disables admission control; the observability surfaces
	// (/v1/stats, /v1/graph/stats, /healthz, /readyz, /metrics) are never
	// shed, so operators can see INTO an overloaded server.
	MaxInFlight int
	// Landmarks is the landmark-hub count for the `?approx=landmark`
	// propagation mode: the top-Landmarks EigenTrust nodes' full
	// propagation vectors are sketched (lazily) and composed per query.
	// 0 means DefaultLandmarks; negative disables the mode.
	Landmarks int
}

// DefaultCacheResults is the result-cache bound when Options.CacheResults
// is 0. An entry costs O(k) bytes (~250 B at k=10), so the default cache
// tops out around 128 KiB — against the ~8 MiB the same bound cost when
// entries were dense 8·U-byte rows at the Medium preset.
const DefaultCacheResults = 512

// DefaultCacheBytes is the result-cache byte budget when
// Options.CacheBytes is 0: generous against the default-k entry size
// (512 × ~250 B), tight against dense-row-sized entries.
const DefaultCacheBytes = 1 << 20

// Server serves trust queries over HTTP. Create with New, mount Handler,
// and feed it fresh models via Swap (usually from a Tailer). In a
// sharded deployment (the model derived with WithShard) the server
// serves its partition: per-source endpoints answer 421 Misdirected
// Request for users the shard does not own, and /healthz, /readyz and
// /v1/stats expose the shard spec so a router can verify its view of the
// cluster.
type Server struct {
	opts    Options
	cur     atomic.Pointer[state]
	start   time.Time
	metrics metrics
	// readyTarget is the event-log offset the served state must reach
	// before /readyz reports ready: the log size observed at boot, set by
	// the daemon before serving so a router never routes to a shard still
	// replaying its backlog. 0 (never set) means any loaded state is
	// ready.
	readyTarget atomic.Int64
	// ckpt is the durability surface: the newest checkpoint the served
	// model is covered by, published by a Checkpointer and read by
	// /v1/stats and /metrics. Nil when no checkpointer runs.
	ckpt atomic.Pointer[CheckpointStatus]
	// inflight tracks admitted compute queries for the MaxInFlight bound
	// (and the trustd_inflight gauge).
	inflight atomic.Int64
	// computeGate, when non-nil, runs on the leader goroutine right
	// before it computes a result. Test hook: the coalescing tests park
	// the leader here until every concurrent request has missed, and
	// panic here to fail a leader.
	computeGate func(u ratings.UserID)
	// warmGate, when non-nil, runs on a warm before each holder. Test
	// hook: the warm tests park a state's warm here while swaps land.
	warmGate func(version uint64)
}

// setCheckpointStatus publishes the newest durable state; nil-safe
// concurrent reads come through checkpointStatus.
func (s *Server) setCheckpointStatus(st *CheckpointStatus) { s.ckpt.Store(st) }

// checkpointStatus returns the last published checkpoint status, or nil
// when none has been written this process.
func (s *Server) checkpointStatus() *CheckpointStatus { return s.ckpt.Load() }

// metrics is the server's instrumentation, exposed at /metrics in
// Prometheus text format. All fields are monotonic counters except the
// gauges derived from the current state at scrape time.
type metrics struct {
	requests         [numEndpoints]atomic.Int64 // indexed by endpoint constants below
	badRequests      atomic.Int64
	cacheHits        atomic.Int64
	cacheMisses      atomic.Int64
	rowComputes      atomic.Int64 // misses that evaluated a row (not waiters)
	swaps            atomic.Int64
	eventsIngested   atomic.Int64
	truncatedReads   atomic.Int64
	lastSwapNanos    atomic.Int64
	checkpointWrites atomic.Int64
	checkpointErrors atomic.Int64
	// misdirected counts per-source requests for users this shard does
	// not own (answered 421): nonzero in steady state means a router is
	// hashing against a different shard map than this process.
	misdirected atomic.Int64
	// Propagation serving instrumentation: per-algorithm request
	// counters, the graph traversals actually performed (cache misses
	// minus waiters), cumulative wall-clock spent in the
	// propagate handler (nanoseconds; rate() gives mean latency), and
	// the latency of the most recent request.
	propagateRequests  [3]atomic.Int64 // indexed by PropagationAlgo (traversal and landmark share)
	propagateComputes  atomic.Int64
	propagateNanos     atomic.Int64
	propagateLastNanos atomic.Int64
	// cacheDropped counts the result-cache entries the swaps discarded.
	cacheDropped atomic.Int64
	// anomalyComputes counts anomaly scoring passes.
	anomalyComputes atomic.Int64
	// Landmark sketches: builds and the cumulative wall-clock they spend.
	landmarkBuilds     atomic.Int64
	landmarkBuildNanos atomic.Int64
	// Robustness instrumentation: compute queries shed with 429 under the
	// in-flight bound, and tail polls that failed transiently (log
	// temporarily unreadable) and were retried with backoff instead of
	// killing ingest.
	shed          atomic.Int64
	tailTransient atomic.Int64
	// Post-publish warms: wall-clock, and how many finished or abandoned.
	warmNanos      atomic.Int64
	warmsDone      atomic.Int64
	warmsAbandoned atomic.Int64
}

const (
	epTopK = iota
	epTrust
	epExpertise
	epStats
	epNeighbors
	epPropagate
	epGraphStats
	epRank
	epAnomaly
	epAnomalyTop
	numEndpoints
)

// endpointNames labels the requests counter in /metrics, indexed by the
// endpoint constants.
var endpointNames = [numEndpoints]string{
	"topk", "trust", "expertise", "stats", "neighbors", "propagate", "graph_stats", "rank",
	"anomaly", "anomaly_top",
}

// New wraps a derived model for serving. offset is the event-log position
// the model reflects.
func New(model *weboftrust.TrustModel, offset int64, opts Options) *Server {
	s := NewPending(opts)
	s.cur.Store(s.newState(model, offset, 1, nil))
	return s
}

// NewPending creates a server with no model yet: every query answers 503
// until the first Swap publishes one. It lets the daemon bind its listen
// address before the (possibly long) boot replay, so load balancers and
// routers can health-check the process and watch /readyz flip instead of
// getting connection refused.
func NewPending(opts Options) *Server {
	if opts.CacheResults == 0 {
		opts.CacheResults = DefaultCacheResults
	}
	if opts.CacheBytes == 0 {
		opts.CacheBytes = DefaultCacheBytes
	}
	return &Server{opts: opts, start: time.Now()}
}

// SetReadyTarget sets the event-log offset the served state must reach
// before /readyz reports ready (the log size observed at boot). Call
// before serving; 0 means any loaded state is ready.
func (s *Server) SetReadyTarget(offset int64) { s.readyTarget.Store(offset) }

// newState builds the immutable serving state for a model. Every state
// starts with an empty result cache: the swap discards the
// predecessor's answers wholesale. Its per-state artifacts — the rank
// vector, the anomaly scores, the landmark selection and each landmark
// sketch — compute lazily on first use, as a function of the model
// alone. One warm rule carries demand across a swap: each holder
// inherits prev's wanted flag, and Swap's warm forces the wanted holders
// after publishing. Once a query forces one, every later swap warms it
// until restart; a swap computes no artifact no query has asked for.
func (s *Server) newState(model *weboftrust.TrustModel, offset int64, version uint64, prev *state) *state {
	st := &state{
		model:   model,
		offset:  offset,
		version: version,
		results: newResultCache(s.opts.CacheResults, s.opts.CacheBytes),
		rows:    newRowPool(model.Dataset().NumUsers()),
		rank:    lazyRank(model),
		anomaly: s.lazyAnomaly(model),
		shard:   shardStats(model),
	}
	st.landmarks = s.lazyLandmarks(st)
	if prev == nil {
		return st
	}
	s.metrics.cacheDropped.Add(int64(prev.results.len()))
	// Warm order: the landmark chain (rank, selection, sketches) before
	// the anomaly pass (DESIGN.md §11).
	st.demand = inherit(st.demand, prev.rank, st.rank)
	st.demand = inherit(st.demand, prev.landmarks.ids, st.landmarks.ids)
	for a := range st.landmarks.algos {
		st.demand = inherit(st.demand, prev.landmarks.algos[a], st.landmarks.algos[a])
	}
	st.demand = inherit(st.demand, prev.anomaly, st.anomaly)
	if st.demand != nil {
		st.warmed = make(chan struct{})
	}
	return st
}

// Swap atomically replaces the served model. Readers in flight keep the
// state they loaded; new requests see the new model with an empty result
// cache and a pool sized to the new user count. Safe for one writer;
// queries never block on it. The first Swap into a pending server
// publishes version 1 — the same version New stamps — so a
// boot-then-swap daemon and a New-constructed one number their states
// identically. Swap returns at publish, and warms the new state after.
func (s *Server) Swap(model *weboftrust.TrustModel, offset int64) {
	var version uint64 = 1
	prev := s.cur.Load()
	if prev != nil {
		version = prev.version + 1
	}
	st := s.newState(model, offset, version, prev)
	s.cur.Store(st)
	s.metrics.swaps.Add(1)
	s.metrics.lastSwapNanos.Store(time.Now().UnixNano())
	if st.warmed != nil {
		go s.warm(st)
	}
}

// warm forces st's demand in order on one goroutine, through the get a
// query uses, so a query that reaches a holder first computes it. Before
// each holder it checks that st is still served, and stops if a swap has
// replaced it: the successor inherited the same demand.
func (s *Server) warm(st *state) {
	start := time.Now()
	outcome := &s.metrics.warmsDone
	for _, get := range st.demand {
		if s.warmGate != nil {
			s.warmGate(st.version)
		}
		if s.cur.Load() != st {
			outcome = &s.metrics.warmsAbandoned
			break
		}
		get()
	}
	s.metrics.warmNanos.Add(time.Since(start).Nanoseconds())
	outcome.Add(1)
	close(st.warmed)
}

// WaitWarm blocks until the served state's post-publish warm has ended,
// finished or abandoned; at once if there is no state or nothing to warm.
func (s *Server) WaitWarm() {
	if st := s.cur.Load(); st != nil && st.warmed != nil {
		<-st.warmed
	}
}

// Current returns the served model, its event-log offset and version —
// (nil, 0, 0) while a pending server awaits its first Swap.
func (s *Server) Current() (*weboftrust.TrustModel, int64, uint64) {
	st := s.cur.Load()
	if st == nil {
		return nil, 0, 0
	}
	return st.model, st.offset, st.version
}

// topKCacheFloor is the smallest k a result is ranked and cached at (the
// serving default).
const topKCacheFloor = 10

// cacheK returns the k a request for k is ranked and cached at: at least
// the floor, doubled until it covers k, clamped to the user count (every
// k >= U is the same full ranking). Nearby ks land on one key, so a
// client sweeping k does one row evaluation and O(k) cache bytes instead
// of one of each per distinct k; the answer stays exact because a ranked
// result is a strict total order truncated only at zero scores, so any
// prefix of a larger ranking IS the smaller one.
func cacheK(k, numU int) int {
	// Clamp before doubling: every k >= U is the same full ranking, and
	// an unclamped loop would overflow into a spin for k near MaxInt.
	if k >= numU {
		return numU
	}
	kc := topKCacheFloor
	for kc < k {
		kc *= 2
	}
	return min(kc, numU)
}

// fillScore computes the score vector one result family ranks: the
// one-hop trust row for kindTopK, a propagation algorithm's full rank
// vector for the propagate kinds. Every entry of dst is overwritten
// (buffers are pooled dirty) and the source's own entry is zeroed.
func (s *Server) fillScore(st *state, kind resultKind, u ratings.UserID, dst []float64) {
	switch kind {
	case kindTopK:
		st.model.Artifacts().Trust.RowSparse(u, dst)
		dst[u] = 0 // exclude self, matching TopTrusted
		s.metrics.rowComputes.Add(1)
	case kindAnomalyTop:
		// One global vector (u is always 0); no self-exclusion — user 0's
		// score is as rankable as anyone's.
		fillAnomaly(st, dst)
	case kindAppleseedLandmark, kindMoleTrustLandmark, kindTidalTrustLandmark:
		// Landmark composition instead of a traversal: O(L·U) over the
		// state's sketch (built on the first landmark query of this
		// algorithm, or by the warm when the predecessor wanted it).
		algo := weboftrust.PropagationAlgo(kind - kindAppleseedLandmark)
		sk := st.landmarks.algos[algo].get()
		if err := st.model.ComposeLandmarks(sk, u, dst); err != nil {
			panic(fmt.Sprintf("server: landmark compose %v for user %d: %v", algo, u, err))
		}
		s.metrics.propagateComputes.Add(1)
	default:
		// The source is range-checked by the handler and the algorithm
		// fixed by the route, so the only error the propagation facade can
		// return is an impossible one; panic like any other broken
		// invariant (the leader's deferred abandon frees its waiters either
		// way).
		if err := st.model.PropagateInto(weboftrust.PropagationAlgo(kind-kindAppleseed), u, dst); err != nil {
			panic(fmt.Sprintf("server: propagate %v for user %d: %v", kind, u, err))
		}
		s.metrics.propagateComputes.Add(1)
	}
}

// ranked returns user u's top-k result for one result family. A hit comes
// from the state's result cache. On a miss exactly one request per key —
// the leader — computes the answer (lead) while concurrent misses for the
// same key wait on its pending entry. The returned slice is shared and
// must not be modified.
func (s *Server) ranked(st *state, kind resultKind, u ratings.UserID, k int) []core.Ranked {
	key := resultKey{kind: kind, user: u, k: cacheK(k, st.model.Dataset().NumUsers())}
	for {
		r, e, lead := st.results.acquire(key)
		if e == nil {
			s.metrics.cacheHits.Add(1)
			return trimRanked(r, k)
		}
		s.metrics.cacheMisses.Add(1)
		if lead {
			return trimRanked(s.lead(st, e), k)
		}
		if r, ok := e.wait(); ok {
			return trimRanked(r, k)
		}
		// The leader panicked and abandoned the entry: retry.
	}
}

// lead computes the pending entry e and publishes it: the score vector
// (trust row or propagation ranks) is evaluated into a pooled scratch
// buffer, ranked with the bounded heap, and only the O(k)-byte ranked
// slice is retained, byte-accounted against the shared LRU budget.
func (s *Server) lead(st *state, e *resultEntry) []core.Ranked {
	defer st.results.abandon(e) // frees the waiters if a panic skips publish
	if s.computeGate != nil {
		s.computeGate(e.key.user)
	}
	sc := st.rows.get()
	s.fillScore(st, e.key.kind, e.key.user, sc.row)
	r := core.RankRowScratch(sc.row, e.key.k, sc.idx)
	st.rows.put(sc)
	if cap(r) > len(r) {
		// Cache an exact-length copy: the ranked slice was sized for k
		// candidates but zero scores may have trimmed it.
		r = append(make([]core.Ranked, 0, len(r)), r...)
	}
	st.results.publish(e, r)
	return r
}

// trimRanked returns the exact top-k prefix of a result ranked at a
// larger k.
func trimRanked(r []core.Ranked, k int) []core.Ranked {
	if len(r) > k {
		return r[:k]
	}
	return r
}

// Handler returns the daemon's HTTP routes. The compute endpoints sit
// behind the in-flight admission bound (when Options.MaxInFlight is
// set); the observability surfaces are deliberately outside it.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/topk", s.admit(s.handleTopK))
	mux.HandleFunc("GET /v1/trust", s.admit(s.handleTrust))
	mux.HandleFunc("GET /v1/expertise", s.admit(s.handleExpertise))
	mux.HandleFunc("GET /v1/neighbors", s.admit(s.handleNeighbors))
	mux.HandleFunc("GET /v1/propagate", s.admit(s.handlePropagate))
	mux.HandleFunc("GET /v1/rank", s.admit(s.handleRank))
	mux.HandleFunc("GET /v1/anomaly", s.admit(s.handleAnomaly))
	mux.HandleFunc("GET /v1/anomaly/top", s.admit(s.handleAnomalyTop))
	mux.HandleFunc("GET /v1/graph/stats", s.handleGraphStats)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// admit enforces the bounded in-flight admission gate: a compute query
// arriving while MaxInFlight are already being served is shed
// immediately with 429 + Retry-After (and counted in trustd_shed_total)
// rather than queued — under overload, fast honest rejection keeps the
// admitted requests' latency bounded and tells well-behaved clients
// (and the router's retry layer) to back off. Disabled (the default)
// it adds nothing to the hot path but one branch.
func (s *Server) admit(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if max := int64(s.opts.MaxInFlight); max > 0 {
			if s.inflight.Add(1) > max {
				s.inflight.Add(-1)
				s.metrics.shed.Add(1)
				w.Header().Set("Retry-After", "1")
				writeJSON(w, http.StatusTooManyRequests, map[string]string{
					"error": fmt.Sprintf("overloaded: %d requests in flight", max),
				})
				return
			}
			defer s.inflight.Add(-1)
		}
		h(w, r)
	}
}

// loadState returns the served state, answering 503 when the server is
// still pending its first model (NewPending before the boot completes).
func (s *Server) loadState(w http.ResponseWriter) (*state, bool) {
	st := s.cur.Load()
	if st == nil {
		s.fail(w, http.StatusServiceUnavailable, "starting up: no model loaded yet")
		return nil, false
	}
	return st, true
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func (s *Server) fail(w http.ResponseWriter, status int, format string, args ...any) {
	s.metrics.badRequests.Add(1)
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// userParam parses a user id query parameter and range-checks it against
// the dataset.
func (s *Server) userParam(w http.ResponseWriter, r *http.Request, st *state, name string) (ratings.UserID, bool) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		s.fail(w, http.StatusBadRequest, "missing %q parameter", name)
		return 0, false
	}
	id, err := strconv.Atoi(raw)
	if err != nil {
		s.fail(w, http.StatusBadRequest, "bad %q parameter %q", name, raw)
		return 0, false
	}
	if id < 0 || id >= st.model.Dataset().NumUsers() {
		s.fail(w, http.StatusNotFound, "user %d out of range (%d users)", id, st.model.Dataset().NumUsers())
		return 0, false
	}
	return ratings.UserID(id), true
}

// sourceParam is userParam for the SOURCE user of a per-source query: on
// a sharded server it additionally answers 421 Misdirected Request for
// users the shard does not own, telling a misconfigured client (or a
// router with a skewed shard map) which spec this process serves. The
// range check runs first, so out-of-range ids stay 404 on every shard —
// identical to the unsharded server.
func (s *Server) sourceParam(w http.ResponseWriter, r *http.Request, st *state, name string) (ratings.UserID, bool) {
	u, ok := s.userParam(w, r, st, name)
	if !ok {
		return 0, false
	}
	if !st.model.Owns(u) {
		idx, count := st.model.ShardSpec()
		s.metrics.misdirected.Add(1)
		s.fail(w, http.StatusMisdirectedRequest, "user %d is not owned by shard %d/%d", u, idx, count)
		return 0, false
	}
	return u, true
}

// kParam parses the optional "k" query parameter (default 10).
func (s *Server) kParam(w http.ResponseWriter, r *http.Request) (int, bool) {
	k := 10
	if raw := r.URL.Query().Get("k"); raw != "" {
		var err error
		if k, err = strconv.Atoi(raw); err != nil || k < 1 {
			s.fail(w, http.StatusBadRequest, "bad \"k\" parameter %q", raw)
			return 0, false
		}
	}
	return k, true
}

// RankedUser is one /v1/topk result row.
type RankedUser struct {
	User  int     `json:"user"`
	Name  string  `json:"name"`
	Score float64 `json:"score"`
}

// TopKResponse is the /v1/topk body.
type TopKResponse struct {
	User    int          `json:"user"`
	K       int          `json:"k"`
	Version uint64       `json:"version"`
	Results []RankedUser `json:"results"`
}

func (s *Server) handleTopK(w http.ResponseWriter, r *http.Request) {
	s.metrics.requests[epTopK].Add(1)
	st, ok := s.loadState(w)
	if !ok {
		return
	}
	u, ok := s.sourceParam(w, r, st, "user")
	if !ok {
		return
	}
	k, ok := s.kParam(w, r)
	if !ok {
		return
	}
	ranked := s.ranked(st, kindTopK, u, k)
	d := st.model.Dataset()
	results := make([]RankedUser, len(ranked))
	for i, rk := range ranked {
		results[i] = RankedUser{User: int(rk.User), Name: d.UserName(rk.User), Score: rk.Score}
	}
	writeJSON(w, http.StatusOK, TopKResponse{User: int(u), K: k, Version: st.version, Results: results})
}

// TrustResponse is the /v1/trust body.
type TrustResponse struct {
	From    int     `json:"from"`
	To      int     `json:"to"`
	Version uint64  `json:"version"`
	Score   float64 `json:"score"`
}

func (s *Server) handleTrust(w http.ResponseWriter, r *http.Request) {
	s.metrics.requests[epTrust].Add(1)
	st, ok := s.loadState(w)
	if !ok {
		return
	}
	// The source must be owned (the trust row is partitioned state); the
	// target can be anyone (expertise is replicated).
	from, ok := s.sourceParam(w, r, st, "from")
	if !ok {
		return
	}
	to, ok := s.userParam(w, r, st, "to")
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, TrustResponse{
		From: int(from), To: int(to), Version: st.version,
		Score: st.model.Score(from, to),
	})
}

// CategoryProfile is one /v1/expertise result row.
type CategoryProfile struct {
	Category  int     `json:"category"`
	Name      string  `json:"name"`
	Expertise float64 `json:"expertise"`
	Affinity  float64 `json:"affinity"`
}

// ExpertiseResponse is the /v1/expertise body.
type ExpertiseResponse struct {
	User       int               `json:"user"`
	Name       string            `json:"name"`
	Version    uint64            `json:"version"`
	Categories []CategoryProfile `json:"categories"`
}

func (s *Server) handleExpertise(w http.ResponseWriter, r *http.Request) {
	s.metrics.requests[epExpertise].Add(1)
	st, ok := s.loadState(w)
	if !ok {
		return
	}
	u, ok := s.sourceParam(w, r, st, "user")
	if !ok {
		return
	}
	d := st.model.Dataset()
	e := st.model.Expertise(u)
	a := st.model.Affinity(u)
	cats := make([]CategoryProfile, d.NumCategories())
	for c := range cats {
		cats[c] = CategoryProfile{
			Category:  c,
			Name:      d.CategoryName(ratings.CategoryID(c)),
			Expertise: e[c],
			Affinity:  a[c],
		}
	}
	writeJSON(w, http.StatusOK, ExpertiseResponse{
		User: int(u), Name: d.UserName(u), Version: st.version, Categories: cats,
	})
}

// NeighborEdge is one /v1/neighbors result row: a predicted-trust edge
// with its continuous T̂ weight.
type NeighborEdge struct {
	User   int     `json:"user"`
	Name   string  `json:"name"`
	Weight float64 `json:"weight"`
}

// NeighborsResponse is the /v1/neighbors body: user u's out-edges in the
// served web of trust, in ascending user-id order, plus the effective
// generosity that sized the selection.
type NeighborsResponse struct {
	User       int            `json:"user"`
	Name       string         `json:"name"`
	Version    uint64         `json:"version"`
	Generosity float64        `json:"generosity"`
	Edges      []NeighborEdge `json:"edges"`
}

func (s *Server) handleNeighbors(w http.ResponseWriter, r *http.Request) {
	s.metrics.requests[epNeighbors].Add(1)
	st, ok := s.loadState(w)
	if !ok {
		return
	}
	u, ok := s.sourceParam(w, r, st, "user")
	if !ok {
		return
	}
	d := st.model.Dataset()
	web := st.model.WebOfTrust()
	to, weights := web.Neighbors(u)
	edges := make([]NeighborEdge, len(to))
	for i, j := range to {
		edges[i] = NeighborEdge{User: int(j), Name: d.UserName(ratings.UserID(j)), Weight: weights[i]}
	}
	writeJSON(w, http.StatusOK, NeighborsResponse{
		User: int(u), Name: d.UserName(u), Version: st.version,
		Generosity: web.Generosity(u), Edges: edges,
	})
}

// PropagateResponse is the /v1/propagate body: the k highest-ranked users
// from the source's viewpoint under the requested propagation algorithm,
// computed over the served web of trust.
type PropagateResponse struct {
	User    int    `json:"user"`
	Algo    string `json:"algo"`
	K       int    `json:"k"`
	Version uint64 `json:"version"`
	// Approx names the approximation mode that served the answer
	// ("landmark"); absent for traversal-computed results, keeping the
	// historical body unchanged.
	Approx  string       `json:"approx,omitempty"`
	Results []RankedUser `json:"results"`
}

func (s *Server) handlePropagate(w http.ResponseWriter, r *http.Request) {
	s.metrics.requests[epPropagate].Add(1)
	st, ok := s.loadState(w)
	if !ok {
		return
	}
	algo, err := weboftrust.ParsePropagationAlgo(r.URL.Query().Get("algo"))
	if err != nil {
		s.fail(w, http.StatusBadRequest, "bad \"algo\" parameter: %v", err)
		return
	}
	approx := r.URL.Query().Get("approx")
	switch approx {
	case "":
	case "landmark":
		if s.landmarkCount() == 0 {
			s.fail(w, http.StatusBadRequest, "landmark approximation is disabled on this server")
			return
		}
	default:
		s.fail(w, http.StatusBadRequest, "bad \"approx\" parameter %q (landmark)", approx)
		return
	}
	u, ok := s.sourceParam(w, r, st, "user")
	if !ok {
		return
	}
	k, ok := s.kParam(w, r)
	if !ok {
		return
	}
	start := time.Now()
	kind := kindAppleseed + resultKind(algo)
	if approx == "landmark" {
		kind = kindAppleseedLandmark + resultKind(algo)
	}
	s.metrics.propagateRequests[algo].Add(1)
	ranked := s.ranked(st, kind, u, k)
	elapsed := time.Since(start).Nanoseconds()
	s.metrics.propagateNanos.Add(elapsed)
	s.metrics.propagateLastNanos.Store(elapsed)
	d := st.model.Dataset()
	results := make([]RankedUser, len(ranked))
	for i, rk := range ranked {
		results[i] = RankedUser{User: int(rk.User), Name: d.UserName(rk.User), Score: rk.Score}
	}
	writeJSON(w, http.StatusOK, PropagateResponse{
		User: int(u), Algo: algo.String(), K: k, Version: st.version, Approx: approx, Results: results,
	})
}

// GraphStatsResponse is the /v1/graph/stats body: the shape of the served
// web of trust.
type GraphStatsResponse struct {
	Version        uint64  `json:"version"`
	Policy         string  `json:"policy"`
	Nodes          int     `json:"nodes"`
	Edges          int     `json:"edges"`
	MaxOutDegree   int     `json:"max_out_degree"`
	MaxInDegree    int     `json:"max_in_degree"`
	MeanOutDegree  float64 `json:"mean_out_degree"`
	Isolated       int     `json:"isolated"`
	MeanGenerosity float64 `json:"mean_generosity"`
}

func (s *Server) handleGraphStats(w http.ResponseWriter, r *http.Request) {
	s.metrics.requests[epGraphStats].Add(1)
	st, ok := s.loadState(w)
	if !ok {
		return
	}
	web := st.model.WebOfTrust()
	deg := web.Graph().Degrees()
	var kSum float64
	for _, k := range web.GenerosityVector() {
		kSum += k
	}
	meanK := 0.0
	if web.NumUsers() > 0 {
		meanK = kSum / float64(web.NumUsers())
	}
	writeJSON(w, http.StatusOK, GraphStatsResponse{
		Version:        st.version,
		Policy:         web.Policy().String(),
		Nodes:          deg.Nodes,
		Edges:          deg.Edges,
		MaxOutDegree:   deg.MaxOutDegree,
		MaxInDegree:    deg.MaxInDegree,
		MeanOutDegree:  deg.MeanOutDegree,
		Isolated:       deg.Isolated,
		MeanGenerosity: meanK,
	})
}

// StatsResponse is the /v1/stats body: dataset shape plus serving state.
// CacheEntries and CacheBytes expose the ranked-result cache, so the
// dense-row → O(k)-result memory win is visible in production.
type StatsResponse struct {
	Dataset       ratings.DatasetStats `json:"dataset"`
	Version       uint64               `json:"version"`
	LogOffset     int64                `json:"log_offset"`
	CacheEntries  int                  `json:"cache_entries"`
	CacheBytes    int64                `json:"cache_bytes"`
	UptimeSeconds float64              `json:"uptime_seconds"`
	// ShedRequests counts compute queries rejected 429 by the in-flight
	// admission bound; TailTransientErrors counts tail polls that failed
	// transiently and were retried with backoff. Both also appear in
	// /metrics (trustd_shed_total, trustd_tail_transient_errors_total).
	ShedRequests        int64 `json:"shed_requests"`
	TailTransientErrors int64 `json:"tail_transient_errors"`
	// Checkpoint reports the newest durable copy of the served model;
	// absent when the daemon runs without a checkpoint directory.
	Checkpoint *CheckpointStats `json:"checkpoint,omitempty"`
	// Shard reports this server's slice of a sharded deployment; absent
	// when unsharded, so single-process deployments see the historical
	// body unchanged.
	Shard *ShardStats `json:"shard,omitempty"`
	// Landmarks is the `?approx=landmark` hub count: the configured count
	// until the state's selection is derived, its size after. Absent when
	// the landmark mode is off.
	Landmarks int `json:"landmarks,omitempty"`
}

// ShardStats is the partition block of /v1/stats: the spec this process
// serves and how many of the community's source users it answers for.
type ShardStats struct {
	Index      int    `json:"index"`
	Count      int    `json:"count"`
	Spec       string `json:"spec"`
	OwnedUsers int    `json:"owned_users"`
}

// shardStats builds the /v1/stats and /healthz shard block, nil when the
// served model is unsharded.
func shardStats(m *weboftrust.TrustModel) *ShardStats {
	idx, count := m.ShardSpec()
	if count <= 1 {
		return nil
	}
	return &ShardStats{
		Index:      idx,
		Count:      count,
		Spec:       fmt.Sprintf("%d/%d", idx, count),
		OwnedUsers: shard.Spec{Index: idx, Count: count}.CountOwned(m.Dataset().NumUsers()),
	}
}

// CheckpointStats is the durability block of /v1/stats. AgeSeconds and
// the lag between Offset and LogOffset are the operator's staleness
// alarms: they bound how much replay the next boot pays.
type CheckpointStats struct {
	Path       string  `json:"path"`
	Offset     int64   `json:"offset"`
	SizeBytes  int64   `json:"size_bytes"`
	AgeSeconds float64 `json:"age_seconds"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.metrics.requests[epStats].Add(1)
	st, ok := s.loadState(w)
	if !ok {
		return
	}
	resp := StatsResponse{
		Dataset:             st.model.Dataset().Stats(),
		Version:             st.version,
		LogOffset:           st.offset,
		CacheEntries:        st.results.len(),
		CacheBytes:          st.results.approxBytes(),
		UptimeSeconds:       time.Since(s.start).Seconds(),
		ShedRequests:        s.metrics.shed.Load(),
		TailTransientErrors: s.metrics.tailTransient.Load(),
	}
	resp.Shard = st.shard
	resp.Landmarks = st.landmarks.size()
	if ck := s.checkpointStatus(); ck != nil {
		resp.Checkpoint = &CheckpointStats{
			Path:       ck.Path,
			Offset:     ck.Offset,
			SizeBytes:  ck.SizeBytes,
			AgeSeconds: time.Since(ck.WrittenAt).Seconds(),
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleHealthz is LIVENESS: it answers 200 as soon as the process can
// serve HTTP at all, model or not — restart the process if this fails.
// Routing decisions belong to /readyz.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	st := s.cur.Load()
	if st == nil {
		writeJSON(w, http.StatusOK, map[string]any{"status": "starting"})
		return
	}
	body := map[string]any{
		"status":  "ok",
		"version": st.version,
		"offset":  st.offset,
	}
	if st.shard != nil {
		body["shard"] = st.shard.Spec
	}
	writeJSON(w, http.StatusOK, body)
}

// handleReadyz is READINESS: 200 only once a model is loaded AND its
// event-log offset has reached the ready target (the log size observed
// at boot), so a router never sends traffic to a shard still replaying
// the backlog it booted behind. A server never asked to wait (target 0)
// is ready as soon as it has a model.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	st := s.cur.Load()
	target := s.readyTarget.Load()
	if st == nil {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status": "starting", "target": target,
		})
		return
	}
	body := map[string]any{
		"version": st.version,
		"offset":  st.offset,
		"target":  target,
	}
	if st.shard != nil {
		body["shard"] = st.shard.Spec
	}
	if st.offset < target {
		body["status"] = "catching-up"
		writeJSON(w, http.StatusServiceUnavailable, body)
		return
	}
	body["status"] = "ready"
	writeJSON(w, http.StatusOK, body)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st := s.cur.Load()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	fmt.Fprintf(w, "# HELP trustd_requests_total Queries served, by endpoint.\n# TYPE trustd_requests_total counter\n")
	for i, ep := range endpointNames {
		fmt.Fprintf(w, "trustd_requests_total{endpoint=%q} %d\n", ep, s.metrics.requests[i].Load())
	}
	counter("trustd_bad_requests_total", "Requests rejected with a client error.", s.metrics.badRequests.Load())
	counter("trustd_shed_total", "Compute queries shed with 429 by the in-flight admission bound.", s.metrics.shed.Load())
	gauge("trustd_inflight", "Compute queries currently being served.", s.inflight.Load())
	counter("trustd_tail_transient_errors_total", "Tail polls that failed transiently (log unreadable) and were retried with backoff.", s.metrics.tailTransient.Load())
	counter("trustd_misdirected_requests_total", "Per-source requests for users this shard does not own (answered 421).", s.metrics.misdirected.Load())
	counter("trustd_result_cache_hits_total", "Ranked-result cache hits.", s.metrics.cacheHits.Load())
	counter("trustd_result_cache_misses_total", "Ranked-result cache misses.", s.metrics.cacheMisses.Load())
	counter("trustd_row_computes_total", "Trust rows actually evaluated (misses minus requests that waited on another's computation).", s.metrics.rowComputes.Load())
	counter("trustd_swaps_total", "Model swaps performed by ingest.", s.metrics.swaps.Load())
	fmt.Fprintf(w, "# HELP trustd_warm_seconds Cumulative wall-clock of post-publish warms (the rank, landmark and anomaly builds a swap forces after it publishes).\n# TYPE trustd_warm_seconds counter\ntrustd_warm_seconds %g\n",
		float64(s.metrics.warmNanos.Load())/1e9)
	fmt.Fprintf(w, "# HELP trustd_warms_total Post-publish warms, by outcome: done, or abandoned because a swap replaced their state.\n# TYPE trustd_warms_total counter\n")
	fmt.Fprintf(w, "trustd_warms_total{outcome=\"done\"} %d\ntrustd_warms_total{outcome=\"abandoned\"} %d\n", s.metrics.warmsDone.Load(), s.metrics.warmsAbandoned.Load())
	counter("trustd_cache_carryover_dropped_total", "Result-cache entries discarded at swaps (every swap starts an empty cache).", s.metrics.cacheDropped.Load())
	counter("trustd_events_ingested_total", "Event-log records ingested since start.", s.metrics.eventsIngested.Load())
	counter("trustd_log_truncated_reads_total", "Tail reads that hit a torn final record.", s.metrics.truncatedReads.Load())
	// State-derived gauges are absent while a pending server awaits its
	// first model (counters above still scrape).
	if st != nil {
		gauge("trustd_model_version", "Version of the served model (increments per swap).", int64(st.version))
		gauge("trustd_log_offset_bytes", "Event-log offset the served model reflects.", st.offset)
		gauge("trustd_result_cache_entries", "Ranked results currently cached.", int64(st.results.len()))
		gauge("trustd_result_cache_bytes", "Approximate memory retained by the result cache.", st.results.approxBytes())
		if sh := st.shard; sh != nil {
			gauge("trustd_shard_index", "This server's shard index.", int64(sh.Index))
			gauge("trustd_shard_count", "Total shards in the deployment.", int64(sh.Count))
			gauge("trustd_shard_owned_users", "Source users this shard answers for.", int64(sh.OwnedUsers))
		}
	}
	counter("trustd_checkpoint_writes_total", "Checkpoints successfully written.", s.metrics.checkpointWrites.Load())
	counter("trustd_checkpoint_errors_total", "Checkpoint write or prune failures.", s.metrics.checkpointErrors.Load())
	if ck := s.checkpointStatus(); ck != nil {
		gauge("trustd_checkpoint_last_offset_bytes", "Event-log offset the newest checkpoint reflects.", ck.Offset)
		gauge("trustd_checkpoint_size_bytes", "Size of the newest checkpoint file.", ck.SizeBytes)
		fmt.Fprintf(w, "# HELP trustd_checkpoint_age_seconds Seconds since the newest checkpoint was written.\n# TYPE trustd_checkpoint_age_seconds gauge\ntrustd_checkpoint_age_seconds %g\n",
			time.Since(ck.WrittenAt).Seconds())
	}
	// Peek only: a scrape must never force the lazily rebuilt web of a
	// freshly restored model (the gauges appear once a graph consumer
	// has built it, or immediately after a pipeline-built swap).
	if st != nil {
		if web, ok := st.model.WebOfTrustBuilt(); ok {
			gauge("trustd_web_nodes", "Nodes in the served web of trust.", int64(web.NumUsers()))
			gauge("trustd_web_edges", "Directed trust edges in the served web of trust.", int64(web.NumEdges()))
		}
		// Peek only: the scrape must not force the cold rank solve of a
		// state nobody has queried /v1/rank on.
		if rv, ok := st.rank.peek(); ok {
			gauge("trustd_rank_iterations", "Power iterations behind the served global rank vector.", int64(rv.iters))
		}
		// Peek only, same reason, for the anomaly scoring pass.
		if sc, ok := st.anomaly.peek(); ok && sc != nil {
			gauge("trustd_anomaly_scored_users", "Users covered by the served anomaly score vector.", int64(sc.NumUsers()))
			fmt.Fprintf(w, "# HELP trustd_anomaly_max_score Largest served per-user suspicion score.\n# TYPE trustd_anomaly_max_score gauge\ntrustd_anomaly_max_score %g\n",
				sc.MaxScore())
		}
	}
	counter("trustd_anomaly_computes_total", "Anomaly scoring passes.", s.metrics.anomalyComputes.Load())
	fmt.Fprintf(w, "# HELP trustd_propagate_requests_total Propagation queries served, by algorithm.\n# TYPE trustd_propagate_requests_total counter\n")
	for i, algo := range []string{"appleseed", "moletrust", "tidaltrust"} {
		fmt.Fprintf(w, "trustd_propagate_requests_total{algo=%q} %d\n", algo, s.metrics.propagateRequests[i].Load())
	}
	counter("trustd_propagate_computes_total", "Propagation rank vectors actually computed (cache misses minus requests that waited on another's computation).", s.metrics.propagateComputes.Load())
	counter("trustd_landmark_builds_total", "Landmark sketches built.", s.metrics.landmarkBuilds.Load())
	fmt.Fprintf(w, "# HELP trustd_landmark_build_seconds Cumulative wall-clock spent building landmark sketches.\n# TYPE trustd_landmark_build_seconds counter\ntrustd_landmark_build_seconds %g\n",
		float64(s.metrics.landmarkBuildNanos.Load())/1e9)
	if st != nil {
		gauge("trustd_landmark_count", "Landmark hubs configured (selected count once derived).", int64(st.landmarks.size()))
	}
	fmt.Fprintf(w, "# HELP trustd_propagate_seconds_total Wall-clock spent serving propagation queries.\n# TYPE trustd_propagate_seconds_total counter\ntrustd_propagate_seconds_total %g\n",
		float64(s.metrics.propagateNanos.Load())/1e9)
	fmt.Fprintf(w, "# HELP trustd_propagate_last_seconds Latency of the most recent propagation query.\n# TYPE trustd_propagate_last_seconds gauge\ntrustd_propagate_last_seconds %g\n",
		float64(s.metrics.propagateLastNanos.Load())/1e9)
	if st != nil {
		d := st.model.Dataset()
		gauge("trustd_dataset_users", "Users in the served dataset.", int64(d.NumUsers()))
		gauge("trustd_dataset_categories", "Categories in the served dataset.", int64(d.NumCategories()))
		gauge("trustd_dataset_reviews", "Reviews in the served dataset.", int64(d.NumReviews()))
		gauge("trustd_dataset_ratings", "Ratings in the served dataset.", int64(d.NumRatings()))
	}
	gauge("trustd_last_swap_timestamp_nanos", "Unix time of the last model swap, 0 before any.", s.metrics.lastSwapNanos.Load())
}
