package server

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"weboftrust"
	"weboftrust/internal/core"
	"weboftrust/internal/ratings"
	"weboftrust/internal/store"
)

func TestHeatTrackerFoldAndPrune(t *testing.T) {
	h := newHeatTracker()
	a := heatKey{kind: kindAppleseed, user: 3, k: 10}
	b := heatKey{kind: kindMoleTrust, user: 7, k: 10}
	h.record(a)
	h.record(a)
	h.record(b)
	h.fold()
	hot := h.hot()
	if len(hot) != 2 || hot[0].key != a || hot[0].heat != 1.0 || hot[1].heat != 0.5 {
		t.Fatalf("after first fold: %+v", hot)
	}
	// A quiet swap halves heat; b (0.25) sits exactly at the floor and
	// survives, one more quiet swap prunes it.
	h.fold()
	hot = h.hot()
	if len(hot) != 2 || hot[0].heat != 0.5 || hot[1].heat != 0.25 {
		t.Fatalf("after quiet fold: %+v", hot)
	}
	h.fold()
	hot = h.hot()
	if len(hot) != 1 || hot[0].key != a || hot[0].heat != 0.25 {
		t.Fatalf("after second quiet fold: %+v", hot)
	}
	h.fold()
	if hot = h.hot(); len(hot) != 0 {
		t.Fatalf("tracker did not drain: %+v", hot)
	}
}

// heatKeys counts the keys a server's heat tracker holds, windowed or
// folded.
func heatKeys(s *Server) int {
	if s.heat == nil {
		return 0
	}
	s.heat.mu.Lock()
	defer s.heat.mu.Unlock()
	return len(s.heat.window) + len(s.heat.ewma)
}

// TestHeatTrackedOnlyWithBudget pins that query heat is tracked only when
// swap-time precompute can use it: a default server (no budget) holds no
// heat keys after propagate traffic and a swap, a budgeted one does.
func TestHeatTrackedOnlyWithBudget(t *testing.T) {
	for _, budget := range []time.Duration{0, time.Second} {
		path, d := writeLogFile(t)
		srv, tailer, err := Open(path, time.Hour, Options{PrecomputeBudget: budget})
		if err != nil {
			t.Fatal(err)
		}
		h := srv.Handler()
		query := func() {
			t.Helper()
			for u := 0; u < 4; u++ {
				if rec := get(t, h, fmt.Sprintf("/v1/propagate?algo=moletrust&user=%d&k=5", u)); rec.Code != 200 {
					t.Fatalf("budget %v: propagate: %d %s", budget, rec.Code, rec.Body.String())
				}
			}
		}
		query()
		appendEvents(t, tailer.path, growBatch(d, 0))
		if n, err := tailer.Poll(); err != nil || n == 0 {
			t.Fatalf("budget %v: poll: n=%d err=%v", budget, n, err)
		}
		query()
		if got := heatKeys(srv); (got > 0) != (budget > 0) {
			t.Errorf("budget %v: tracker holds %d heat keys after traffic and a swap", budget, got)
		}
	}
}

func TestHeatTrackerDeterministicOrderAndCap(t *testing.T) {
	h := newHeatTracker()
	// Equal heat everywhere: order must fall back to key fields.
	for u := 9; u >= 0; u-- {
		h.record(heatKey{kind: kindTidalTrust, user: ratings.UserID(u), k: 10})
		h.record(heatKey{kind: kindAppleseed, user: ratings.UserID(u), k: 10})
	}
	h.fold()
	hot := h.hot()
	if len(hot) != 20 {
		t.Fatalf("got %d entries", len(hot))
	}
	for i, e := range hot {
		wantKind, wantUser := kindAppleseed, ratings.UserID(i)
		if i >= 10 {
			wantKind, wantUser = kindTidalTrust, ratings.UserID(i-10)
		}
		if e.key.kind != wantKind || e.key.user != wantUser {
			t.Fatalf("hot[%d] = %+v, want kind %d user %d", i, e.key, wantKind, wantUser)
		}
	}
	// Over the cap, only the hottest heatMaxKeys keys survive a fold.
	for u := 0; u < heatMaxKeys+100; u++ {
		h.record(heatKey{kind: kindAppleseed, user: ratings.UserID(u), k: 10})
	}
	h.fold()
	if got := len(h.hot()); got != heatMaxKeys {
		t.Fatalf("tracker holds %d keys, cap %d", got, heatMaxKeys)
	}
}

// trustBatch grows the log like growBatch and additionally adds a trust
// edge between two long-existing users, guaranteeing the dirty set
// reaches into the original community (user 2's row).
func trustBatch(d *ratings.Dataset, i int) []store.Event {
	return append(growBatch(d, i), store.Event{Kind: store.EvAddTrust, User: 2, To: 9})
}

// TestPrewarmMatchesColdCompute is the precompute engine's bitwise pin:
// after an incremental swap with a precompute budget, every hot owned
// source has a pre-warmed cache entry whose ranked result is
// identical — user for user, score bit for score bit — to computing the
// same request cold against the new model. Runs across shard counts
// {1, 3} and worker counts {1, 4}, since both shard ownership and the
// parallel derive must not perturb the served bytes.
func TestPrewarmMatchesColdCompute(t *testing.T) {
	for _, shards := range []int{1, 3} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("shards=%d/workers=%d", shards, workers), func(t *testing.T) {
				testPrewarmBitwise(t, shards, workers)
			})
		}
	}
}

func testPrewarmBitwise(t *testing.T, shards, workers int) {
	path, d := writeLogFile(t)
	derive := []weboftrust.Option{weboftrust.WithWorkers(workers)}
	if shards > 1 {
		derive = append(derive, weboftrust.WithShard(0, shards))
	}
	srv, tailer, err := Open(path, time.Hour, Options{PrecomputeBudget: time.Minute}, derive...)
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	model, _, _ := srv.Current()

	// Heat every owned source under appleseed, every fifth under the
	// other two algorithms.
	type hotQ struct {
		kind resultKind
		algo string
		u    int
	}
	var hot []hotQ
	for u := 0; u < d.NumUsers(); u++ {
		if !model.Owns(ratings.UserID(u)) {
			continue
		}
		hot = append(hot, hotQ{kindAppleseed, "appleseed", u})
		if u%5 == 0 {
			hot = append(hot, hotQ{kindMoleTrust, "moletrust", u}, hotQ{kindTidalTrust, "tidaltrust", u})
		}
	}
	for _, q := range hot {
		if rec := get(t, h, "/v1/propagate?algo="+q.algo+"&user="+itoa(q.u)+"&k=5"); rec.Code != 200 {
			t.Fatalf("heat %s(%d): %d %s", q.algo, q.u, rec.Code, rec.Body.String())
		}
	}

	appendEvents(t, path, trustBatch(d, 0))
	if n, err := tailer.Poll(); err != nil || n == 0 {
		t.Fatalf("poll: n=%d err=%v", n, err)
	}
	if srv.metrics.precomputeRuns.Load() == 0 {
		t.Fatal("precompute never ran at the incremental swap")
	}
	if srv.metrics.precomputeVectors.Load() == 0 {
		t.Fatal("precompute warmed no vectors")
	}

	newModel, _, _ := srv.Current()
	st := srv.cur.Load()
	numU := newModel.Dataset().NumUsers()
	kc := cacheK(5, numU)
	vec := make([]float64, numU)
	for _, q := range hot {
		ranked, prewarmed, ok := st.results.get(resultKey{kind: q.kind, user: ratings.UserID(q.u), k: kc})
		if !ok {
			t.Fatalf("hot %s(%d) has no cache entry after precompute", q.algo, q.u)
		}
		if !prewarmed {
			t.Errorf("hot %s(%d) entry not marked pre-warmed", q.algo, q.u)
		}
		// Cold compute: the same path a served miss takes.
		if err := newModel.PropagateInto(weboftrust.PropagationAlgo(q.kind-kindAppleseed), ratings.UserID(q.u), vec); err != nil {
			t.Fatal(err)
		}
		want := core.RankRow(vec, kc)
		if len(ranked) != len(want) {
			t.Fatalf("%s(%d): prewarmed %d entries, cold %d", q.algo, q.u, len(ranked), len(want))
		}
		for i := range want {
			if ranked[i].User != want[i].User || ranked[i].Score != want[i].Score {
				t.Fatalf("%s(%d)[%d]: prewarmed {%d %v}, cold {%d %v} — not bitwise-identical",
					q.algo, q.u, i, ranked[i].User, ranked[i].Score, want[i].User, want[i].Score)
			}
		}
	}
}

// TestPrewarmServesWithoutTraversal pins the serving-side payoff: after
// the swap, the first query for a pre-warmed hot source is a
// cache hit (no propagation traversal), counted by the prewarm-hit
// metric, and still answers exactly what a fresh propagation on the new
// model would.
func TestPrewarmServesWithoutTraversal(t *testing.T) {
	path, d := writeLogFile(t)
	srv, tailer, err := Open(path, time.Hour, Options{PrecomputeBudget: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	const url = "/v1/propagate?algo=appleseed&user=2&k=5"
	if rec := get(t, h, url); rec.Code != 200 {
		t.Fatalf("heat query: %d", rec.Code)
	}
	appendEvents(t, path, trustBatch(d, 0))
	if n, err := tailer.Poll(); err != nil || n == 0 {
		t.Fatalf("poll: n=%d err=%v", n, err)
	}
	computes := srv.metrics.propagateComputes.Load()
	hits := srv.metrics.prewarmHits.Load()
	rec := get(t, h, url)
	if rec.Code != 200 {
		t.Fatalf("post-swap query: %d %s", rec.Code, rec.Body.String())
	}
	if got := srv.metrics.propagateComputes.Load(); got != computes {
		t.Errorf("post-swap query paid a traversal: computes %d -> %d", computes, got)
	}
	if got := srv.metrics.prewarmHits.Load(); got != hits+1 {
		t.Errorf("prewarm hits = %d, want %d", got, hits+1)
	}
	newModel, _, _ := srv.Current()
	resp := decode[PropagateResponse](t, rec)
	want, err := newModel.Propagate(weboftrust.PropagateAppleseed, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != len(want) {
		t.Fatalf("served %d results, fresh propagation %d", len(resp.Results), len(want))
	}
	for i, rk := range want {
		if resp.Results[i].User != int(rk.User) || resp.Results[i].Score != rk.Score {
			t.Errorf("served[%d] = %+v, want {%d %v}", i, resp.Results[i], rk.User, rk.Score)
		}
	}
	// The second hit on the same entry is an ordinary cache hit.
	if rec := get(t, h, url); rec.Code != 200 {
		t.Fatal("repeat query failed")
	}
	if got := srv.metrics.prewarmHits.Load(); got != hits+1 {
		t.Errorf("prewarm hit double-counted: %d", got)
	}

	// Stats surface the engine's counters.
	stats := decode[StatsResponse](t, get(t, h, "/v1/stats"))
	if stats.Precompute == nil {
		t.Fatal("stats omit the precompute block with a budget configured")
	}
	if stats.Precompute.Runs == 0 || stats.Precompute.Vectors == 0 || stats.Precompute.PrewarmHits != 1 {
		t.Errorf("precompute stats = %+v", stats.Precompute)
	}
	body := get(t, h, "/metrics").Body.String()
	for _, name := range []string{
		"trustd_propagate_precompute_runs_total",
		"trustd_propagate_precompute_vectors_total",
		"trustd_propagate_precompute_budget_exhausted_total",
		"trustd_result_cache_prewarm_hits_total",
	} {
		if !strings.Contains(body, name) {
			t.Errorf("/metrics missing %s", name)
		}
	}
}

// TestPrecomputeBudgetExhaustion pins the budget contract: a swap whose
// budget is already spent computes nothing and counts the exhaustion,
// and a server with no budget never runs the engine at all.
func TestPrecomputeBudgetExhaustion(t *testing.T) {
	path, d := writeLogFile(t)
	srv, tailer, err := Open(path, time.Hour, Options{PrecomputeBudget: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	if rec := get(t, h, "/v1/propagate?algo=appleseed&user=2&k=5"); rec.Code != 200 {
		t.Fatalf("heat query: %d", rec.Code)
	}
	appendEvents(t, path, trustBatch(d, 0))
	if n, err := tailer.Poll(); err != nil || n == 0 {
		t.Fatalf("poll: n=%d err=%v", n, err)
	}
	if got := srv.metrics.precomputeRuns.Load(); got != 1 {
		t.Errorf("precompute runs = %d, want 1", got)
	}
	if got := srv.metrics.precomputeVectors.Load(); got != 0 {
		t.Errorf("a nanosecond budget warmed %d vectors", got)
	}
	if got := srv.metrics.precomputeBudgetExhausted.Load(); got != 1 {
		t.Errorf("budget exhausted = %d, want 1", got)
	}

	path2, d2 := writeLogFile(t)
	srv2, tailer2, err := Open(path2, time.Hour, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rec := get(t, srv2.Handler(), "/v1/propagate?algo=appleseed&user=2&k=5"); rec.Code != 200 {
		t.Fatalf("heat query: %d", rec.Code)
	}
	appendEvents(t, path2, trustBatch(d2, 0))
	if n, err := tailer2.Poll(); err != nil || n == 0 {
		t.Fatalf("poll: n=%d err=%v", n, err)
	}
	if got := srv2.metrics.precomputeRuns.Load(); got != 0 {
		t.Errorf("engine ran %d times with no budget configured", got)
	}
}
