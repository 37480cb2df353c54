package server

import (
	"fmt"
	"net/http"
	"testing"

	"weboftrust"
	"weboftrust/internal/ratings"
	"weboftrust/internal/synth"
)

// TestRankEndpoint: the /v1/rank leaderboard and per-user lookups agree
// with the facade's converged EigenTrust vector, and parameters are
// validated like every other endpoint.
func TestRankEndpoint(t *testing.T) {
	srv, _, d := openServer(t)
	h := srv.Handler()
	model, _, _ := srv.Current()
	vec, iters, err := model.GlobalRanks()
	if err != nil {
		t.Fatal(err)
	}

	resp := decode[RankResponse](t, get(t, h, "/v1/rank?k=5"))
	if resp.K != 5 || resp.Users != d.NumUsers() || resp.Iterations != iters {
		t.Fatalf("leaderboard header = %+v, want k=5 users=%d iterations=%d", resp, d.NumUsers(), iters)
	}
	if len(resp.Results) != 5 {
		t.Fatalf("leaderboard has %d rows, want 5", len(resp.Results))
	}
	for i, row := range resp.Results {
		if row.Rank != i+1 {
			t.Errorf("row %d has rank %d", i, row.Rank)
		}
		if row.Score != vec[row.User] {
			t.Errorf("row %d user %d score %v, want %v", i, row.User, row.Score, vec[row.User])
		}
		if i > 0 && row.Score > resp.Results[i-1].Score {
			t.Errorf("leaderboard not descending at row %d", i)
		}
	}

	// Per-user rank: 1-based, consistent with a full scan of the vector,
	// and the leaderboard's own rows round-trip to their positions.
	for _, u := range []int{0, 7, d.NumUsers() - 1, resp.Results[0].User} {
		ur := decode[RankUserResponse](t, get(t, h, fmt.Sprintf("/v1/rank?user=%d", u)))
		if ur.Score != vec[u] {
			t.Errorf("user %d score %v, want %v", u, ur.Score, vec[u])
		}
		wantRank := 1
		for j, v := range vec {
			if v > vec[u] || (v == vec[u] && j < u) {
				wantRank++
			}
		}
		if ur.Rank != wantRank {
			t.Errorf("user %d rank %d, want %d", u, ur.Rank, wantRank)
		}
	}
	if top := decode[RankUserResponse](t, get(t, h, fmt.Sprintf("/v1/rank?user=%d", resp.Results[0].User))); top.Rank != 1 {
		t.Errorf("leaderboard head has rank %d", top.Rank)
	}

	for url, want := range map[string]int{
		"/v1/rank?user=999999": http.StatusNotFound,
		"/v1/rank?user=bogus":  http.StatusBadRequest,
		"/v1/rank?k=0":         http.StatusBadRequest,
	} {
		if rec := get(t, h, url); rec.Code != want {
			t.Errorf("GET %s = %d, want %d", url, rec.Code, want)
		}
	}
}

// TestRankWarmChainAcrossSwaps: an incremental swap installs an eagerly
// warm-refreshed vector — at most rankRefreshIters power iterations,
// bitwise equal to manually chaining GlobalRanksFrom from the parent's
// vector — while a non-incremental swap falls back to a lazy cold solve.
func TestRankWarmChainAcrossSwaps(t *testing.T) {
	srv, tailer, d := openServer(t)
	h := srv.Handler()

	// Force the root state's lazy cold solve through the endpoint.
	get(t, h, "/v1/rank?k=3")
	prev, ok := srv.cur.Load().rank.peek()
	prevVec, prevIters := prev.vec, prev.iters
	if !ok {
		t.Fatal("root rank not computed after /v1/rank")
	}
	if prevIters < rankRefreshIters {
		t.Fatalf("cold solve took %d iterations; expected more than the refresh budget %d", prevIters, rankRefreshIters)
	}

	appendEvents(t, tailer.path, growBatch(d, 0))
	if n, err := tailer.Poll(); err != nil || n == 0 {
		t.Fatalf("poll: n=%d err=%v", n, err)
	}
	st := srv.cur.Load()
	rv, ok := st.rank.peek()
	vec, iters := rv.vec, rv.iters
	if !ok {
		t.Fatal("incremental swap did not install an eager rank vector")
	}
	if iters > rankRefreshIters {
		t.Fatalf("warm refresh used %d iterations, budget %d", iters, rankRefreshIters)
	}
	newModel, _, _ := srv.Current()
	wantVec, wantIters, err := newModel.GlobalRanksFrom(prevVec, rankRefreshIters)
	if err != nil {
		t.Fatal(err)
	}
	if iters != wantIters || len(vec) != len(wantVec) {
		t.Fatalf("warm chain: %d iters / %d entries, want %d / %d", iters, len(vec), wantIters, len(wantVec))
	}
	for i := range vec {
		if vec[i] != wantVec[i] {
			t.Fatalf("warm chain rank[%d] = %v, want %v (must be deterministic)", i, vec[i], wantVec[i])
		}
	}
	// The endpoint reflects the refreshed chain.
	resp := decode[RankResponse](t, get(t, h, "/v1/rank?k=3"))
	if resp.Iterations != iters {
		t.Errorf("served iterations %d, want %d", resp.Iterations, iters)
	}

	// A non-incremental swap (fresh derive: no parent link to the served
	// state) reverts to the lazy cold path.
	cold, err := weboftrust.Derive(newModel.Dataset())
	if err != nil {
		t.Fatal(err)
	}
	srv.Swap(cold, 0)
	if _, ok := srv.cur.Load().rank.peek(); ok {
		t.Fatal("non-incremental swap should leave the rank solve lazy")
	}
	get(t, h, "/v1/rank?k=3")
	if rv, ok := srv.cur.Load().rank.peek(); !ok || rv.iters <= rankRefreshIters {
		t.Fatalf("cold re-solve after root swap: ok=%v iters=%d", ok, rv.iters)
	}
}

// tick grows d by one user writing one review in the least-popular
// category, rated by one existing user — the canonical small ingest tick
// that leaves most of the community's derived state untouched.
func tick(t *testing.T, d *ratings.Dataset) *ratings.Dataset {
	t.Helper()
	b := ratings.NewBuilderFrom(d)
	cat := ratings.CategoryID(d.NumCategories() - 1)
	writer := b.AddUser("tick-writer")
	oid, err := b.AddObject(cat, "tick-object")
	if err != nil {
		t.Fatal(err)
	}
	rid, err := b.AddReview(writer, oid)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.AddRating(0, rid, ratings.QuantizeRating(0.8)); err != nil {
		t.Fatal(err)
	}
	return b.Snapshot()
}

// TestRankDeterministicAcrossWorkerCounts: the cold rank vector and the
// warm chain are bitwise-identical regardless of pipeline parallelism —
// the property the cluster harness's byte-comparison leans on.
func TestRankDeterministicAcrossWorkerCounts(t *testing.T) {
	cfg := synth.Small()
	d, _, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	grown := tick(t, d)
	var refCold, refWarm []float64
	for i, w := range []int{1, 2, 0} {
		model, err := weboftrust.Derive(d, weboftrust.WithWorkers(w))
		if err != nil {
			t.Fatal(err)
		}
		cold, _, err := model.GlobalRanks()
		if err != nil {
			t.Fatal(err)
		}
		upd, err := model.Update(grown)
		if err != nil {
			t.Fatal(err)
		}
		warm, _, err := upd.GlobalRanksFrom(cold, rankRefreshIters)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			refCold, refWarm = cold, warm
			continue
		}
		for j := range refCold {
			if cold[j] != refCold[j] {
				t.Fatalf("workers=%d: cold rank[%d] differs", w, j)
			}
		}
		for j := range refWarm {
			if warm[j] != refWarm[j] {
				t.Fatalf("workers=%d: warm rank[%d] differs", w, j)
			}
		}
	}
}

// TestRankWarmBudgetMedium pins the acceptance claim at the Medium
// preset: a cold EigenTrust solve needs at least 5x the warm refresh
// budget, so an incremental swap's eager refresh does >=5x less power-
// iteration work than recomputing from scratch — while staying within a
// small drift of the fully converged vector (the geometric tail bound
// documented at rankRefreshIters).
func TestRankWarmBudgetMedium(t *testing.T) {
	d, _, err := synth.Generate(synth.Medium())
	if err != nil {
		t.Fatal(err)
	}
	model, err := weboftrust.Derive(d)
	if err != nil {
		t.Fatal(err)
	}
	cold, coldIters, err := model.GlobalRanks()
	if err != nil {
		t.Fatal(err)
	}
	if coldIters < 5*rankRefreshIters {
		t.Fatalf("cold solve converged in %d iterations; want >= 5x the warm budget (%d)", coldIters, 5*rankRefreshIters)
	}

	upd, err := model.Update(tick(t, d))
	if err != nil {
		t.Fatal(err)
	}
	warm, warmIters, err := upd.GlobalRanksFrom(cold, rankRefreshIters)
	if err != nil {
		t.Fatal(err)
	}
	if warmIters > rankRefreshIters {
		t.Fatalf("warm refresh used %d iterations, budget %d", warmIters, rankRefreshIters)
	}
	converged, _, err := upd.GlobalRanks()
	if err != nil {
		t.Fatal(err)
	}
	var drift float64
	for i := range converged {
		dd := warm[i] - converged[i]
		if dd < 0 {
			dd = -dd
		}
		drift += dd
	}
	if drift > 1e-2 {
		t.Fatalf("warm vector drift L1 = %v after a one-tick refresh, bound 1e-2", drift)
	}
}
