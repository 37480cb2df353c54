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

// TestRankDeterministicAcrossWorkerCounts: the rank vector, before and
// after a Model.Update, is bitwise-identical regardless of pipeline
// parallelism — the property the cluster harness's byte-comparison leans
// on.
func TestRankDeterministicAcrossWorkerCounts(t *testing.T) {
	cfg := synth.Small()
	d, _, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	grown := tick(t, d)
	var refBefore, refAfter []float64
	for i, w := range []int{1, 2, 0} {
		model, err := weboftrust.Derive(d, weboftrust.WithWorkers(w))
		if err != nil {
			t.Fatal(err)
		}
		before, _, err := model.GlobalRanks()
		if err != nil {
			t.Fatal(err)
		}
		upd, err := model.Update(grown)
		if err != nil {
			t.Fatal(err)
		}
		after, _, err := upd.GlobalRanks()
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			refBefore, refAfter = before, after
			continue
		}
		for j := range refBefore {
			if before[j] != refBefore[j] {
				t.Fatalf("workers=%d: rank[%d] before the update differs", w, j)
			}
		}
		for j := range refAfter {
			if after[j] != refAfter[j] {
				t.Fatalf("workers=%d: rank[%d] after the update differs", w, j)
			}
		}
	}
}

// TestUserPositionsMatchLeaderboards: on the Small community, the
// position /v1/rank?user= serves for every user is that user's place on
// the full leaderboard /v1/rank?k=U, or behind it for a user the
// leaderboard leaves out (a zero score); likewise /v1/anomaly?user=
// against /v1/anomaly/top?k=U.
func TestUserPositionsMatchLeaderboards(t *testing.T) {
	d, _, err := synth.Generate(synth.Small())
	if err != nil {
		t.Fatal(err)
	}
	model, err := weboftrust.Derive(d)
	if err != nil {
		t.Fatal(err)
	}
	h := New(model, 0, Options{}).Handler()
	numU := d.NumUsers()
	for _, c := range []struct{ board, user string }{
		{"/v1/rank?k=%d", "/v1/rank?user=%d"},
		{"/v1/anomaly/top?k=%d", "/v1/anomaly?user=%d"},
	} {
		board := decode[struct{ Results []RankEntry }](t, get(t, h, fmt.Sprintf(c.board, numU))).Results
		if len(board) == 0 {
			t.Fatalf("%s: empty leaderboard", c.board)
		}
		place := make(map[int]int, len(board))
		for i, row := range board {
			place[row.User] = i + 1
		}
		for u := 0; u < numU; u++ {
			got := decode[struct{ Rank int }](t, get(t, h, fmt.Sprintf(c.user, u))).Rank
			if want, ok := place[u]; ok && got != want {
				t.Errorf("%s: user %d at %d, leaderboard place %d", c.user, u, got, want)
			} else if !ok && got <= len(board) {
				t.Errorf("%s: user %d off the %d-row leaderboard at %d", c.user, u, len(board), got)
			}
		}
	}
}
