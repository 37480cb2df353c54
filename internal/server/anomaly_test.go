package server

import (
	"fmt"
	"net/http"
	"strings"
	"testing"

	"weboftrust/internal/anomaly"
	"weboftrust/internal/core"
	"weboftrust/internal/ratings"
)

// TestAnomalyEndpoint: /v1/anomaly?user= and /v1/anomaly/top agree with
// a direct internal/anomaly Compute over the served dataset and web, and
// parameters are validated like every other endpoint.
func TestAnomalyEndpoint(t *testing.T) {
	srv, _, d := openServer(t)
	h := srv.Handler()
	model, _, _ := srv.Current()
	want := anomaly.Compute(model.Dataset(), model.WebOfTrust().Graph())
	totals := want.Total()

	for u := 0; u < d.NumUsers(); u += 9 {
		resp := decode[AnomalyResponse](t, get(t, h, fmt.Sprintf("/v1/anomaly?user=%d", u)))
		if resp.User != u || resp.Name != d.UserName(ratings.UserID(u)) || resp.Users != d.NumUsers() {
			t.Fatalf("anomaly(%d) header = %+v", u, resp)
		}
		if resp.Score != totals[u] {
			t.Errorf("anomaly(%d) score %v, want %v", u, resp.Score, totals[u])
		}
		rating, graphS, burst := want.Signals(ratings.UserID(u))
		if resp.Signals != (AnomalySignals{Rating: rating, Graph: graphS, Burst: burst}) {
			t.Errorf("anomaly(%d) signals %+v, want {%v %v %v}", u, resp.Signals, rating, graphS, burst)
		}
		wantRank := 1
		for j, v := range totals {
			if v > totals[u] || (v == totals[u] && j < u) {
				wantRank++
			}
		}
		if resp.Rank != wantRank {
			t.Errorf("anomaly(%d) rank %d, want %d", u, resp.Rank, wantRank)
		}
	}

	top := decode[AnomalyTopResponse](t, get(t, h, "/v1/anomaly/top?k=8"))
	if top.K != 8 || top.Users != d.NumUsers() {
		t.Fatalf("top header = %+v", top)
	}
	wantTop := core.RankRow(totals, 8)
	if len(top.Results) != len(wantTop) {
		t.Fatalf("top has %d rows, want %d", len(top.Results), len(wantTop))
	}
	for i, row := range top.Results {
		rk := wantTop[i]
		if row.Rank != i+1 || row.User != int(rk.User) || row.Score != rk.Score || row.Name != d.UserName(rk.User) {
			t.Errorf("top[%d] = %+v, want {%d %d %s %v}", i, row, i+1, rk.User, d.UserName(rk.User), rk.Score)
		}
	}
	// The leaderboard rides the result cache: a repeat query is a hit.
	hits := srv.metrics.cacheHits.Load()
	again := decode[AnomalyTopResponse](t, get(t, h, "/v1/anomaly/top?k=8"))
	if srv.metrics.cacheHits.Load() != hits+1 {
		t.Error("repeat /v1/anomaly/top did not hit the result cache")
	}
	for i := range again.Results {
		if again.Results[i] != top.Results[i] {
			t.Fatalf("cached top[%d] = %+v, want %+v", i, again.Results[i], top.Results[i])
		}
	}

	for url, want := range map[string]int{
		"/v1/anomaly":              http.StatusBadRequest,
		"/v1/anomaly?user=bogus":   http.StatusBadRequest,
		"/v1/anomaly?user=999999":  http.StatusNotFound,
		"/v1/anomaly/top?k=0":      http.StatusBadRequest,
		"/v1/anomaly/top?k=nonnum": http.StatusBadRequest,
	} {
		if rec := get(t, h, url); rec.Code != want {
			t.Errorf("GET %s = %d, want %d", url, rec.Code, want)
		}
	}
}

// TestAnomalyIncrementalSwap: once a state's scores are forced, the
// swap that replaces it warms the new state's scores before publishing
// them — bitwise equal to a cold Compute over the new dataset (the
// replica byte-identity property at single-server scope). The metrics
// scrape reports the vector without ever forcing one.
func TestAnomalyIncrementalSwap(t *testing.T) {
	srv, tailer, d := openServer(t)
	h := srv.Handler()

	// Before any anomaly traffic, the scrape must not force a compute.
	metrics := get(t, h, "/metrics").Body.String()
	if strings.Contains(metrics, "trustd_anomaly_scored_users") {
		t.Error("metrics scrape forced the anomaly compute on a cold state")
	}
	if !strings.Contains(metrics, "trustd_anomaly_computes_total 0") {
		t.Errorf("expected zero computes before traffic:\n%s", metrics)
	}

	// Force the root state's lazy compute through the endpoint.
	get(t, h, "/v1/anomaly?user=0")
	if _, ok := srv.cur.Load().anomaly.peek(); !ok {
		t.Fatal("root anomaly not computed after /v1/anomaly")
	}
	if got := srv.metrics.anomalyComputes.Load(); got != 1 {
		t.Fatalf("computes = %d after first query, want 1", got)
	}

	appendEvents(t, tailer.path, growBatch(d, 0))
	if n, err := tailer.Poll(); err != nil || n == 0 {
		t.Fatalf("poll: n=%d err=%v", n, err)
	}
	st := srv.cur.Load()
	sc, ok := st.anomaly.peek()
	if !ok {
		t.Fatal("swap did not warm the anomaly scores its predecessor had forced")
	}
	if got := srv.metrics.anomalyComputes.Load(); got != 2 {
		t.Fatalf("computes = %d after the warming swap, want 2", got)
	}
	newModel, _, _ := srv.Current()
	cold := anomaly.Compute(newModel.Dataset(), newModel.WebOfTrust().Graph())
	gotTotals, wantTotals := sc.Total(), cold.Total()
	if len(gotTotals) != len(wantTotals) {
		t.Fatalf("warmed scores cover %d users, want %d", len(gotTotals), len(wantTotals))
	}
	for u := range wantTotals {
		if gotTotals[u] != wantTotals[u] {
			t.Fatalf("warmed score[%d] = %v, cold compute %v (must be bit-identical)", u, gotTotals[u], wantTotals[u])
		}
	}
	// Scrape now reports the warmed vector, peek-only.
	metrics = get(t, h, "/metrics").Body.String()
	for _, want := range []string{
		fmt.Sprintf("trustd_anomaly_scored_users %d", sc.NumUsers()),
		"trustd_anomaly_computes_total 2",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}

	// The leaderboard cache never carries across a swap: scores move with
	// any delta, so the fresh state recuts from its own vector.
	top := decode[AnomalyTopResponse](t, get(t, h, "/v1/anomaly/top?k=5"))
	wantTop := core.RankRow(wantTotals, 5)
	for i, row := range top.Results {
		if row.User != int(wantTop[i].User) || row.Score != wantTop[i].Score {
			t.Errorf("post-swap top[%d] = %+v, want {%d %v}", i, row, wantTop[i].User, wantTop[i].Score)
		}
	}
}
