package server

import (
	"strings"
	"testing"
	"time"

	"weboftrust"
	"weboftrust/internal/core"
)

func TestPropagateApproxParamValidation(t *testing.T) {
	srv, _, _ := openServer(t)
	h := srv.Handler()
	if rec := get(t, h, "/v1/propagate?algo=appleseed&user=3&approx=bogus"); rec.Code != 400 {
		t.Errorf("approx=bogus: %d, want 400 (%s)", rec.Code, rec.Body.String())
	}
	// A server with landmarks disabled rejects the mode outright.
	path, _ := writeLogFile(t)
	off, _, err := Open(path, time.Hour, Options{Landmarks: -1})
	if err != nil {
		t.Fatal(err)
	}
	rec := get(t, off.Handler(), "/v1/propagate?algo=appleseed&user=3&approx=landmark")
	if rec.Code != 400 || !strings.Contains(rec.Body.String(), "disabled") {
		t.Errorf("disabled server: %d %s, want 400 disabled", rec.Code, rec.Body.String())
	}
}

// TestLandmarkApproxMatchesFacade pins the serving contract of
// `?approx=landmark`: the response is exactly the ranked head of the
// model facade's ComposeLandmarks over the state's own sketch, the body
// names the mode, an unknown parameter such as exact=1 changes nothing,
// and repeats are cache hits.
func TestLandmarkApproxMatchesFacade(t *testing.T) {
	srv, _, d := openServer(t)
	h := srv.Handler()
	model, _, _ := srv.Current()
	st := srv.cur.Load()
	for _, tc := range []struct {
		algoName string
		algo     weboftrust.PropagationAlgo
	}{
		{"appleseed", weboftrust.PropagateAppleseed},
		{"moletrust", weboftrust.PropagateMoleTrust},
		{"tidaltrust", weboftrust.PropagateTidalTrust},
	} {
		rec := get(t, h, "/v1/propagate?algo="+tc.algoName+"&user=3&k=8&approx=landmark")
		if rec.Code != 200 {
			t.Fatalf("%s: %d %s", tc.algoName, rec.Code, rec.Body.String())
		}
		if ex := get(t, h, "/v1/propagate?algo="+tc.algoName+"&user=3&k=8&approx=landmark&exact=1"); ex.Code != 200 || ex.Body.String() != rec.Body.String() {
			t.Errorf("%s with exact=1: %d %s, want the landmark body", tc.algoName, ex.Code, ex.Body.String())
		}
		resp := decode[PropagateResponse](t, rec)
		if resp.Approx != "landmark" {
			t.Errorf("%s: approx field %q, want landmark", tc.algoName, resp.Approx)
		}
		sk := st.landmarks.algos[tc.algo].get()
		dst := make([]float64, d.NumUsers())
		if err := model.ComposeLandmarks(sk, 3, dst); err != nil {
			t.Fatal(err)
		}
		want := core.RankRow(dst, 8)
		if len(resp.Results) != len(want) {
			t.Fatalf("%s: served %d results, facade %d", tc.algoName, len(resp.Results), len(want))
		}
		for i, rk := range want {
			if resp.Results[i].User != int(rk.User) || resp.Results[i].Score != rk.Score {
				t.Errorf("%s[%d] = %+v, want {%d %v}", tc.algoName, i, resp.Results[i], rk.User, rk.Score)
			}
		}
	}
	// The landmark selection is the deterministic rule over the state's
	// rank vector.
	want := weboftrust.SelectLandmarkIDs(st.rank.get().vec, DefaultLandmarks)
	got := st.landmarks.ids.get()
	if len(got) != len(want) {
		t.Fatalf("selection %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("selection %v, want %v", got, want)
		}
	}
	// Repeats of a landmark query hit the cache, not the composition.
	before := srv.metrics.propagateComputes.Load()
	if rec := get(t, h, "/v1/propagate?algo=appleseed&user=3&k=8&approx=landmark"); rec.Code != 200 {
		t.Fatal("repeat failed")
	}
	if got := srv.metrics.propagateComputes.Load(); got != before {
		t.Errorf("repeat landmark query recomputed: %d -> %d", before, got)
	}
}

// TestLandmarkRefreshAcrossSwap pins the sketch lifecycle: a sketch the
// predecessor built is warmed after the swap publishes (no query-path
// rebuild once the warm is done), sketches nobody asked for stay lazy,
// cached landmark answers are dropped, the warmed sketch equals a cold
// build over the new model, and trustd_landmark_builds_total counts
// every build.
func TestLandmarkRefreshAcrossSwap(t *testing.T) {
	path, d := writeLogFile(t)
	srv, tailer, err := Open(path, time.Hour, Options{})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	const url = "/v1/propagate?algo=appleseed&user=3&k=8&approx=landmark"
	if rec := get(t, h, url); rec.Code != 200 {
		t.Fatalf("cold landmark query: %d %s", rec.Code, rec.Body.String())
	}
	if got := srv.metrics.landmarkBuilds.Load(); got != 1 {
		t.Fatalf("landmark builds = %d, want 1", got)
	}

	appendEvents(t, path, trustBatch(d, 0))
	if n, err := tailer.Poll(); err != nil || n == 0 {
		t.Fatalf("poll: n=%d err=%v", n, err)
	}
	srv.WaitWarm()
	if got := srv.metrics.landmarkBuilds.Load(); got != 2 {
		t.Fatalf("landmark builds = %d after the swap, want 2 (appleseed was built)", got)
	}
	st := srv.cur.Load()
	if _, ok := st.landmarks.algos[weboftrust.PropagateAppleseed].peek(); !ok {
		t.Fatal("swap did not warm the appleseed sketch its predecessor had built")
	}
	for _, algo := range []weboftrust.PropagationAlgo{weboftrust.PropagateMoleTrust, weboftrust.PropagateTidalTrust} {
		if _, ok := st.landmarks.algos[algo].peek(); ok {
			t.Errorf("swap force-built the %v sketch nobody queried", algo)
		}
	}
	// The swap starts an empty cache, so the post-swap query recomputes
	// the composition (one compute, not a traversal).
	numU := srv.cur.Load().model.Dataset().NumUsers()
	if st.results.len() != 0 {
		t.Error("landmark cache entry survived the swap")
	}
	builds := srv.metrics.landmarkBuilds.Load()
	rec := get(t, h, url)
	if rec.Code != 200 {
		t.Fatalf("post-swap landmark query: %d %s", rec.Code, rec.Body.String())
	}
	if got := srv.metrics.landmarkBuilds.Load(); got != builds {
		t.Errorf("post-swap query rebuilt the sketch: builds %d -> %d", builds, got)
	}
	resp := decode[PropagateResponse](t, rec)
	newModel, _, _ := srv.Current()
	sk := st.landmarks.algos[weboftrust.PropagateAppleseed].get()
	dst := make([]float64, numU)
	if err := newModel.ComposeLandmarks(sk, 3, dst); err != nil {
		t.Fatal(err)
	}
	want := core.RankRow(dst, 8)
	for i, rk := range want {
		if resp.Results[i].User != int(rk.User) || resp.Results[i].Score != rk.Score {
			t.Errorf("post-swap[%d] = %+v, want {%d %v}", i, resp.Results[i], rk.User, rk.Score)
		}
	}
	// The warmed sketch agrees with a from-scratch build on the new
	// model under the new selection.
	fresh, err := newModel.BuildLandmarkSketch(weboftrust.PropagateAppleseed, st.landmarks.ids.get())
	if err != nil {
		t.Fatal(err)
	}
	for i := range fresh.Landmarks() {
		fv, rv := fresh.Vector(i), sk.Vector(i)
		if len(fv) != len(rv) {
			t.Fatalf("landmark %d: warmed len %d, fresh len %d", i, len(rv), len(fv))
		}
		for v := range fv {
			if fv[v] != rv[v] {
				t.Fatalf("landmark %d vec[%d]: warmed %v, fresh %v",
					i, v, rv[v], fv[v])
			}
		}
	}

	// Metrics: both builds are counted and timed, and the gauge reports
	// the derived selection size.
	body := get(t, h, "/metrics").Body.String()
	for _, name := range []string{
		"trustd_landmark_builds_total 2",
		"trustd_landmark_build_seconds",
		"trustd_landmark_count",
	} {
		if !strings.Contains(body, name) {
			t.Errorf("/metrics missing %s", name)
		}
	}
	stats := decode[StatsResponse](t, get(t, h, "/v1/stats"))
	if want := len(st.landmarks.ids.get()); stats.Landmarks != want {
		t.Errorf("stats landmarks = %d, want the selection size %d", stats.Landmarks, want)
	}
}
