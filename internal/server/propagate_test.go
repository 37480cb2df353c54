package server

import (
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"weboftrust"
	"weboftrust/internal/ratings"
	"weboftrust/internal/store"
)

var allAlgos = []weboftrust.PropagationAlgo{
	weboftrust.PropagateAppleseed,
	weboftrust.PropagateMoleTrust,
	weboftrust.PropagateTidalTrust,
}

// TestNeighborsMatchesModel: /v1/neighbors serves exactly the facade's
// web rows, weights and generosity.
func TestNeighborsMatchesModel(t *testing.T) {
	srv, _, d := openServer(t)
	h := srv.Handler()
	model, _, _ := srv.Current()
	web := model.WebOfTrust()
	for u := 0; u < d.NumUsers(); u += 5 {
		rec := get(t, h, "/v1/neighbors?user="+itoa(u))
		if rec.Code != 200 {
			t.Fatalf("neighbors user %d: %d %s", u, rec.Code, rec.Body.String())
		}
		resp := decode[NeighborsResponse](t, rec)
		want := model.Neighbors(ratings.UserID(u))
		if resp.Generosity != web.Generosity(ratings.UserID(u)) {
			t.Errorf("user %d generosity = %v, want %v", u, resp.Generosity, web.Generosity(ratings.UserID(u)))
		}
		if len(resp.Edges) != len(want) {
			t.Fatalf("user %d: %d edges, want %d", u, len(resp.Edges), len(want))
		}
		for i, e := range resp.Edges {
			if e.User != int(want[i].User) || e.Weight != want[i].Score {
				t.Fatalf("user %d edge %d: got (%d, %v), want (%d, %v)",
					u, i, e.User, e.Weight, want[i].User, want[i].Score)
			}
		}
	}
}

// TestPropagateMatchesModel: every algorithm's endpoint result equals the
// facade's Propagate ranking.
func TestPropagateMatchesModel(t *testing.T) {
	srv, _, d := openServer(t)
	h := srv.Handler()
	model, _, _ := srv.Current()
	for _, algo := range allAlgos {
		for u := 0; u < d.NumUsers(); u += 11 {
			rec := get(t, h, "/v1/propagate?algo="+algo.String()+"&user="+itoa(u)+"&k=5")
			if rec.Code != 200 {
				t.Fatalf("propagate %s user %d: %d %s", algo, u, rec.Code, rec.Body.String())
			}
			resp := decode[PropagateResponse](t, rec)
			if resp.Algo != algo.String() {
				t.Fatalf("algo echoed %q, want %q", resp.Algo, algo)
			}
			want, err := model.Propagate(algo, ratings.UserID(u), 5)
			if err != nil {
				t.Fatal(err)
			}
			if len(resp.Results) != len(want) {
				t.Fatalf("%s user %d: %d results, want %d", algo, u, len(resp.Results), len(want))
			}
			for i, rk := range want {
				if resp.Results[i].User != int(rk.User) || resp.Results[i].Score != rk.Score {
					t.Fatalf("%s user %d rank %d: got %+v, want {%d %v}",
						algo, u, i, resp.Results[i], rk.User, rk.Score)
				}
			}
		}
	}
}

// TestPropagateCachedAndInvalidatedOnSwap: a repeated propagate query is
// served from the ranked-result cache (no second graph traversal), and an
// ingest swap starts a fresh cache.
func TestPropagateCachedAndInvalidatedOnSwap(t *testing.T) {
	path, _ := writeLogFile(t)
	srv, tailer, err := Open(path, time.Hour, Options{})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	url := "/v1/propagate?algo=appleseed&user=3&k=5"
	if rec := get(t, h, url); rec.Code != 200 {
		t.Fatalf("first: %d", rec.Code)
	}
	if got := srv.metrics.propagateComputes.Load(); got != 1 {
		t.Fatalf("computes after first = %d, want 1", got)
	}
	for i := 0; i < 5; i++ {
		if rec := get(t, h, url); rec.Code != 200 {
			t.Fatalf("repeat: %d", rec.Code)
		}
	}
	if got := srv.metrics.propagateComputes.Load(); got != 1 {
		t.Fatalf("computes after repeats = %d, want 1 (cache misses)", got)
	}
	// Distinct k under the bucketing floor shares the entry; distinct
	// algo does not.
	if rec := get(t, h, "/v1/propagate?algo=appleseed&user=3&k=9"); rec.Code != 200 {
		t.Fatal("k=9 failed")
	}
	if got := srv.metrics.propagateComputes.Load(); got != 1 {
		t.Fatalf("computes after k sweep = %d, want 1", got)
	}
	if rec := get(t, h, "/v1/propagate?algo=moletrust&user=3&k=5"); rec.Code != 200 {
		t.Fatal("moletrust failed")
	}
	if got := srv.metrics.propagateComputes.Load(); got != 2 {
		t.Fatalf("computes after algo change = %d, want 2", got)
	}

	// Swap: the fresh state starts with an empty cache, so the same query
	// recomputes against the fresh graph and must equal a fresh
	// propagation on the new model.
	appendEvents(t, path, growBatch(srv.cur.Load().model.Dataset(), 0))
	if n, err := tailer.Poll(); err != nil || n == 0 {
		t.Fatalf("poll: n=%d err=%v", n, err)
	}
	newModel, _, _ := srv.Current()
	before := srv.metrics.propagateComputes.Load()
	rec := get(t, h, url)
	if rec.Code != 200 {
		t.Fatalf("post-swap: %d", rec.Code)
	}
	if got := srv.metrics.propagateComputes.Load(); got != before+1 {
		t.Fatalf("computes after swap = %d, want %d (a swap must start an empty cache)", got, before+1)
	}
	resp := decode[PropagateResponse](t, rec)
	want, err := newModel.Propagate(weboftrust.PropagateAppleseed, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != len(want) {
		t.Fatalf("post-swap propagate has %d results, want %d", len(resp.Results), len(want))
	}
	for i, rk := range want {
		if resp.Results[i].User != int(rk.User) || resp.Results[i].Score != rk.Score {
			t.Errorf("post-swap propagate[%d] = %+v, want {%d %v}", i, resp.Results[i], rk.User, rk.Score)
		}
	}
}

// TestGraphStatsEndpoint sanity-checks /v1/graph/stats against the served
// web and checks the new Prometheus surfaces appear.
func TestGraphStatsEndpoint(t *testing.T) {
	srv, _, d := openServer(t)
	h := srv.Handler()
	rec := get(t, h, "/v1/graph/stats")
	if rec.Code != 200 {
		t.Fatalf("graph/stats: %d", rec.Code)
	}
	resp := decode[GraphStatsResponse](t, rec)
	model, _, _ := srv.Current()
	web := model.WebOfTrust()
	if resp.Nodes != d.NumUsers() || resp.Edges != web.NumEdges() {
		t.Errorf("nodes/edges = %d/%d, want %d/%d", resp.Nodes, resp.Edges, d.NumUsers(), web.NumEdges())
	}
	if resp.Policy != "per-user-topk" {
		t.Errorf("policy = %q", resp.Policy)
	}
	if resp.Edges > 0 && resp.MeanOutDegree <= 0 {
		t.Errorf("mean out degree = %v with %d edges", resp.MeanOutDegree, resp.Edges)
	}

	// Trigger one propagate so the latency surfaces are non-zero.
	if rec := get(t, h, "/v1/propagate?algo=appleseed&user=1"); rec.Code != 200 {
		t.Fatalf("propagate: %d", rec.Code)
	}
	body := get(t, h, "/metrics").Body.String()
	for _, want := range []string{
		"trustd_web_edges",
		"trustd_web_nodes",
		`trustd_propagate_requests_total{algo="appleseed"} 1`,
		"trustd_propagate_computes_total 1",
		"trustd_propagate_seconds_total",
		"trustd_propagate_last_seconds",
		`trustd_requests_total{endpoint="propagate"} 1`,
		`trustd_requests_total{endpoint="graph_stats"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestPropagateBadRequests covers parameter validation.
func TestPropagateBadRequests(t *testing.T) {
	srv, _, d := openServer(t)
	h := srv.Handler()
	for _, url := range []string{
		"/v1/propagate?user=1",                    // missing algo
		"/v1/propagate?algo=pagerank&user=1",      // unknown algo
		"/v1/propagate?algo=appleseed",            // missing user
		"/v1/propagate?algo=appleseed&user=abc",   // bad user
		"/v1/propagate?algo=appleseed&user=1&k=0", // bad k
		"/v1/propagate?algo=appleseed&user=1&k=x", // bad k
		"/v1/neighbors",                           // missing user
	} {
		if rec := get(t, h, url); rec.Code != 400 {
			t.Errorf("%s: code %d, want 400", url, rec.Code)
		}
	}
	over := itoa(d.NumUsers())
	if rec := get(t, h, "/v1/propagate?algo=appleseed&user="+over); rec.Code != 404 {
		t.Errorf("out-of-range user: code %d, want 404", rec.Code)
	}
	if rec := get(t, h, "/v1/neighbors?user="+over); rec.Code != 404 {
		t.Errorf("out-of-range neighbors user: code %d, want 404", rec.Code)
	}
	if rec := get(t, h, "/v1/neighbors?user=-2"); rec.Code != 404 {
		t.Errorf("negative neighbors user: code %d, want 404", rec.Code)
	}
}

// TestConcurrentPropagateDuringIngest is the propagation counterpart of
// the topk acceptance test: /v1/propagate and /v1/neighbors serve
// consistent answers while the tailer folds batches in concurrently, and
// after the dust settles every propagate answer matches a cold rebuild of
// the grown log. Run with -race.
func TestConcurrentPropagateDuringIngest(t *testing.T) {
	path, d := writeLogFile(t)
	srv, tailer, err := Open(path, time.Hour, Options{})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()

	const rounds = 5
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				u := (w*37 + i) % d.NumUsers()
				algo := allAlgos[(w+i)%len(allAlgos)]
				var url string
				if i%4 == 3 {
					url = "/v1/neighbors?user=" + itoa(u)
				} else {
					url = "/v1/propagate?algo=" + algo.String() + "&user=" + itoa(u) + "&k=5"
				}
				rec := httptest.NewRecorder()
				rec.Body.Reset()
				h.ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
				if rec.Code != 200 {
					t.Errorf("%s during ingest: %d %s", url, rec.Code, rec.Body.String())
					return
				}
			}
		}(w)
	}

	cnt := newCounts(d)
	for i := 0; i < rounds; i++ {
		appendEvents(t, path, cnt.batch(i%2 == 0))
		if n, err := tailer.Poll(); err != nil || n == 0 {
			t.Fatalf("poll %d: n=%d err=%v", i, n, err)
		}
	}
	close(stop)
	wg.Wait()

	// Cold rebuild over the grown log must agree exactly on every
	// propagation family.
	cold, _ := coldDerive(t, path)
	for _, algo := range allAlgos {
		for u := 0; u < cold.Dataset().NumUsers(); u += 7 {
			rec := get(t, h, "/v1/propagate?algo="+algo.String()+"&user="+itoa(u)+"&k=10")
			resp := decode[PropagateResponse](t, rec)
			want, err := cold.Propagate(algo, ratings.UserID(u), 10)
			if err != nil {
				t.Fatal(err)
			}
			if len(resp.Results) != len(want) {
				t.Fatalf("%s user %d: %d results, want %d", algo, u, len(resp.Results), len(want))
			}
			for i, rk := range want {
				if resp.Results[i].User != int(rk.User) || resp.Results[i].Score != rk.Score {
					t.Fatalf("%s user %d rank %d: got %+v, want {%d %v}",
						algo, u, i, resp.Results[i], rk.User, rk.Score)
				}
			}
		}
	}
}

// coldDerive replays the complete event log and derives a model from
// scratch — the reference an incrementally swapped server must match —
// returning it with the log's end offset.
func coldDerive(t *testing.T, path string) (*weboftrust.TrustModel, int64) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, end, err := store.ReadLogFrom(f, 0)
	if err != nil {
		t.Fatal(err)
	}
	b := ratings.NewBuilder()
	if err := store.Replay(events, b); err != nil {
		t.Fatal(err)
	}
	model, err := weboftrust.Derive(b.Build())
	if err != nil {
		t.Fatal(err)
	}
	return model, end
}

// TestPropagateKindAlgoMapping pins the correspondence between the
// cache's resultKind constants and the facade's PropagationAlgo values:
// the two enums are defined independently, and a mid-list insertion in
// one but not the other would silently cache one algorithm's results
// under another's key. The wire names are the cross-check.
func TestPropagateKindAlgoMapping(t *testing.T) {
	want := map[resultKind]string{
		kindAppleseed:  "appleseed",
		kindMoleTrust:  "moletrust",
		kindTidalTrust: "tidaltrust",
	}
	for kind, name := range want {
		if algo := weboftrust.PropagationAlgo(kind - kindAppleseed); algo.String() != name {
			t.Errorf("kind %d maps to algo %q, want %q", kind, algo, name)
		}
		parsed, err := weboftrust.ParsePropagationAlgo(name)
		if err != nil || kindAppleseed+resultKind(parsed) != kind {
			t.Errorf("round trip for %q: parsed %v err %v", name, parsed, err)
		}
		// The landmark kinds mirror the traversal ones in the same order
		// (the offset math in handlePropagate and fillScore relies on it).
		lmKind := kindAppleseedLandmark + (kind - kindAppleseed)
		if lmAlgo := weboftrust.PropagationAlgo(lmKind - kindAppleseedLandmark); lmAlgo.String() != name {
			t.Errorf("landmark kind %d maps to algo %q, want %q", lmKind, lmAlgo, name)
		}
	}
}
