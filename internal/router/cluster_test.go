package router_test

// The cluster harness: N sharded trustd servers plus the router,
// in-process, against a single unsharded reference server over the same
// synth.Medium event log. Every served per-source endpoint must come back
// BYTE-identical through the router — status, content type and body —
// before and after live ingest ticks. This is the end-to-end form of the
// core layer's bitwise-equivalence property: sharding is a memory
// transform, never a behavior change.

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"weboftrust"
	"weboftrust/internal/ratings"
	"weboftrust/internal/router"
	"weboftrust/internal/server"
	"weboftrust/internal/store"
	"weboftrust/internal/synth"
)

// mediumLogBytes generates the synth.Medium community once and renders it
// as event-log bytes; each subtest replays its own copy so live-ingest
// appends cannot leak across shard counts.
func mediumLogBytes(t *testing.T) ([]byte, *ratings.Dataset) {
	t.Helper()
	d, _, err := synth.Generate(synth.Medium())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "events.log")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	lw := store.NewLogWriter(f)
	if err := store.AppendDataset(lw, d); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return raw, d
}

type node struct {
	ts     *httptest.Server
	tailer *server.Tailer
}

func startNode(t *testing.T, logPath string, opts ...weboftrust.Option) node {
	t.Helper()
	srv, tailer, err := server.Open(logPath, time.Hour, server.Options{}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return node{ts: ts, tailer: tailer}
}

// fetch GETs base+path and returns status, content type and body.
func fetch(t *testing.T, base, path string) (int, string, []byte) {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("GET %s: read body: %v", path, err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), body
}

// appendGrowth appends a deterministic ingest tick to the log: a new
// user, object and review, then ratings and trust edges from sources
// spread across the whole id space, so every shard's owned set and the
// replicated artifacts all change.
func appendGrowth(t *testing.T, logPath string, d *ratings.Dataset) {
	t.Helper()
	numU := d.NumUsers()
	writer := ratings.UserID(5)
	rid := ratings.ReviewID(d.NumReviews())
	evs := []store.Event{
		{Kind: store.EvAddUser, Name: "grown-user"},
		{Kind: store.EvAddObject, Category: 0, Name: "grown-object"},
		{Kind: store.EvAddReview, User: writer, Object: ratings.ObjectID(d.NumObjects())},
	}
	for i := 0; i < 40; i++ {
		rater := ratings.UserID((i*97 + 13) % numU)
		if rater == writer {
			continue
		}
		evs = append(evs, store.Event{Kind: store.EvAddRating, User: rater, Review: rid, Level: uint8(1 + i%5)})
	}
	// The freshly added user acts too: its ownership hash lands on some
	// shard that must fold it in.
	evs = append(evs, store.Event{Kind: store.EvAddRating, User: ratings.UserID(numU), Review: rid, Level: 4})
	for i := 0; i < 20; i++ {
		from := ratings.UserID((i*31 + 7) % numU)
		to := ratings.UserID((int(from) + 3) % numU)
		if from == to {
			continue
		}
		evs = append(evs, store.Event{Kind: store.EvAddTrust, User: from, To: to})
	}
	f, err := os.OpenFile(logPath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	lw := store.NewLogWriter(f)
	for _, ev := range evs {
		if err := lw.Append(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := lw.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestClusterMatchesUnsharded spins up, for N ∈ {1, 2, 3}: N sharded
// servers over one log, the router in front of them, and an unsharded
// reference server over the same log — then asserts every routed
// response is byte-identical to the reference, before and after a live
// ingest tick folded in lockstep across all tailers.
func TestClusterMatchesUnsharded(t *testing.T) {
	raw, d := mediumLogBytes(t)
	numU := d.NumUsers()
	algos := []string{"appleseed", "moletrust", "tidaltrust"}

	for _, n := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			logPath := filepath.Join(t.TempDir(), "events.log")
			if err := os.WriteFile(logPath, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			ref := startNode(t, logPath)
			nodes := make([]node, n)
			shardMap := make([][]string, n)
			for i := range nodes {
				nodes[i] = startNode(t, logPath, weboftrust.WithShard(i, n))
				shardMap[i] = []string{nodes[i].ts.URL}
			}
			rt, err := router.New(router.Config{Shards: shardMap})
			if err != nil {
				t.Fatal(err)
			}
			rts := httptest.NewServer(rt.Handler())
			t.Cleanup(rts.Close)

			compare := func(stage string) {
				t.Helper()
				var paths []string
				for u := 0; u < numU; u += 101 {
					paths = append(paths,
						fmt.Sprintf("/v1/topk?user=%d&k=7", u),
						fmt.Sprintf("/v1/trust?from=%d&to=%d", u, (u+1)%numU),
						fmt.Sprintf("/v1/neighbors?user=%d", u),
						fmt.Sprintf("/v1/propagate?algo=%s&user=%d&k=5", algos[(u/101)%3], u),
						// The landmark approximation must route byte-identically
						// too: the selection derives from the replicated rank
						// vector and the sketches from the shared global graph,
						// so shard and reference compose the same answer.
						fmt.Sprintf("/v1/propagate?algo=%s&user=%d&k=5&approx=landmark", algos[(u/101+1)%3], u),
						fmt.Sprintf("/v1/rank?user=%d", u),
						fmt.Sprintf("/v1/anomaly?user=%d", u),
					)
				}
				paths = append(paths,
					"/v1/graph/stats",
					// The global EigenTrust ranking is replicated state: any
					// shard at the served version answers it, and its cold
					// solve must match the unsharded reference byte for
					// byte — before and after ingest.
					"/v1/rank?k=5",
					// The anomaly leaderboard is replicated the same way: the
					// suspicion vector is a pure function of (dataset, web),
					// refreshed bit-identically across swaps on every shard.
					"/v1/anomaly/top?k=10",
					// Approximation-mode error paths proxy byte-identically:
					// an unknown mode is a 400 from the owning shard.
					"/v1/propagate?algo=appleseed&user=0&k=5&approx=bogus",
					// Error paths must proxy byte-identically too: out of
					// range (404 from whichever shard it hashes to) and
					// unparsable (400 from the rotating fallback shard).
					fmt.Sprintf("/v1/topk?user=%d", numU+100000),
					"/v1/topk?user=notanumber",
					"/v1/trust?from=0",
				)
				for _, p := range paths {
					wantCode, wantCT, wantBody := fetch(t, ref.ts.URL, p)
					gotCode, gotCT, gotBody := fetch(t, rts.URL, p)
					if gotCode != wantCode || gotCT != wantCT || string(gotBody) != string(wantBody) {
						t.Fatalf("%s: %s:\nrouter: %d %s %s\nref:    %d %s %s",
							stage, p, gotCode, gotCT, gotBody, wantCode, wantCT, wantBody)
					}
				}
			}
			compare("cold")

			// A live ingest tick: append once, poll every tailer in
			// lockstep (reference included) so all states land on the same
			// version, then the equivalence must still hold.
			appendGrowth(t, logPath, d)
			if in, err := ref.tailer.Poll(); err != nil || in == 0 {
				t.Fatalf("ref poll: %d events, %v", in, err)
			}
			for i, nd := range nodes {
				if in, err := nd.tailer.Poll(); err != nil || in == 0 {
					t.Fatalf("shard %d poll: %d events, %v", i, in, err)
				}
			}
			compare("after-ingest")
		})
	}
}

// TestRouterReadyzAggregates pins that the router's readiness is the
// conjunction of its shards': all ready → 200, any missing → 503.
func TestRouterReadyzAggregates(t *testing.T) {
	raw, _ := mediumLogBytes(t)
	logPath := filepath.Join(t.TempDir(), "events.log")
	if err := os.WriteFile(logPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	up := startNode(t, logPath, weboftrust.WithShard(0, 2))
	down := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	t.Cleanup(down.Close)

	rt, err := router.New(router.Config{Shards: [][]string{{up.ts.URL}, {down.URL}}})
	if err != nil {
		t.Fatal(err)
	}
	rts := httptest.NewServer(rt.Handler())
	t.Cleanup(rts.Close)

	if code, _, body := fetch(t, rts.URL, "/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("one shard down: /readyz = %d %s, want 503", code, body)
	}
	if code, _, body := fetch(t, rts.URL, "/healthz"); code != http.StatusOK {
		t.Fatalf("router liveness must not depend on shards: /healthz = %d %s", code, body)
	}

	healthy, err := router.New(router.Config{Shards: [][]string{{up.ts.URL}}})
	if err != nil {
		t.Fatal(err)
	}
	hts := httptest.NewServer(healthy.Handler())
	t.Cleanup(hts.Close)
	if code, _, body := fetch(t, hts.URL, "/readyz"); code != http.StatusOK {
		t.Fatalf("all shards ready: /readyz = %d %s, want 200", code, body)
	}
}
