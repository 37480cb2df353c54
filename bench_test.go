// Benchmarks regenerating every table and figure of the paper's
// evaluation (Tables 2-4, Fig. 3, the E-X1 propagation extension and the
// A-1..A-4 ablations), plus the pipeline components they are built from.
// One benchmark per experiment, as indexed in DESIGN.md §4.
//
// The experiment benchmarks run on the Medium preset (2,000 users, the
// paper's 12 genres) so a full -bench=. sweep stays laptop-fast; the
// cmd/experiments binary runs the same code at paper scale.
package weboftrust_test

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"weboftrust"
	"weboftrust/internal/anomaly"
	"weboftrust/internal/checkpoint"
	"weboftrust/internal/core"
	"weboftrust/internal/experiments"
	"weboftrust/internal/mat"
	"weboftrust/internal/ratings"
	"weboftrust/internal/router"
	"weboftrust/internal/server"
	"weboftrust/internal/shard"
	"weboftrust/internal/store"
	"weboftrust/internal/synth"
)

var (
	benchOnce sync.Once
	benchEnv  *experiments.Env
	benchErr  error

	benchLargeOnce sync.Once
	benchLargeEnv  *experiments.Env
	benchLargeErr  error
)

// env lazily builds the shared Medium-scale environment (dataset +
// pipeline artifacts) outside any benchmark timer.
func env(b *testing.B) *experiments.Env {
	b.Helper()
	benchOnce.Do(func() {
		cfg := synth.Medium()
		cfg.Seed = 1
		benchEnv, benchErr = experiments.Suite{Synth: cfg, Pipeline: core.DefaultConfig()}.Setup()
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchEnv
}

// envLarge is env at the Large preset (6,000 users, 36 categories), for
// the serving benchmarks that track the read path's scaling behaviour.
func envLarge(b *testing.B) *experiments.Env {
	b.Helper()
	benchLargeOnce.Do(func() {
		cfg := synth.Large()
		cfg.Seed = 1
		benchLargeEnv, benchLargeErr = experiments.Suite{Synth: cfg, Pipeline: core.DefaultConfig()}.Setup()
	})
	if benchLargeErr != nil {
		b.Fatal(benchLargeErr)
	}
	return benchLargeEnv
}

// BenchmarkTable2RaterReputation regenerates Table 2: the per-category
// Riggs fixed point and the Advisor quartile analysis (E-T2).
func BenchmarkTable2RaterReputation(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTable2WithModel(e, e.Suite.Pipeline.Riggs)
		if err != nil {
			b.Fatal(err)
		}
		if res.Report.Q1Fraction() <= 0 {
			b.Fatal("degenerate result")
		}
	}
}

// BenchmarkTable3WriterReputation regenerates Table 3: writer reputation
// and the Top Reviewer quartile analysis (E-T3).
func BenchmarkTable3WriterReputation(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTable3(e)
		if err != nil {
			b.Fatal(err)
		}
		if res.Report.Q1Fraction() <= 0 {
			b.Fatal("degenerate result")
		}
	}
}

// BenchmarkFig3Density regenerates Fig. 3: the density comparison of T̂,
// R and T (E-F3).
func BenchmarkFig3Density(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig3(e)
		if err != nil {
			b.Fatal(err)
		}
		if res.Report.DerivedNNZ == 0 {
			b.Fatal("degenerate result")
		}
	}
}

// BenchmarkTable4TrustValidation regenerates Table 4: generosity
// binarisation of T̂ and B and the three validation metrics (E-T4).
func BenchmarkTable4TrustValidation(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTable4(e)
		if err != nil {
			b.Fatal(err)
		}
		if res.Derived.Recall <= res.Baseline.Recall {
			b.Fatal("paper shape lost")
		}
	}
}

// BenchmarkPropagationComparison regenerates the E-X1 future-work
// comparison: TidalTrust coverage, EigenTrust agreement and Appleseed
// overlap across the explicit and derived webs.
func BenchmarkPropagationComparison(b *testing.B) {
	e := env(b)
	params := experiments.DefaultPropagationParams()
	params.NumSources = 20
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunPropagation(e, params)
		if err != nil {
			b.Fatal(err)
		}
		if res.CoverageDerived <= res.CoverageExplicit {
			b.Fatal("paper shape lost")
		}
	}
}

// BenchmarkRecommendation regenerates E-X2: the held-out helpfulness
// prediction comparison across the three predictors (including a full
// pipeline re-run on the training split).
func BenchmarkRecommendation(b *testing.B) {
	e := env(b)
	params := experiments.DefaultRecommendationParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunRecommendation(e, params)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Reports) != 3 {
			b.Fatal("degenerate result")
		}
	}
}

// BenchmarkRobustnessSweep regenerates A-5 with three seeds at small
// scale (each seed is a full generate + pipeline + Table 4 run).
func BenchmarkRobustnessSweep(b *testing.B) {
	suite := experiments.Suite{Synth: synth.Small(), Pipeline: core.DefaultConfig()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunRobustness(suite, []uint64{2, 3, 5})
		if err != nil {
			b.Fatal(err)
		}
		if !res.AlwaysWins() {
			b.Fatal("paper shape lost")
		}
	}
}

// BenchmarkStructure regenerates F-NET: the structural comparison of the
// explicit and derived webs.
func BenchmarkStructure(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunStructure(e, 100, 31)
		if err != nil {
			b.Fatal(err)
		}
		if res.Derived.Edges <= res.Explicit.Edges {
			b.Fatal("paper shape lost")
		}
	}
}

// BenchmarkAblationDiscount regenerates A-1 (experience discount on/off).
func BenchmarkAblationDiscount(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunAblationDiscount(e); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationIteration regenerates A-2 (fixed point vs single pass).
func BenchmarkAblationIteration(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunAblationIteration(e); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationAffinity regenerates A-3 (affinity signal blend).
func BenchmarkAblationAffinity(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunAblationAffinity(e); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationBinarize regenerates A-4 (per-user top-k vs global
// threshold).
func BenchmarkAblationBinarize(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunAblationBinarize(e, []float64{0.3, 0.5}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Component benchmarks -------------------------------------------------

// BenchmarkSynthGenerate measures the synthetic community generator.
func BenchmarkSynthGenerate(b *testing.B) {
	cfg := synth.Medium()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1)
		if _, _, err := synth.Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDerive measures the full three-step pipeline (Steps 1-3).
func BenchmarkDerive(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := weboftrust.Derive(e.Dataset); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDerivedTrustRow measures computing one user's full T̂ row
// (eq. 5 over all users), the pipeline's innermost hot path.
func BenchmarkDerivedTrustRow(b *testing.B) {
	e := env(b)
	dst := make([]float64, e.Dataset.NumUsers())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Artifacts.Trust.Row(ratings.UserID(i%e.Dataset.NumUsers()), dst)
	}
}

// BenchmarkDerivedTrustRowSparse measures the category-pruned row
// evaluation (compare with BenchmarkDerivedTrustRow).
func BenchmarkDerivedTrustRowSparse(b *testing.B) {
	e := env(b)
	dst := make([]float64, e.Dataset.NumUsers())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Artifacts.Trust.RowSparse(ratings.UserID(i%e.Dataset.NumUsers()), dst)
	}
}

// BenchmarkDerivedTrustRowSparseLarge is BenchmarkDerivedTrustRowSparse
// at the Large preset, where the contiguous expert-score columns matter
// most: 3× the users and categories of Medium.
func BenchmarkDerivedTrustRowSparseLarge(b *testing.B) {
	e := envLarge(b)
	dst := make([]float64, e.Dataset.NumUsers())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Artifacts.Trust.RowSparse(ratings.UserID(i%e.Dataset.NumUsers()), dst)
	}
}

// BenchmarkTopKHeap measures the bounded-heap top-k selection the query
// path ranks with, on a real Medium trust row at the serving default
// k=10.
func BenchmarkTopKHeap(b *testing.B) {
	e := env(b)
	row := e.Artifacts.Trust.Row(17, nil)
	scratch := make([]int, 0, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scratch = mat.TopKHeapInto(row, 10, scratch)
	}
}

// BenchmarkGenerosity measures the per-user k_i computation.
func BenchmarkGenerosity(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Generosity(e.Dataset)
	}
}

// BenchmarkBinarizeDerived measures the parallel top-k_i binarisation of
// the derived matrix.
func BenchmarkBinarizeDerived(b *testing.B) {
	e := env(b)
	k := core.Generosity(e.Dataset)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.BinarizeDerived(e.Artifacts.Trust, k); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGraphBuild measures constructing the full web-of-trust
// artifact (generosity, per-user edge selection, CSR graph packing) from
// the derived matrix — the Step 4 cost Run pays once and Update pays only
// a dirty-user fraction of.
func BenchmarkGraphBuild(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.BuildWeb(e.Dataset, e.Artifacts.Trust, core.DefaultWebPolicy(), 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTopTrusted measures the end-user query path: derive one user's
// row and select their top-10 trusted users.
func BenchmarkTopTrusted(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Artifacts.Trust.TopTrusted(ratings.UserID(i%e.Dataset.NumUsers()), 10)
	}
}

// --- Serving benchmarks ---------------------------------------------------

// BenchmarkServerTopK measures trustd's full /v1/topk handler path —
// routing, parameter validation, result cache, pooled RowSparse evaluation,
// heap ranking and JSON encoding — cycling through every user so the
// result cache runs at its steady-state miss rate.
func BenchmarkServerTopK(b *testing.B) {
	e := env(b)
	model, err := weboftrust.Derive(e.Dataset)
	if err != nil {
		b.Fatal(err)
	}
	h := server.New(model, 0, server.Options{}).Handler()
	numU := e.Dataset.NumUsers()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodGet, fmt.Sprintf("/v1/topk?user=%d&k=10", i%numU), nil)
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("topk: %d %s", rec.Code, rec.Body.String())
		}
	}
}

// BenchmarkServerTopKCached is the hot-user variant: every request after
// the first hits the ranked-result cache, isolating the lookup + encoding
// cost.
func BenchmarkServerTopKCached(b *testing.B) {
	e := env(b)
	model, err := weboftrust.Derive(e.Dataset)
	if err != nil {
		b.Fatal(err)
	}
	h := server.New(model, 0, server.Options{}).Handler()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodGet, "/v1/topk?user=17&k=10", nil)
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("topk: %d %s", rec.Code, rec.Body.String())
		}
	}
}

// BenchmarkServerTopKLarge is BenchmarkServerTopK at the Large preset
// (6,000 users, 36 categories): the per-query row evaluation and ranking
// cost the serving layer pays as the community grows.
func BenchmarkServerTopKLarge(b *testing.B) {
	e := envLarge(b)
	model, err := weboftrust.Derive(e.Dataset)
	if err != nil {
		b.Fatal(err)
	}
	h := server.New(model, 0, server.Options{}).Handler()
	numU := e.Dataset.NumUsers()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodGet, fmt.Sprintf("/v1/topk?user=%d&k=10", i%numU), nil)
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("topk: %d %s", rec.Code, rec.Body.String())
		}
	}
}

// BenchmarkServerPropagate measures trustd's /v1/propagate handler on
// the hot path the acceptance criterion names: a repeated personalised
// query served from the ranked-result cache (lookup + JSON encoding),
// which must stay within 2× of the equally-cached /v1/topk.
func BenchmarkServerPropagate(b *testing.B) {
	e := env(b)
	model, err := weboftrust.Derive(e.Dataset)
	if err != nil {
		b.Fatal(err)
	}
	h := server.New(model, 0, server.Options{}).Handler()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodGet, "/v1/propagate?algo=appleseed&user=17&k=10", nil)
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("propagate: %d %s", rec.Code, rec.Body.String())
		}
	}
}

// BenchmarkRouterTopK measures the cluster router's proxy overhead on
// the hot path: a cached /v1/topk hit served by a 3-shard cluster over
// real HTTP, directly against the owning shard (Direct) and through the
// consistent-hash router in front of it (ViaRouter). BENCH_pr16.json
// records ViaRouter at 2.16× Direct (medians of 5 runs: 174.3 µs vs
// 80.7 µs; BENCH_pr10.json read 2.02×).
func BenchmarkRouterTopK(b *testing.B) {
	e := env(b)
	const numShards = 3
	shardMap := make([][]string, numShards)
	for i := 0; i < numShards; i++ {
		model, err := weboftrust.Derive(e.Dataset, weboftrust.WithShard(i, numShards))
		if err != nil {
			b.Fatal(err)
		}
		ts := httptest.NewServer(server.New(model, 0, server.Options{}).Handler())
		defer ts.Close()
		shardMap[i] = []string{ts.URL}
	}
	rt, err := router.New(router.Config{Shards: shardMap})
	if err != nil {
		b.Fatal(err)
	}
	rts := httptest.NewServer(rt.Handler())
	defer rts.Close()

	const user = 17
	path := fmt.Sprintf("/v1/topk?user=%d&k=10", user)
	client := &http.Client{}
	run := func(b *testing.B, base string) {
		b.Helper()
		// Warm the shard's result cache and the connection pool so the
		// measurement is the steady-state hit path.
		for i := 0; i < 3; i++ {
			resp, err := client.Get(base + path)
			if err != nil {
				b.Fatal(err)
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b.Fatalf("warmup: %d", resp.StatusCode)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			resp, err := client.Get(base + path)
			if err != nil {
				b.Fatal(err)
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b.Fatalf("topk: %d", resp.StatusCode)
			}
		}
	}
	b.Run("Direct", func(b *testing.B) { run(b, shardMap[shard.Owner(user, numShards)][0]) })
	b.Run("ViaRouter", func(b *testing.B) { run(b, rts.URL) })
}

// BenchmarkServerPropagateMiss is the cache-miss cost behind the cached
// path: every request computes a fresh Appleseed spread over the served
// graph (cycling sources so no result repeats within a cache lifetime).
func BenchmarkServerPropagateMiss(b *testing.B) {
	e := env(b)
	model, err := weboftrust.Derive(e.Dataset)
	if err != nil {
		b.Fatal(err)
	}
	// CacheResults -1 disables result caching, so every request pays the
	// full spreading-activation traversal.
	h := server.New(model, 0, server.Options{CacheResults: -1}).Handler()
	numU := e.Dataset.NumUsers()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodGet, fmt.Sprintf("/v1/propagate?algo=appleseed&user=%d&k=10", i%numU), nil)
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("propagate: %d %s", rec.Code, rec.Body.String())
		}
	}
}

// BenchmarkServerPropagateLarge is BenchmarkServerPropagate at the Large
// preset: the cached-path latency must stay flat as the community grows,
// because a cache hit never touches the graph.
func BenchmarkServerPropagateLarge(b *testing.B) {
	e := envLarge(b)
	model, err := weboftrust.Derive(e.Dataset)
	if err != nil {
		b.Fatal(err)
	}
	h := server.New(model, 0, server.Options{}).Handler()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodGet, "/v1/propagate?algo=appleseed&user=17&k=10", nil)
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("propagate: %d %s", rec.Code, rec.Body.String())
		}
	}
}

// BenchmarkIngestSwap measures one full tailer cycle on a live log:
// append a small event batch, tail-read past the checkpoint, replay,
// rebuild artifacts with the incremental update, and swap the new state
// in. No query reaches the server, so no swap has a forced rank,
// anomaly or landmark artifact to warm: this is the freshness cost a
// community pays per ingest tick before any of those is asked for.
// make bench-guard gates its time against BenchmarkPipelineRun.
func BenchmarkIngestSwap(b *testing.B) { benchIngestSwap(b) }

// BenchmarkIngestSwapWarm is BenchmarkIngestSwap on a daemon whose boot
// state answered one /v1/rank, one /v1/anomaly/top and one appleseed
// approx=landmark query, as ingest-mixed's traffic does. Every tick's
// swap then publishes and warms the rank vector, the landmark selection,
// the appleseed sketch and the anomaly scores on its background
// goroutine (the warm rule, DESIGN.md §11). Each iteration waits for
// that warm, so ns/op is the tick's whole work, which make bench-guard
// gates against BenchmarkPipelineRun; publish-ms/op is the part
// Tailer.Poll spends before it returns, which ingest-mixed reports as
// freshness.
func BenchmarkIngestSwapWarm(b *testing.B) {
	benchIngestSwap(b, "/v1/rank?k=10", "/v1/anomaly/top?k=10",
		"/v1/propagate?approx=landmark&algo=appleseed&user=17&k=10")
}

// benchIngestSwap times Tailer.Poll and the new state's warm over one
// appended tick per iteration, after GETting each of the given paths once
// on the boot state to force the artifacts they read. It reports the
// time to publish alone as publish-ms/op.
func benchIngestSwap(b *testing.B, paths ...string) {
	e := env(b)
	path := filepath.Join(b.TempDir(), "events.log")
	f, err := os.Create(path)
	if err != nil {
		b.Fatal(err)
	}
	lw := store.NewLogWriter(f)
	if err := store.AppendDataset(lw, e.Dataset); err != nil {
		b.Fatal(err)
	}
	if err := f.Close(); err != nil {
		b.Fatal(err)
	}
	srv, tailer, err := server.Open(path, 0, server.Options{})
	if err != nil {
		b.Fatal(err)
	}
	h := srv.Handler()
	for _, p := range paths {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, p, nil))
		if rec.Code != http.StatusOK {
			b.Fatalf("%s: %d %s", p, rec.Code, rec.Body.String())
		}
	}
	users := e.Dataset.NumUsers()
	objects := e.Dataset.NumObjects()
	reviews := e.Dataset.NumReviews()
	numCats := e.Dataset.NumCategories()
	appendBatch := func(i int) {
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			b.Fatal(err)
		}
		lw := store.NewLogWriter(f)
		// One new user writing one rated review, cycling categories.
		for _, ev := range []store.Event{
			{Kind: store.EvAddUser, Name: ""},
			{Kind: store.EvAddObject, Category: ratings.CategoryID(i % numCats), Name: ""},
			{Kind: store.EvAddReview, User: ratings.UserID(users), Object: ratings.ObjectID(objects)},
			{Kind: store.EvAddRating, User: ratings.UserID(i % users), Review: ratings.ReviewID(reviews), Level: uint8(1 + i%5)},
		} {
			if err := lw.Append(ev); err != nil {
				b.Fatal(err)
			}
		}
		if err := lw.Flush(); err != nil {
			b.Fatal(err)
		}
		if err := f.Close(); err != nil {
			b.Fatal(err)
		}
		users++
		objects++
		reviews++
	}
	var publish time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		appendBatch(i)
		start := time.Now()
		n, err := tailer.Poll()
		publish += time.Since(start)
		if err != nil {
			b.Fatal(err)
		}
		if n != 4 {
			b.Fatalf("ingested %d events, want 4", n)
		}
		srv.WaitWarm()
	}
	b.ReportMetric(float64(publish.Nanoseconds())/1e6/float64(b.N), "publish-ms/op")
}

// --- Boot benchmarks ------------------------------------------------------

// bootEnv materialises what a daemon restart sees on disk: the full event
// log plus a checkpoint directory holding one checkpoint at the log's
// end. Built once per preset and shared by the cold/warm pairs (boots
// only read these artifacts).
type bootEnv struct {
	logPath string
	ckptDir string
}

var bootEnvs sync.Map // users count -> *bootEnv

// TestMain exists to remove the boot-benchmark temp dirs: they are shared
// across benchmarks in one binary run, so per-benchmark cleanup (b.TempDir,
// b.Cleanup) would tear them down under a later benchmark.
func TestMain(m *testing.M) {
	code := m.Run()
	bootEnvs.Range(func(_, v any) bool {
		os.RemoveAll(filepath.Dir(v.(*bootEnv).logPath))
		return true
	})
	os.Exit(code)
}

func setupBootEnv(b *testing.B, e *experiments.Env) *bootEnv {
	b.Helper()
	if v, ok := bootEnvs.Load(e.Dataset.NumUsers()); ok {
		return v.(*bootEnv)
	}
	dir, err := os.MkdirTemp("", "wotboot")
	if err != nil {
		b.Fatal(err)
	}
	logPath := filepath.Join(dir, "events.log")
	f, err := os.Create(logPath)
	if err != nil {
		b.Fatal(err)
	}
	lw := store.NewLogWriter(f)
	if err := store.AppendDataset(lw, e.Dataset); err != nil {
		b.Fatal(err)
	}
	if err := f.Close(); err != nil {
		b.Fatal(err)
	}
	ckptDir := filepath.Join(dir, "ckpts")
	st, err := os.Stat(logPath)
	if err != nil {
		b.Fatal(err)
	}
	model, err := weboftrust.Derive(e.Dataset)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := checkpoint.WriteDir(ckptDir, model, st.Size(), st.Size()); err != nil {
		b.Fatal(err)
	}
	env := &bootEnv{logPath: logPath, ckptDir: ckptDir}
	bootEnvs.Store(e.Dataset.NumUsers(), env)
	return env
}

// benchColdStart measures time-to-serving from nothing but the event
// log: full replay through the validating builder plus a from-scratch
// Derive — what every trustd boot paid before checkpointing.
func benchColdStart(b *testing.B, e *experiments.Env) {
	env := setupBootEnv(b, e)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srv, _, err := server.Open(env.logPath, 0, server.Options{})
		if err != nil {
			b.Fatal(err)
		}
		model, _, _ := srv.Current()
		if model.Dataset().NumUsers() != e.Dataset.NumUsers() {
			b.Fatal("cold boot lost users")
		}
	}
}

// benchWarmRestart measures time-to-serving from a checkpoint: restore
// the persisted artifacts, rebuild the derived-trust index, and tail the
// (already-covered) log — the post-checkpointing boot path. Compare
// directly with benchColdStart at the same preset.
func benchWarmRestart(b *testing.B, e *experiments.Env) {
	env := setupBootEnv(b, e)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srv, _, info, err := server.OpenCheckpointedInto(nil, env.logPath, env.ckptDir, 0, server.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if !info.Warm {
			b.Fatalf("boot went cold: %+v", info)
		}
		model, _, _ := srv.Current()
		if model.Dataset().NumUsers() != e.Dataset.NumUsers() {
			b.Fatal("warm boot lost users")
		}
	}
}

// BenchmarkColdStart is the log-replay + full-Derive boot at the Medium
// preset (2,000 users, 12 categories).
func BenchmarkColdStart(b *testing.B) { benchColdStart(b, env(b)) }

// BenchmarkWarmRestart is the checkpoint-restore boot at the Medium
// preset; the ratio to BenchmarkColdStart is the warm-restart win.
func BenchmarkWarmRestart(b *testing.B) { benchWarmRestart(b, env(b)) }

// BenchmarkColdStartLarge is BenchmarkColdStart at the Large preset
// (6,000 users, 36 categories), where replay + derive dominates boot.
func BenchmarkColdStartLarge(b *testing.B) { benchColdStart(b, envLarge(b)) }

// BenchmarkWarmRestartLarge is BenchmarkWarmRestart at the Large preset —
// the acceptance bar: ≥ 5× faster time-to-serving than the cold start.
func BenchmarkWarmRestartLarge(b *testing.B) { benchWarmRestart(b, envLarge(b)) }

// --- Parallel pipeline benchmarks -----------------------------------------

// rebuildBuilder reloads a dataset into a fresh Builder so a benchmark can
// append growth events to it.
func rebuildBuilder(b *testing.B, d *ratings.Dataset) *ratings.Builder {
	b.Helper()
	bld := ratings.NewBuilder()
	for c := 0; c < d.NumCategories(); c++ {
		bld.AddCategory(d.CategoryName(ratings.CategoryID(c)))
	}
	for u := 0; u < d.NumUsers(); u++ {
		bld.AddUser(d.UserName(ratings.UserID(u)))
	}
	for o := 0; o < d.NumObjects(); o++ {
		obj := d.Object(ratings.ObjectID(o))
		if _, err := bld.AddObject(obj.Category, obj.Name); err != nil {
			b.Fatal(err)
		}
	}
	for r := 0; r < d.NumReviews(); r++ {
		rev := d.Review(ratings.ReviewID(r))
		if _, err := bld.AddReview(rev.Writer, rev.Object); err != nil {
			b.Fatal(err)
		}
	}
	for _, rt := range d.Ratings() {
		if err := bld.AddRating(rt.Rater, rt.Review, rt.Value); err != nil {
			b.Fatal(err)
		}
	}
	for _, e := range d.TrustEdges() {
		if err := bld.AddTrust(e.From, e.To); err != nil {
			b.Fatal(err)
		}
	}
	return bld
}

// growTouching extends d with one new user writing one rated review in
// each of the first touchedCats categories — the smallest growth that
// touches exactly that many categories.
func growTouching(b *testing.B, d *ratings.Dataset, touchedCats int) *ratings.Dataset {
	b.Helper()
	bld := rebuildBuilder(b, d)
	writer := bld.AddUser("bench-writer")
	rater := bld.AddUser("bench-rater")
	for c := 0; c < touchedCats; c++ {
		oid, err := bld.AddObject(ratings.CategoryID(c), "")
		if err != nil {
			b.Fatal(err)
		}
		rid, err := bld.AddReview(writer, oid)
		if err != nil {
			b.Fatal(err)
		}
		if err := bld.AddRating(rater, rid, ratings.QuantizeRating(0.7)); err != nil {
			b.Fatal(err)
		}
	}
	return bld.Build()
}

// benchPipelineWorkers runs the full Steps 1-3 pipeline at 1, 2, 4 and 8
// workers over the given dataset. Artifacts are bitwise-identical across
// worker counts (asserted by TestRunParallelEqualsSerial); only wall-clock
// time should differ, and only when the hardware has the cores to use.
func benchPipelineWorkers(b *testing.B, d *ratings.Dataset) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := core.DefaultConfig()
			cfg.Workers = workers
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := cfg.Run(d); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPipelineRun measures the parallel derivation pipeline at the
// Medium preset (2,000 users, 12 categories) across worker counts.
func BenchmarkPipelineRun(b *testing.B) {
	benchPipelineWorkers(b, env(b).Dataset)
}

// BenchmarkPipelineRunLarge is BenchmarkPipelineRun at the Large preset
// (6,000 users, 36 categories): a wider category axis for the fan-out.
func BenchmarkPipelineRunLarge(b *testing.B) {
	d, _, err := synth.Generate(synth.Large())
	if err != nil {
		b.Fatal(err)
	}
	benchPipelineWorkers(b, d)
}

// BenchmarkUpdateTouchedFraction measures core.Update against growth
// batches touching 1, a quarter, half and all of the Medium preset's 12
// categories, and 1 and 4 of the Large preset's 36 — the steady-state
// tailer ingest cost. Compare touched=1 with touched=12 (and with
// BenchmarkPipelineRun): the cost should track the touched fraction, not
// the total category count.
func BenchmarkUpdateTouchedFraction(b *testing.B) {
	medium := env(b).Dataset
	numC := medium.NumCategories()
	benchUpdateTouched(b, "", medium, []int{1, numC / 4, numC / 2, numC})
	benchUpdateTouched(b, "large/", envLarge(b).Dataset, []int{1, 4})
}

// benchUpdateTouched runs one core.Update sub-benchmark per touched
// category count, each folding the same growth batch into oldD's model.
func benchUpdateTouched(b *testing.B, prefix string, oldD *ratings.Dataset, touchedCats []int) {
	cfg := core.DefaultConfig()
	oldArt, err := cfg.Run(oldD)
	if err != nil {
		b.Fatal(err)
	}
	for _, touched := range touchedCats {
		newD := growTouching(b, oldD, touched)
		b.Run(fmt.Sprintf("%stouched=%d of %d", prefix, touched, oldD.NumCategories()), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := cfg.Update(oldArt, oldD, newD); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkUpdateCategoryScaling holds the touched set fixed at one
// category and scales the total category count (12 → 24 → 48 splits of
// the paper genres at 2,000 users), demonstrating that Update's cost no
// longer grows with the size of the untouched world the way a full
// rebuild does (BenchmarkPipelineRun is the comparison).
func BenchmarkUpdateCategoryScaling(b *testing.B) {
	for _, splits := range []int{1, 2, 4} {
		cfg := synth.Medium()
		if splits > 1 {
			var cats []synth.CategorySpec
			for _, g := range synth.PaperGenres() {
				for s := 0; s < splits; s++ {
					cats = append(cats, synth.CategorySpec{
						Name:   fmt.Sprintf("%s/%d", g.Name, s),
						Weight: g.Weight / float64(splits),
					})
				}
			}
			cfg.Categories = cats
		}
		oldD, _, err := synth.Generate(cfg)
		if err != nil {
			b.Fatal(err)
		}
		pc := core.DefaultConfig()
		oldArt, err := pc.Run(oldD)
		if err != nil {
			b.Fatal(err)
		}
		newD := growTouching(b, oldD, 1)
		b.Run(fmt.Sprintf("cats=%d", oldD.NumCategories()), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := pc.Update(oldArt, oldD, newD); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Incremental serving benchmarks (PR 7) --------------------------------

// BenchmarkPropagateExact measures a propagation cache miss on the
// Medium community: one exact traversal per op, per algorithm, cycling
// over sources 0..99 (the source set BENCH_pr10's PropagatePruned/*/exact
// rows used, so the figures compare).
func BenchmarkPropagateExact(b *testing.B) {
	e := env(b)
	model, err := weboftrust.Derive(e.Dataset)
	if err != nil {
		b.Fatal(err)
	}
	dst := make([]float64, e.Dataset.NumUsers())
	for _, algo := range []weboftrust.PropagationAlgo{
		weboftrust.PropagateAppleseed, weboftrust.PropagateMoleTrust, weboftrust.PropagateTidalTrust,
	} {
		b.Run(algo.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := model.PropagateInto(algo, weboftrust.UserID(i%100), dst); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAnomalySwap measures the incremental suspicion-score update
// (anomaly.Update over a one-category ingest tick, O(dirty closure))
// against the cold full pass (anomaly.Compute, O(users)). trustd scores
// cold: a swap whose predecessor had scores publishes first, and its
// background warm then runs Compute, because the tick dirties most users
// and warm costs about what cold does: 25–31 ms each at Medium in
// BENCH_pr22.json, where only users with a reciprocated out-edge pay for
// clustering.
func BenchmarkAnomalySwap(b *testing.B) {
	e := env(b)
	model, err := weboftrust.Derive(e.Dataset)
	if err != nil {
		b.Fatal(err)
	}
	grown := growTouching(b, e.Dataset, 1)
	upd, err := model.Update(grown)
	if err != nil {
		b.Fatal(err)
	}
	oldG := model.WebOfTrust().Graph()
	newG := upd.WebOfTrust().Graph()
	prev := anomaly.Compute(e.Dataset, oldG)
	dirty := upd.DirtyUsers()
	b.Run("warm", func(b *testing.B) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			anomaly.Update(prev, e.Dataset, grown, oldG, newG, dirty)
		}
	})
	b.Run("cold", func(b *testing.B) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			anomaly.Compute(grown, newG)
		}
	})
}

// BenchmarkServerAnomaly measures trustd's full /v1/anomaly handler path
// — routing, parameter validation, the per-user rank scan over the
// scored vector and JSON encoding — cycling through every user against
// an already-computed score vector (the steady state once a state has
// scores, whether its first query or its swap computed them).
func BenchmarkServerAnomaly(b *testing.B) {
	e := env(b)
	model, err := weboftrust.Derive(e.Dataset)
	if err != nil {
		b.Fatal(err)
	}
	h := server.New(model, 0, server.Options{}).Handler()
	numU := e.Dataset.NumUsers()
	// Force the lazy scoring pass outside the timer.
	warm := httptest.NewRecorder()
	h.ServeHTTP(warm, httptest.NewRequest(http.MethodGet, "/v1/anomaly?user=0", nil))
	if warm.Code != http.StatusOK {
		b.Fatalf("warmup: %d %s", warm.Code, warm.Body.String())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodGet, fmt.Sprintf("/v1/anomaly?user=%d", i%numU), nil)
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("anomaly: %d %s", rec.Code, rec.Body.String())
		}
	}
}

// BenchmarkLandmarkApprox measures the `?approx=landmark` serving mode
// against the exact traversal at the Large preset, both with caching
// disabled so every request pays its compute: Landmark composes the
// source's frontier with 16 landmark vectors (O(L·U)), Exact walks the
// graph. The PR 10 acceptance bar is Landmark at most 1/3 of Exact.
func BenchmarkLandmarkApprox(b *testing.B) {
	e := envLarge(b)
	model, err := weboftrust.Derive(e.Dataset)
	if err != nil {
		b.Fatal(err)
	}
	h := server.New(model, 0, server.Options{CacheResults: -1}).Handler()
	// Prime the landmark selection and the appleseed sketch (a lazy
	// one-time build) outside the timer.
	warm := httptest.NewRecorder()
	h.ServeHTTP(warm, httptest.NewRequest(http.MethodGet, "/v1/propagate?algo=appleseed&user=17&k=10&approx=landmark", nil))
	if warm.Code != http.StatusOK {
		b.Fatalf("warm: %d %s", warm.Code, warm.Body.String())
	}
	bench := func(b *testing.B, path string) {
		b.Helper()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
			if rec.Code != http.StatusOK {
				b.Fatalf("propagate: %d %s", rec.Code, rec.Body.String())
			}
		}
	}
	b.Run("Exact", func(b *testing.B) {
		bench(b, "/v1/propagate?algo=appleseed&user=17&k=10")
	})
	b.Run("Landmark", func(b *testing.B) {
		bench(b, "/v1/propagate?algo=appleseed&user=17&k=10&approx=landmark")
	})
}
