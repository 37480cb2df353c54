package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"weboftrust"
	"weboftrust/internal/ratings"
	"weboftrust/internal/store"
	"weboftrust/internal/synth"
)

// writeLogFile generates a small community and writes it to an event log
// in a temp dir, returning the path and the dataset.
func writeLogFile(t *testing.T) (string, *ratings.Dataset) {
	t.Helper()
	cfg := synth.Small()
	cfg.NumUsers = 60
	cfg.TotalObjects = 30
	d, _, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "events.log")
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
	return path, d
}

func openServer(t *testing.T) (*Server, *Tailer, *ratings.Dataset) {
	t.Helper()
	path, d := writeLogFile(t)
	srv, tailer, err := Open(path, time.Hour, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return srv, tailer, d
}

func get(t *testing.T, h http.Handler, url string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
	return rec
}

func decode[T any](t *testing.T, rec *httptest.ResponseRecorder) T {
	t.Helper()
	var v T
	if err := json.NewDecoder(rec.Body).Decode(&v); err != nil {
		t.Fatalf("decode %q: %v", rec.Body.String(), err)
	}
	return v
}

func TestTopKMatchesModel(t *testing.T) {
	srv, _, d := openServer(t)
	h := srv.Handler()
	model, _, _ := srv.Current()
	for u := 0; u < d.NumUsers(); u += 7 {
		rec := get(t, h, "/v1/topk?user="+itoa(u)+"&k=5")
		if rec.Code != http.StatusOK {
			t.Fatalf("topk(%d): %d %s", u, rec.Code, rec.Body.String())
		}
		resp := decode[TopKResponse](t, rec)
		want := model.TopTrusted(ratings.UserID(u), 5)
		if len(resp.Results) != len(want) {
			t.Fatalf("topk(%d): %d results, want %d", u, len(resp.Results), len(want))
		}
		for i, rk := range want {
			got := resp.Results[i]
			if got.User != int(rk.User) || got.Score != rk.Score || got.Name != d.UserName(rk.User) {
				t.Errorf("topk(%d)[%d] = %+v, want {%d %s %v}", u, i, got, rk.User, d.UserName(rk.User), rk.Score)
			}
		}
	}
}

func itoa(n int) string {
	b, _ := json.Marshal(n)
	return string(b)
}

func TestTrustAndExpertiseEndpoints(t *testing.T) {
	srv, _, d := openServer(t)
	h := srv.Handler()
	model, _, _ := srv.Current()

	rec := get(t, h, "/v1/trust?from=3&to=9")
	if rec.Code != http.StatusOK {
		t.Fatalf("trust: %d %s", rec.Code, rec.Body.String())
	}
	tr := decode[TrustResponse](t, rec)
	if want := model.Score(3, 9); tr.Score != want {
		t.Errorf("trust(3,9) = %v, want %v", tr.Score, want)
	}

	rec = get(t, h, "/v1/expertise?user=4")
	if rec.Code != http.StatusOK {
		t.Fatalf("expertise: %d %s", rec.Code, rec.Body.String())
	}
	ex := decode[ExpertiseResponse](t, rec)
	if len(ex.Categories) != d.NumCategories() {
		t.Fatalf("expertise categories = %d, want %d", len(ex.Categories), d.NumCategories())
	}
	e, a := model.Expertise(4), model.Affinity(4)
	for c, prof := range ex.Categories {
		if prof.Expertise != e[c] || prof.Affinity != a[c] {
			t.Errorf("expertise[%d] = %+v, want e=%v a=%v", c, prof, e[c], a[c])
		}
		if prof.Name != d.CategoryName(ratings.CategoryID(c)) {
			t.Errorf("category name[%d] = %q", c, prof.Name)
		}
	}
}

func TestStatsHealthzMetrics(t *testing.T) {
	srv, _, d := openServer(t)
	h := srv.Handler()

	st := decode[StatsResponse](t, get(t, h, "/v1/stats"))
	if st.Dataset.Users != d.NumUsers() || st.Version != 1 || st.LogOffset <= 0 {
		t.Errorf("stats = %+v", st)
	}
	if st.CacheEntries != 0 || st.CacheBytes != 0 {
		t.Errorf("cold cache: entries=%d bytes=%d, want 0/0", st.CacheEntries, st.CacheBytes)
	}

	// One top-k query retains one O(k) result: entries and the byte gauge
	// must both move, and the bytes must be result-sized, not row-sized.
	get(t, h, "/v1/topk?user=3&k=5")
	st = decode[StatsResponse](t, get(t, h, "/v1/stats"))
	if st.CacheEntries != 1 || st.CacheBytes <= 0 {
		t.Errorf("after topk: entries=%d bytes=%d, want 1/>0", st.CacheEntries, st.CacheBytes)
	}
	if rowBytes := int64(8 * d.NumUsers()); st.CacheBytes >= rowBytes {
		t.Errorf("cache_bytes = %d per entry, not O(k) (dense row would be %d)", st.CacheBytes, rowBytes)
	}

	rec := get(t, h, "/healthz")
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"ok"`) {
		t.Errorf("healthz: %d %s", rec.Code, rec.Body.String())
	}

	body := get(t, h, "/metrics").Body.String()
	for _, want := range []string{
		"trustd_requests_total{endpoint=\"stats\"} 2",
		"trustd_model_version 1",
		"trustd_dataset_users 60",
		"trustd_swaps_total 0",
		"trustd_result_cache_entries 1",
		"trustd_result_cache_misses_total 1",
		"trustd_row_computes_total 1",
		"trustd_result_cache_bytes",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q in:\n%s", want, body)
		}
	}
}

func TestBadRequests(t *testing.T) {
	srv, _, _ := openServer(t)
	h := srv.Handler()
	for url, want := range map[string]int{
		"/v1/topk":                http.StatusBadRequest, // missing user
		"/v1/topk?user=abc":       http.StatusBadRequest,
		"/v1/topk?user=99999":     http.StatusNotFound,
		"/v1/topk?user=1&k=0":     http.StatusBadRequest,
		"/v1/topk?user=-1":        http.StatusNotFound,
		"/v1/trust?from=1":        http.StatusBadRequest, // missing to
		"/v1/expertise?user=bust": http.StatusBadRequest,
	} {
		if rec := get(t, h, url); rec.Code != want {
			t.Errorf("GET %s = %d, want %d", url, rec.Code, want)
		}
	}
	// Non-GET methods are rejected by the router.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/topk?user=1", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST /v1/topk = %d, want 405", rec.Code)
	}
}

func TestResultCacheHitsAndSwapInvalidation(t *testing.T) {
	srv, tailer, d := openServer(t)
	h := srv.Handler()

	get(t, h, "/v1/topk?user=5")
	get(t, h, "/v1/topk?user=5")
	get(t, h, "/v1/topk?user=5&k=3")  // k below the cache floor: exact prefix, still a hit
	get(t, h, "/v1/topk?user=5&k=15") // k above the floor: a distinct cached result
	if hits, misses := srv.metrics.cacheHits.Load(), srv.metrics.cacheMisses.Load(); hits != 2 || misses != 2 {
		t.Errorf("cache hits=%d misses=%d, want 2/2", hits, misses)
	}
	if computes := srv.metrics.rowComputes.Load(); computes != 2 {
		t.Errorf("row computes = %d, want 2 (one per uncoalesced miss)", computes)
	}
	// The prefix answer must be the exact top-3.
	model, _, _ := srv.Current()
	resp := decode[TopKResponse](t, get(t, h, "/v1/topk?user=5&k=3"))
	want := model.TopTrusted(5, 3)
	if len(resp.Results) != len(want) {
		t.Fatalf("k=3 prefix has %d results, want %d", len(resp.Results), len(want))
	}
	for i, rk := range want {
		if resp.Results[i].User != int(rk.User) || resp.Results[i].Score != rk.Score {
			t.Errorf("k=3 prefix[%d] = %+v, want {%d %v}", i, resp.Results[i], rk.User, rk.Score)
		}
	}

	// Append one batch and swap. The fresh state starts with an empty
	// cache, so the same query misses and matches a fresh compute against
	// the NEW model.
	appendEvents(t, tailer.path, growBatch(d, 0))
	if n, err := tailer.Poll(); err != nil || n == 0 {
		t.Fatalf("poll: n=%d err=%v", n, err)
	}
	if _, _, version := srv.Current(); version != 2 {
		t.Fatalf("version = %d after swap", version)
	}
	newModel, _, _ := srv.Current()
	missesBefore := srv.metrics.cacheMisses.Load()
	resp = decode[TopKResponse](t, get(t, h, "/v1/topk?user=5"))
	if misses := srv.metrics.cacheMisses.Load(); misses != missesBefore+1 {
		t.Errorf("post-swap misses = %d, want %d (a swap must start an empty cache)", misses, missesBefore+1)
	}
	want = newModel.TopTrusted(5, 10)
	if len(resp.Results) != len(want) {
		t.Fatalf("post-swap topk has %d results, want %d", len(resp.Results), len(want))
	}
	for i, rk := range want {
		if resp.Results[i].User != int(rk.User) || resp.Results[i].Score != rk.Score {
			t.Errorf("post-swap topk[%d] = %+v, want {%d %v}", i, resp.Results[i], rk.User, rk.Score)
		}
	}
}

func TestResultCacheEvictionAndBytes(t *testing.T) {
	c := newResultCache(2, 0)
	cachePut(t, c, resultKey{user: 1, k: 5}, rankedOf(5))
	cachePut(t, c, resultKey{user: 2, k: 5}, rankedOf(5))
	if want := 2 * entryBytes(rankedOf(5)); c.approxBytes() != want {
		t.Errorf("approxBytes = %d, want %d", c.approxBytes(), want)
	}
	if !cached(c, resultKey{user: 1, k: 5}) {
		t.Fatal("entry (1,5) missing")
	}
	cachePut(t, c, resultKey{user: 3, k: 5}, rankedOf(3)) // evicts (2,5); (1,5) was just used
	if cached(c, resultKey{user: 2, k: 5}) {
		t.Error("LRU entry (2,5) not evicted")
	}
	if !cached(c, resultKey{user: 1, k: 5}) {
		t.Error("recently used entry (1,5) evicted")
	}
	if c.len() != 2 {
		t.Errorf("len = %d, want 2", c.len())
	}
	if want := entryBytes(rankedOf(5)) + entryBytes(rankedOf(3)); c.approxBytes() != want {
		t.Errorf("approxBytes after eviction = %d, want %d", c.approxBytes(), want)
	}
	// Disabled cache keeps nothing, not even the published entry.
	off := newResultCache(-1, 0)
	cachePut(t, off, resultKey{user: 1, k: 5}, rankedOf(1))
	if off.len() != 0 || off.approxBytes() != 0 || len(off.m) != 0 {
		t.Error("disabled cache stored a result")
	}

	// The byte budget evicts LRU entries even below the entry bound, but
	// never the entry just inserted — one oversized answer is cacheable.
	budget := newResultCache(100, 2*entryBytes(rankedOf(5)))
	cachePut(t, budget, resultKey{user: 1, k: 5}, rankedOf(5))
	cachePut(t, budget, resultKey{user: 2, k: 5}, rankedOf(5))
	cachePut(t, budget, resultKey{user: 3, k: 5}, rankedOf(5)) // over budget: evicts (1,5)
	if cached(budget, resultKey{user: 1, k: 5}) {
		t.Error("byte budget did not evict the LRU entry")
	}
	if budget.len() != 2 || budget.approxBytes() > 2*entryBytes(rankedOf(5)) {
		t.Errorf("over budget: len=%d bytes=%d", budget.len(), budget.approxBytes())
	}
	huge := newResultCache(100, 64)
	cachePut(t, huge, resultKey{user: 1, k: 50}, rankedOf(50)) // bigger than the whole budget
	if huge.len() != 1 {
		t.Error("oversized single entry was not retained")
	}
}

// TestOversizedKSharesOneEntry: every k >= U is the same full ranking,
// so the cache key is clamped to the user count and distinct oversized
// ks must neither recompute the row nor store duplicate entries.
func TestOversizedKSharesOneEntry(t *testing.T) {
	srv, _, d := openServer(t)
	h := srv.Handler()
	a := decode[TopKResponse](t, get(t, h, "/v1/topk?user=1&k=10000"))
	b := decode[TopKResponse](t, get(t, h, "/v1/topk?user=1&k=20000"))
	if computes := srv.metrics.rowComputes.Load(); computes != 1 {
		t.Errorf("row computes = %d, want 1 (oversized ks share a key)", computes)
	}
	if hits := srv.metrics.cacheHits.Load(); hits != 1 {
		t.Errorf("cache hits = %d, want 1", hits)
	}
	if len(a.Results) != len(b.Results) || len(a.Results) >= d.NumUsers() {
		t.Errorf("oversized-k results: %d and %d rows for %d users", len(a.Results), len(b.Results), d.NumUsers())
	}
	st := decode[StatsResponse](t, get(t, h, "/v1/stats"))
	if st.CacheEntries != 1 {
		t.Errorf("cache entries = %d, want 1", st.CacheEntries)
	}

	// Adjacent above-floor ks share a doubling bucket (11 and 12 both
	// rank at 20): one more compute, then a prefix hit.
	c := decode[TopKResponse](t, get(t, h, "/v1/topk?user=1&k=12"))
	p := decode[TopKResponse](t, get(t, h, "/v1/topk?user=1&k=11"))
	if computes := srv.metrics.rowComputes.Load(); computes != 2 {
		t.Errorf("row computes after k sweep = %d, want 2 (bucketed key)", computes)
	}
	if len(p.Results) > 11 || len(c.Results) > 12 {
		t.Errorf("bucketed results not trimmed: %d and %d rows", len(p.Results), len(c.Results))
	}
	for i := range p.Results {
		if p.Results[i] != c.Results[i] {
			t.Errorf("k=11 result[%d] = %+v, want prefix of k=12 %+v", i, p.Results[i], c.Results[i])
		}
	}

	// A k at the integer limit must answer promptly (regression: the
	// unclamped cacheK doubling loop overflowed into an infinite spin).
	rec := get(t, h, "/v1/topk?user=1&k=9223372036854775807")
	if rec.Code != http.StatusOK {
		t.Errorf("k=MaxInt64: %d %s", rec.Code, rec.Body.String())
	}
}

// TestLeaderPanicFollowersRecover: when a leader panics with waiters on
// its pending entry, the waiters must observe the abandoned entry and
// retry (one of them leading the recomputation) rather than reading
// nothing or hanging — the panic costs exactly the leader's request.
func TestLeaderPanicFollowersRecover(t *testing.T) {
	srv, _, _ := openServer(t)
	h := srv.Handler()
	const clients = 4
	var armed atomic.Bool
	armed.Store(true)
	srv.computeGate = func(u ratings.UserID) {
		if armed.Load() {
			// Wait for every request to coalesce, then die.
			parkLeader(srv, clients)(u)
			armed.Store(false)
			panic("injected compute failure")
		}
	}
	codes := make(chan int, clients)
	for g := 0; g < clients; g++ {
		go func() {
			defer func() {
				if recover() != nil {
					codes <- -1 // the panicked leader's request
				}
			}()
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/topk?user=11&k=5", nil))
			codes <- rec.Code
		}()
	}
	panics, oks := 0, 0
	for i := 0; i < clients; i++ {
		select {
		case c := <-codes:
			switch c {
			case -1:
				panics++
			case http.StatusOK:
				oks++
			default:
				t.Errorf("request returned %d", c)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("request hung after leader panic")
		}
	}
	if panics != 1 || oks != clients-1 {
		t.Errorf("panics=%d oks=%d, want 1/%d (panic costs only the leader)", panics, oks, clients-1)
	}
	if computes := srv.metrics.rowComputes.Load(); computes != 1 {
		t.Errorf("row computes = %d, want 1 (retry leader computes once)", computes)
	}
}

// TestLeaderPanicReleasesFlight: a panic during the leader's row
// computation must abandon its pending entry, so the failure costs one
// request instead of hanging every later miss for that key.
func TestLeaderPanicReleasesFlight(t *testing.T) {
	srv, _, _ := openServer(t)
	h := srv.Handler()
	armed := true
	srv.computeGate = func(u ratings.UserID) {
		if armed {
			armed = false
			panic("injected compute failure")
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("injected panic did not propagate")
			}
		}()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/topk?user=9&k=5", nil))
	}()
	// The next request for the same key must not wait on a dead entry.
	done := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/topk?user=9&k=5", nil))
		done <- rec
	}()
	select {
	case rec := <-done:
		if rec.Code != http.StatusOK {
			t.Fatalf("post-panic request: %d %s", rec.Code, rec.Body.String())
		}
	case <-time.After(5 * time.Second):
		t.Fatal("request after leader panic hung on the abandoned entry")
	}
}

// TestSingleflightCoalescesConcurrentMisses is the thundering-herd
// guard: concurrent identical /v1/topk misses for one user must evaluate
// the trust row exactly once. The computeGate hook parks the leader until
// every other request has missed and so waits on its pending entry, so
// the schedule that used to recompute the row per request is forced
// deterministically.
func TestSingleflightCoalescesConcurrentMisses(t *testing.T) {
	srv, _, _ := openServer(t)
	h := srv.Handler()
	const clients = 8
	srv.computeGate = parkLeader(srv, clients)
	bodies := getConcurrently(h, "/v1/topk?user=7&k=5", clients)
	if computes := srv.metrics.rowComputes.Load(); computes != 1 {
		t.Errorf("%d concurrent identical requests computed %d rows, want 1", clients, computes)
	}
	if misses := srv.metrics.cacheMisses.Load(); misses != clients {
		t.Errorf("misses = %d, want %d (every request raced the empty cache)", misses, clients)
	}
	for g := 1; g < clients; g++ {
		if bodies[g] == "" || bodies[g] != bodies[0] {
			t.Fatalf("request %d answer diverged:\n%s\nvs\n%s", g, bodies[g], bodies[0])
		}
	}
	// The coalesced answer must also be the correct one.
	model, _, _ := srv.Current()
	want := model.TopTrusted(7, 5)
	rec := get(t, h, "/v1/topk?user=7&k=5")
	resp := decode[TopKResponse](t, rec)
	if len(resp.Results) != len(want) {
		t.Fatalf("coalesced result has %d rows, want %d", len(resp.Results), len(want))
	}
	for i, rk := range want {
		if resp.Results[i].User != int(rk.User) || resp.Results[i].Score != rk.Score {
			t.Errorf("coalesced result[%d] = %+v, want {%d %v}", i, resp.Results[i], rk.User, rk.Score)
		}
	}
}

// growBatch fabricates a valid batch of appended events against the
// counts tracked in counts (which it advances), cycling categories.
type counts struct{ users, cats, objects, reviews int }

func newCounts(d *ratings.Dataset) *counts {
	return &counts{users: d.NumUsers(), cats: d.NumCategories(), objects: d.NumObjects(), reviews: d.NumReviews()}
}

func (c *counts) batch(newCat bool) []store.Event {
	writer := ratings.UserID(c.users)
	rater := ratings.UserID(c.users + 1)
	c.users += 2
	evs := []store.Event{
		{Kind: store.EvAddUser, Name: ""},
		{Kind: store.EvAddUser, Name: ""},
	}
	cat := ratings.CategoryID(c.objects % c.cats)
	if newCat {
		evs = append(evs, store.Event{Kind: store.EvAddCategory, Name: ""})
		cat = ratings.CategoryID(c.cats)
		c.cats++
	}
	for i := 0; i < 2; i++ {
		oid := ratings.ObjectID(c.objects)
		rid := ratings.ReviewID(c.reviews)
		c.objects++
		c.reviews++
		evs = append(evs,
			store.Event{Kind: store.EvAddObject, Category: cat},
			store.Event{Kind: store.EvAddReview, User: writer, Object: oid},
			store.Event{Kind: store.EvAddRating, User: rater, Review: rid, Level: uint8(1 + i*3)},
		)
	}
	// An explicit trust edge, so ingest also exercises the web artifact's
	// generosity maintenance.
	evs = append(evs, store.Event{Kind: store.EvAddTrust, User: rater, To: writer})
	return evs
}

func growBatch(d *ratings.Dataset, i int) []store.Event {
	return newCounts(d).batch(i%2 == 0)
}

// trustBatch grows the log like growBatch and additionally adds a trust
// edge between two long-existing users, guaranteeing the dirty set
// reaches into the original community (user 2's row).
func trustBatch(d *ratings.Dataset, i int) []store.Event {
	return append(growBatch(d, i), store.Event{Kind: store.EvAddTrust, User: 2, To: 9})
}

func appendEvents(t *testing.T, path string, evs []store.Event) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
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

// The acceptance test: /v1/topk serves correct answers while the tailer
// ingests appended events concurrently, and after the dust settles every
// query matches a cold rebuild of the grown log. Run with -race.
func TestConcurrentQueriesDuringIngest(t *testing.T) {
	path, d := writeLogFile(t)
	srv, tailer, err := Open(path, time.Hour, Options{})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()

	const rounds = 6
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
				// Every in-flight state has at least d.NumUsers() users,
				// so these ids are always valid.
				u := (w*131 + i) % d.NumUsers()
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/topk?user="+itoa(u)+"&k=5", nil))
				if rec.Code != http.StatusOK {
					t.Errorf("topk during ingest: %d %s", rec.Code, rec.Body.String())
					return
				}
			}
		}(w)
	}

	// Ingest rounds of growth (alternating new-category batches) while
	// the query goroutines hammer the handler.
	cnt := newCounts(d)
	for i := 0; i < rounds; i++ {
		appendEvents(t, path, cnt.batch(i%2 == 0))
		if n, err := tailer.Poll(); err != nil || n == 0 {
			t.Fatalf("poll %d: n=%d err=%v", i, n, err)
		}
	}
	close(stop)
	wg.Wait()

	model, offset, version := srv.Current()
	if version != uint64(1+rounds) {
		t.Errorf("version = %d, want %d", version, 1+rounds)
	}

	// Cold rebuild over the grown log must agree exactly.
	cold, endOff := coldDerive(t, path)
	if offset != endOff {
		t.Errorf("served offset = %d, log end = %d", offset, endOff)
	}
	coldD := cold.Dataset()
	if model.Dataset().NumUsers() != coldD.NumUsers() {
		t.Fatalf("served %d users, cold rebuild %d", model.Dataset().NumUsers(), coldD.NumUsers())
	}
	for u := 0; u < coldD.NumUsers(); u++ {
		rec := get(t, h, "/v1/topk?user="+itoa(u)+"&k=10")
		resp := decode[TopKResponse](t, rec)
		want := cold.TopTrusted(ratings.UserID(u), 10)
		if len(resp.Results) != len(want) {
			t.Fatalf("user %d: %d results, want %d", u, len(resp.Results), len(want))
		}
		for i, rk := range want {
			if resp.Results[i].User != int(rk.User) || resp.Results[i].Score != rk.Score {
				t.Fatalf("user %d rank %d: got %+v, want {%d %v}", u, i, resp.Results[i], rk.User, rk.Score)
			}
		}
	}
}

// A torn final record pauses ingest at the tear without erroring, and the
// tailer picks the record up once the writer completes it.
func TestTailerToleratesTornTail(t *testing.T) {
	path, d := writeLogFile(t)
	srv, tailer, err := Open(path, time.Hour, Options{})
	if err != nil {
		t.Fatal(err)
	}

	// Serialise a batch, then append only part of its last record.
	tmp := filepath.Join(t.TempDir(), "batch.bin")
	f, err := os.Create(tmp)
	if err != nil {
		t.Fatal(err)
	}
	lw := store.NewLogWriter(f)
	for _, ev := range growBatch(d, 0) {
		if err := lw.Append(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := lw.Flush(); err != nil {
		t.Fatal(err)
	}
	f.Close()
	whole, err := os.ReadFile(tmp)
	if err != nil {
		t.Fatal(err)
	}

	logF, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := logF.Write(whole[:len(whole)-3]); err != nil {
		t.Fatal(err)
	}
	logF.Close()

	n, err := tailer.Poll()
	if err != nil {
		t.Fatalf("poll over torn tail: %v", err)
	}
	if n == 0 {
		t.Fatal("torn tail: intact prefix not ingested")
	}
	if srv.metrics.truncatedReads.Load() != 1 {
		t.Error("truncated read not counted")
	}
	beforeOffset := tailer.Offset()

	// Complete the record; the next poll ingests exactly the remainder.
	logF, err = os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := logF.Write(whole[len(whole)-3:]); err != nil {
		t.Fatal(err)
	}
	logF.Close()
	n, err = tailer.Poll()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("resume ingested %d events, want 1", n)
	}
	if tailer.Offset() <= beforeOffset {
		t.Error("offset did not advance on resume")
	}
}

// A poisoned log (an event that fails validation) must stop ingest for
// good: the first Poll reports the error, every later Poll repeats it
// instead of re-applying the partial replay, and the server keeps serving
// its last good model.
func TestTailerPoisonedByInvalidEvent(t *testing.T) {
	path, d := writeLogFile(t)
	srv, tailer, err := Open(path, time.Hour, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// A valid user event followed by a self-rating (writer rating their
	// own review), which Replay rejects after mutating the builder.
	rev := d.Review(0)
	appendEvents(t, path, []store.Event{
		{Kind: store.EvAddUser, Name: "valid-before-poison"},
		{Kind: store.EvAddRating, User: rev.Writer, Review: 0, Level: 3},
	})
	if _, err := tailer.Poll(); err == nil {
		t.Fatal("poisoned log ingested")
	}
	first := tailer.failed
	if first == nil {
		t.Fatal("tailer not poisoned")
	}
	if n, err := tailer.Poll(); n != 0 || err != first {
		t.Errorf("retry after poison: n=%d err=%v, want sticky %v", n, err, first)
	}
	if _, _, version := srv.Current(); version != 1 {
		t.Errorf("version = %d, want 1 (no swap from a poisoned log)", version)
	}
}

// TestOpenWithWorkersServesIdenticalModel opens the same log with serial
// and parallel derivation and checks the served rows match bitwise, then
// ingests a batch through the parallel tailer to cover the Update path
// (per-worker scratch included) end to end.
func TestOpenWithWorkersServesIdenticalModel(t *testing.T) {
	path, d := writeLogFile(t)
	serialSrv, _, err := Open(path, time.Hour, Options{}, weboftrust.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	parSrv, parTailer, err := Open(path, time.Hour, Options{}, weboftrust.WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	serialModel, _, _ := serialSrv.Current()
	parModel, _, _ := parSrv.Current()
	for u := 0; u < d.NumUsers(); u += 11 {
		a := serialModel.Artifacts().Trust.Row(ratings.UserID(u), nil)
		b := parModel.Artifacts().Trust.Row(ratings.UserID(u), nil)
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("T̂[%d][%d]: serial %v != parallel %v", u, j, a[j], b[j])
			}
		}
	}

	// Append one rated review and poll: ingest must fold it in through
	// the parallel incremental update.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	lw := store.NewLogWriter(f)
	for _, ev := range []store.Event{
		{Kind: store.EvAddObject, Category: 0},
		{Kind: store.EvAddReview, User: 1, Object: ratings.ObjectID(d.NumObjects())},
		{Kind: store.EvAddRating, User: 2, Review: ratings.ReviewID(d.NumReviews()), Level: 4},
	} {
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
	n, err := parTailer.Poll()
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("ingested %d events, want 3", n)
	}
	model, _, version := parSrv.Current()
	if version != 2 {
		t.Fatalf("version = %d after ingest, want 2", version)
	}
	if model.Dataset().NumReviews() != d.NumReviews()+1 {
		t.Fatalf("served dataset has %d reviews, want %d", model.Dataset().NumReviews(), d.NumReviews()+1)
	}
}
