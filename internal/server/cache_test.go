package server

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"weboftrust/internal/core"
	"weboftrust/internal/ratings"
)

// rankedOf returns an n-pair ranked result.
func rankedOf(n int) []core.Ranked {
	r := make([]core.Ranked, n)
	for i := range r {
		r[i] = core.Ranked{User: ratings.UserID(i), Score: 0.5}
	}
	return r
}

// cachePut leads a fresh entry for key and publishes ranked into it.
func cachePut(t *testing.T, c *resultCache, key resultKey, ranked []core.Ranked) {
	t.Helper()
	_, e, lead := c.acquire(key)
	if !lead {
		t.Fatalf("acquire(%+v) did not lead a fresh entry", key)
	}
	c.publish(e, ranked)
}

// cached reports whether key has a ready entry (marking it most recently
// used), abandoning the pending entry a miss leaves behind.
func cached(c *resultCache, key resultKey) bool {
	_, e, lead := c.acquire(key)
	if lead {
		c.abandon(e)
	}
	return e == nil
}

// parkLeader returns a computeGate that holds the leader until n requests
// have missed — each registered on its pending entry before counting the
// miss — or for at most 5 s, so a broken test fails on its counters
// instead of hanging.
func parkLeader(srv *Server, n int64) func(ratings.UserID) {
	return func(ratings.UserID) {
		deadline := time.Now().Add(5 * time.Second)
		for srv.metrics.cacheMisses.Load() < n && time.Now().Before(deadline) {
			time.Sleep(50 * time.Microsecond)
		}
	}
}

// getConcurrently issues n concurrent GETs of url and returns each body,
// "" for a request that did not answer 200.
func getConcurrently(h http.Handler, url string, n int) []string {
	bodies := make([]string, n)
	var wg sync.WaitGroup
	for g := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
			if rec.Code == http.StatusOK {
				bodies[g] = rec.Body.String()
			}
		}()
	}
	wg.Wait()
	return bodies
}

// TestResultCacheDisabledStillCoalesces: with caching disabled, publish
// keeps no entry, but concurrent misses for one key still compute once.
func TestResultCacheDisabledStillCoalesces(t *testing.T) {
	path, _ := writeLogFile(t)
	srv, _, err := Open(path, time.Hour, Options{CacheResults: -1})
	if err != nil {
		t.Fatal(err)
	}
	const clients = 8
	srv.computeGate = parkLeader(srv, clients)
	bodies := getConcurrently(srv.Handler(), "/v1/topk?user=7&k=5", clients)
	if computes := srv.metrics.rowComputes.Load(); computes != 1 {
		t.Errorf("%d concurrent identical requests computed %d rows, want 1", clients, computes)
	}
	for g := 1; g < clients; g++ {
		if bodies[g] == "" || bodies[g] != bodies[0] {
			t.Fatalf("request %d answer diverged:\n%s\nvs\n%s", g, bodies[g], bodies[0])
		}
	}
	if c := srv.cur.Load().results; c.len() != 0 || len(c.m) != 0 {
		t.Errorf("disabled cache holds %d ready and %d mapped entries, want 0/0", c.len(), len(c.m))
	}
}

// TestResultCachePendingNeverEvicted: a pending entry sits outside the
// LRU, so ready entries pushed past both bounds never evict it and a
// second miss for its key still waits on it; publishing it then keeps it
// within both bounds.
func TestResultCachePendingNeverEvicted(t *testing.T) {
	budget := 2 * entryBytes(rankedOf(5))
	c := newResultCache(2, budget)
	a := resultKey{user: 1, k: 5}
	_, pending, lead := c.acquire(a)
	if !lead {
		t.Fatal("first acquire did not lead")
	}
	for u := 2; u < 8; u++ {
		cachePut(t, c, resultKey{user: ratings.UserID(u), k: 5}, rankedOf(5))
	}
	if c.len() != 2 || c.approxBytes() != budget || len(c.m) != 3 {
		t.Errorf("with A pending: len=%d bytes=%d mapped=%d, want 2/%d/3", c.len(), c.approxBytes(), len(c.m), budget)
	}
	if _, e, lead := c.acquire(a); e != pending || lead {
		t.Fatalf("second acquire of the pending key: entry %p lead=%v, want to wait on %p", e, lead, pending)
	}
	c.publish(pending, rankedOf(5))
	if r, ok := pending.wait(); !ok || len(r) != 5 {
		t.Errorf("waiter got %d pairs ok=%v, want the published 5", len(r), ok)
	}
	if c.len() != 2 || c.approxBytes() > budget || len(c.m) != 2 {
		t.Errorf("after publish: len=%d bytes=%d mapped=%d, want 2/<=%d/2", c.len(), c.approxBytes(), len(c.m), budget)
	}
	if !cached(c, a) {
		t.Error("publish evicted the entry it made ready")
	}
}

// TestResultCacheConcurrentProperty drives random concurrent queries over
// every result family through an 8-entry cache while leaders panic on a
// seeded draw. Every answer served must equal an uncached server's, and
// once every request has finished no pending entry may remain, every
// mapped entry must be in the LRU, and the byte gauge must be the sum over
// the ready entries.
func TestResultCacheConcurrentProperty(t *testing.T) {
	path, _ := writeLogFile(t)
	srv, _, err := Open(path, time.Hour, Options{CacheResults: 8})
	if err != nil {
		t.Fatal(err)
	}
	model, offset, _ := srv.Current()
	ref := New(model, offset, Options{CacheResults: -1}).Handler()

	families := []string{
		"/v1/topk?user=%d&k=%d",
		"/v1/propagate?algo=appleseed&user=%d&k=%d",
		"/v1/propagate?algo=moletrust&user=%d&k=%d",
		"/v1/propagate?algo=tidaltrust&user=%d&k=%d",
		"/v1/propagate?algo=appleseed&approx=landmark&user=%d&k=%d",
		"/v1/propagate?algo=moletrust&approx=landmark&user=%d&k=%d",
		"/v1/propagate?algo=tidaltrust&approx=landmark&user=%d&k=%d",
		"/v1/anomaly/top?user=%d&k=%d", // user is ignored: one global ranking
	}
	ks := []int{1, 3, 10, 12, 25, 1000}
	const workers, perWorker = 8, 40
	rng := rand.New(rand.NewSource(1))
	urls := make([][]string, workers)
	for w := range urls {
		for range perWorker {
			f := families[rng.Intn(len(families))]
			urls[w] = append(urls[w], fmt.Sprintf(f, rng.Intn(6), ks[rng.Intn(len(ks))]))
		}
	}

	var mu sync.Mutex
	draw := rand.New(rand.NewSource(2))
	srv.computeGate = func(ratings.UserID) {
		mu.Lock()
		fail := draw.Intn(6) == 0
		mu.Unlock()
		if fail {
			panic("injected compute failure")
		}
	}
	h := srv.Handler()
	bodies := make([][]string, workers)
	panics := make([]int, workers)
	var wg sync.WaitGroup
	for w := range workers {
		bodies[w] = make([]string, perWorker)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, url := range urls[w] {
				func() {
					defer func() {
						if recover() != nil {
							panics[w]++
						}
					}()
					rec := httptest.NewRecorder()
					h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
					if rec.Code != http.StatusOK {
						t.Errorf("GET %s = %d %s", url, rec.Code, rec.Body.String())
					}
					bodies[w][i] = rec.Body.String()
				}()
			}
		}()
	}
	wg.Wait()

	total := 0
	want := map[string]string{}
	for w := range workers {
		total += panics[w]
		for i, url := range urls[w] {
			if bodies[w][i] == "" {
				continue // the request whose leader panicked
			}
			if _, ok := want[url]; !ok {
				want[url] = get(t, ref, url).Body.String()
			}
			if bodies[w][i] != want[url] {
				t.Fatalf("GET %s served\n%s\nuncached reference\n%s", url, bodies[w][i], want[url])
			}
		}
	}
	if total == 0 {
		t.Error("no leader panicked: the draw never fired")
	}

	c := srv.cur.Load().results
	c.mu.Lock()
	defer c.mu.Unlock()
	var sum int64
	for key, e := range c.m {
		if !e.ready {
			t.Errorf("pending entry %+v left behind", key)
			continue
		}
		sum += entryBytes(e.ranked)
	}
	if len(c.m) != c.ll.Len() || c.ll.Len() > 8 {
		t.Errorf("mapped entries %d, LRU length %d (cap 8)", len(c.m), c.ll.Len())
	}
	if c.bytes != sum {
		t.Errorf("approxBytes = %d, Σ entryBytes over ready entries = %d", c.bytes, sum)
	}
}
