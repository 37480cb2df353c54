package server

import (
	"container/list"
	"sync"

	"weboftrust/internal/core"
	"weboftrust/internal/ratings"
)

// resultKind distinguishes the ranked-result families sharing the cache:
// the one-hop top-k ranking and one entry per propagation algorithm. One
// LRU serves them all, so the byte budget bounds the sum and a state swap
// invalidates every family at once.
type resultKind uint8

const (
	kindTopK resultKind = iota
	kindAppleseed
	kindMoleTrust
	kindTidalTrust
	// kindAnomalyTop is the /v1/anomaly/top leaderboard (always user 0:
	// the suspicion vector is global, not per-source).
	kindAnomalyTop
	// The landmark propagate kinds answer ?approx=landmark: the O(L·U)
	// sketch composition instead of a traversal. Keep them contiguous and
	// in the same algorithm order as the traversal kinds.
	kindAppleseedLandmark
	kindMoleTrustLandmark
	kindTidalTrustLandmark
)

// resultKey identifies one ranked answer: the result family, the source
// user and the k it was ranked at.
type resultKey struct {
	kind resultKind
	user ratings.UserID
	k    int
}

// resultCache is a bounded LRU of ranked top-k results keyed by
// (kind, user, k), and the one place an answer is computed once. Where the
// previous dense-row cache retained 8·U bytes per entry (8 MB per cached
// user at the million-user north star), a ranked result retains k (user,
// score) pairs — tens of bytes — so per-cached-user memory is O(k), not
// O(U). A miss leaves a pending entry in the map: the request that
// created it leads the computation and publishes the result, and every
// miss for the same key meanwhile waits on the entry instead of
// recomputing. Published results are immutable (readers only read, so one
// result may serve many concurrent requests). Each server state owns its
// own cache, so an artifact swap invalidates every entry wholesale —
// there is no per-entry invalidation to get wrong.
type resultCache struct {
	mu       sync.Mutex
	cap      int        // max ready entries; <= 0 disables caching, not coalescing
	maxBytes int64      // byte budget; <= 0 means entry-count bound only
	bytes    int64      // approximate retained bytes across ready entries
	ll       *list.List // ready entries only, front = most recently used
	m        map[resultKey]*resultEntry
}

// resultEntry is one answer: pending while its leader computes it, ready
// once published. A pending entry sits in the map but not in the LRU
// list, so eviction never drops it and the byte budget never counts it.
type resultEntry struct {
	key    resultKey
	ranked []core.Ranked
	ready  bool          // set by publish; waiters read it after done
	el     *list.Element // the LRU element once ready (nil with caching off)
	// done releases the waiters when the leader publishes or abandons
	// the entry.
	done sync.WaitGroup
}

// rankedSize is the in-memory size of one core.Ranked (a 4-byte UserID
// padded beside a float64 score).
const rankedSize = 16

// entryOverhead approximates the fixed bookkeeping bytes per cache entry:
// the entry struct and slice header, its list.Element, and a share of the
// map bucket.
const entryOverhead = 96

func entryBytes(ranked []core.Ranked) int64 {
	return entryOverhead + rankedSize*int64(cap(ranked))
}

func newResultCache(capacity int, maxBytes int64) *resultCache {
	return &resultCache{
		cap:      capacity,
		maxBytes: maxBytes,
		ll:       list.New(),
		m:        make(map[resultKey]*resultEntry, min(capacity, 1024)),
	}
}

// acquire looks key up and reports one of three outcomes: a hit returns
// the ready result, marked most recently used, and a nil entry; a miss
// on a key another request is computing returns that pending entry to
// wait on; any other miss makes the caller the leader of a new pending
// entry (lead true), which it must publish or abandon.
func (c *resultCache) acquire(key resultKey) (ranked []core.Ranked, pending *resultEntry, lead bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, found := c.m[key]
	switch {
	case !found:
		e = &resultEntry{key: key}
		e.done.Add(1)
		c.m[key] = e
		return nil, e, true
	case e.ready:
		c.ll.MoveToFront(e.el)
		return e.ranked, nil, false
	}
	return nil, e, false
}

// wait blocks until e's leader finishes and returns its result; ok is
// false when the leader abandoned e, and the caller should acquire again.
func (e *resultEntry) wait() (ranked []core.Ranked, ok bool) {
	e.done.Wait()
	return e.ranked, e.ready
}

// publish makes the leader's pending entry ready with ranked and releases
// its waiters. The entry joins the LRU, which then evicts least recently
// used entries while the cache is over its entry or byte bound; the byte
// budget keeps large-k answers (which legitimately retain O(k) = up to
// O(U) pairs each) from silently holding cap × U memory — the blowup the
// result cache exists to remove. With caching disabled the entry leaves
// the map instead. The caller must not modify ranked afterwards.
func (c *resultCache) publish(e *resultEntry, ranked []core.Ranked) {
	c.mu.Lock()
	e.ranked, e.ready = ranked, true
	if c.cap > 0 {
		e.el = c.ll.PushFront(e)
		c.bytes += entryBytes(ranked)
		c.evictOver(e.el)
	} else {
		delete(c.m, e.key)
	}
	c.mu.Unlock()
	e.done.Done()
}

// abandon drops the leader's entry unless it was published, releasing its
// waiters to retry — into a fresh lead or a hit. The leader defers it, so
// a panicking computation costs only its own request instead of hanging
// every later miss for the key.
func (c *resultCache) abandon(e *resultEntry) {
	if e.ready { // the leader's own write: no lock needed
		return
	}
	c.mu.Lock()
	delete(c.m, e.key)
	c.mu.Unlock()
	e.done.Done()
}

// evictOver drops LRU entries while either bound is exceeded, never
// evicting keep (the entry just published — one oversized answer is
// still worth caching once). Callers hold c.mu.
func (c *resultCache) evictOver(keep *list.Element) {
	for c.ll.Len() > c.cap || (c.maxBytes > 0 && c.bytes > c.maxBytes) {
		oldest := c.ll.Back()
		if oldest == nil || oldest == keep {
			return
		}
		e := c.ll.Remove(oldest).(*resultEntry)
		delete(c.m, e.key)
		c.bytes -= entryBytes(e.ranked)
	}
}

// len returns the number of cached (ready) results.
func (c *resultCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// approxBytes returns the approximate memory retained by the cache.
func (c *resultCache) approxBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// queryScratch is the per-request working memory a cache miss needs: a
// row-length buffer for the eq. 5 evaluation and a small index scratch
// for the heap selection. It is pooled so steady-state misses allocate
// neither.
type queryScratch struct {
	row []float64
	idx []int
}

// idxScratchCap is the heap-index capacity a pooled scratch starts with;
// requests with k beyond it fall back to a per-call allocation.
const idxScratchCap = 64

// rowPool recycles queryScratch buffers for cache-miss row evaluation.
// Buffers are handed out dirty (every fillScore branch overwrites every
// row cell). The pool is sized to one state's user count and owned by
// that state, so a swap retires stale-length buffers with the state it
// belongs to.
type rowPool struct{ p sync.Pool }

func newRowPool(numU int) *rowPool {
	rp := &rowPool{}
	rp.p.New = func() any {
		return &queryScratch{
			row: make([]float64, numU),
			idx: make([]int, 0, idxScratchCap),
		}
	}
	return rp
}

func (rp *rowPool) get() *queryScratch  { return rp.p.Get().(*queryScratch) }
func (rp *rowPool) put(s *queryScratch) { rp.p.Put(s) }
