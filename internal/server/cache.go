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
// (user, k). Where the previous dense-row cache retained 8·U bytes per
// entry (8 MB per cached user at the million-user north star), a ranked
// result retains k (user, score) pairs — tens of bytes — so per-cached-
// user memory is O(k), not O(U). Entries are treated as immutable once
// inserted (readers only read, so one result may serve many concurrent
// requests). Each server state owns its own cache, so an artifact swap
// invalidates every entry wholesale — there is no per-entry invalidation
// to get wrong.
type resultCache struct {
	mu       sync.Mutex
	cap      int        // max entries
	maxBytes int64      // byte budget; <= 0 means entry-count bound only
	bytes    int64      // approximate retained bytes across all entries
	ll       *list.List // front = most recently used
	m        map[resultKey]*list.Element
}

type resultEntry struct {
	key    resultKey
	ranked []core.Ranked
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
		m:        make(map[resultKey]*list.Element, min(capacity, 1024)),
	}
}

// get returns the cached ranked result for key, marking it most recently
// used.
func (c *resultCache) get(key resultKey) ([]core.Ranked, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, found := c.m[key]
	if !found {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*resultEntry).ranked, true
}

// put inserts a ranked result for key, evicting least recently used
// entries while the cache is over its entry or byte bound. The byte
// budget keeps large-k answers (which legitimately retain O(k) = up to
// O(U) pairs each) from silently holding cap × U memory — the blowup
// the result cache exists to remove. The caller must not modify ranked
// afterwards.
func (c *resultCache) put(key resultKey, ranked []core.Ranked) {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		c.ll.MoveToFront(el)
		e := el.Value.(*resultEntry)
		c.bytes += entryBytes(ranked) - entryBytes(e.ranked)
		e.ranked = ranked
		c.evictOver(el)
		return
	}
	el := c.ll.PushFront(&resultEntry{key: key, ranked: ranked})
	c.m[key] = el
	c.bytes += entryBytes(ranked)
	c.evictOver(el)
}

// evictOver drops LRU entries while either bound is exceeded, never
// evicting keep (the entry just touched — one oversized answer is still
// worth caching once). Callers hold c.mu.
func (c *resultCache) evictOver(keep *list.Element) {
	for c.ll.Len() > c.cap || (c.maxBytes > 0 && c.bytes > c.maxBytes) {
		oldest := c.ll.Back()
		if oldest == nil || oldest == keep {
			return
		}
		c.ll.Remove(oldest)
		e := oldest.Value.(*resultEntry)
		delete(c.m, e.key)
		c.bytes -= entryBytes(e.ranked)
	}
}

// len returns the number of cached results.
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
// Buffers are handed out dirty (RowAuto overwrites every row cell). The
// pool is sized to one state's user count and owned by that state, so a
// swap retires stale-length buffers with the state it belongs to.
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
