// Package router serves a shard-by-source trustd cluster behind one
// address. It is a thin, stateless consistent-hash proxy: each per-source
// query names a source user, the user's owning shard is computed with the
// same jump hash the shards themselves check ownership with
// (internal/shard), and the request is forwarded to one of that shard's
// replicas over a pooled connection. The router holds no model, no
// cache and no cluster state beyond its static shard map, so any number
// of router processes can front the same cluster.
//
// Because every shard keeps the complete model and answers its owned
// sources bitwise-identically to an unsharded process, the router's
// responses are byte-for-byte what a single trustd serving the whole
// community would produce — including error bodies, which are proxied
// from real shards rather than synthesised here. The cluster harness
// test pins exactly that.
//
// Failure handling is layered (see DESIGN.md §12). First attempts
// rotate across a shard's replicas, skipping replicas whose per-replica
// circuit breaker is open (consecutive-failure trip, cooldown, single
// half-open probe), so no replica absorbs every first attempt and a dead
// replica is probed, not hammered. A transport error or gateway-ish
// status (502/503/504) costs an exponential-backoff-with-jitter pause
// and moves the request to the next allowed replica, at most
// Config.Retries extra attempts, each attempt bounded by Config.Timeout.
// With Config.HedgeAfter set, a slow attempt is hedged: a second copy of
// the (idempotent, GET-only) request races on the next allowed replica
// and the first response wins. A 421 (Misdirected Request) is NOT
// retried: it means the shard map disagrees with the shard's own spec,
// which no other replica of the same shard will fix. When every attempt
// at a shard is exhausted and Config.StaleEntries is set, the router
// serves the last known good body for that exact request URI, marked
// X-Trustd-Degraded: stale — honest staleness instead of a 502.
//
// The proxy hot path is deliberately allocation-lean — the acceptance
// bar is ≤2× a direct cached shard hit, which leaves almost no room on
// top of the second network hop: query parameters are scanned without
// materialising url.Values, upstream calls go straight to the pooled
// Transport (no per-request timer; the transport enforces the header
// timeout), and bodies stream through pooled copy buffers.
package router

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"weboftrust/internal/shard"
)

// Config describes the cluster a Router fronts.
type Config struct {
	// Shards maps shard index -> replica base URLs (e.g.
	// "http://10.0.0.7:7070"). Every shard needs at least one replica;
	// the outer length IS the cluster's shard count and must match the
	// -shard i/N the shards were started with.
	Shards [][]string
	// Timeout bounds each upstream attempt (time to response headers).
	// 0 means DefaultTimeout.
	Timeout time.Duration
	// Retries caps the extra replica attempts after a transport error or
	// 502/503/504. 0 means DefaultRetries; negative disables retrying.
	Retries int
	// MaxIdleConnsPerHost sizes the per-replica connection pool. 0 means
	// DefaultMaxIdleConnsPerHost.
	MaxIdleConnsPerHost int
	// RetryBackoff is the base pause before the first retry attempt,
	// doubled per further attempt and jittered ±50% so synchronized
	// routers don't stampede a recovering shard. 0 means
	// DefaultRetryBackoff; negative retries immediately (the tests' knob).
	RetryBackoff time.Duration
	// BreakerThreshold trips a replica's circuit breaker after this many
	// consecutive failures. 0 means DefaultBreakerThreshold; negative
	// disables breakers.
	BreakerThreshold int
	// BreakerCooldown is how long a tripped replica rests before a single
	// half-open probe is allowed through. 0 means DefaultBreakerCooldown.
	BreakerCooldown time.Duration
	// HedgeAfter, when positive, hedges slow attempts on per-source GET
	// endpoints: if a replica has not answered within HedgeAfter, a
	// second copy of the request races on the shard's next allowed
	// replica and the first response wins. 0 disables hedging (the
	// default: it costs a goroutine + context per hedged attempt).
	HedgeAfter time.Duration
	// StaleEntries, when positive, bounds a last-known-good response
	// cache: per-source requests that exhaust every replica serve their
	// most recent 200 body marked X-Trustd-Degraded: stale instead of a
	// 502. Bodies over maxStaleBody are streamed but never cached, so
	// the cache is bounded at StaleEntries × maxStaleBody bytes. 0
	// disables degraded serving (the default: it costs one body copy per
	// proxied success).
	StaleEntries int
}

// DefaultTimeout bounds each upstream attempt.
const DefaultTimeout = 5 * time.Second

// DefaultRetries is the extra replica attempts on retryable failures.
const DefaultRetries = 1

// DefaultMaxIdleConnsPerHost keeps a small warm pool per replica.
const DefaultMaxIdleConnsPerHost = 16

// DefaultRetryBackoff is the base retry pause (doubled per attempt,
// jittered ±50%).
const DefaultRetryBackoff = 25 * time.Millisecond

// maxRetryBackoff caps the exponential retry pause.
const maxRetryBackoff = 250 * time.Millisecond

// DegradedHeader marks responses the router served from its
// last-known-good cache because the owning shard was unreachable. Its
// value names the degradation mode (currently always "stale").
const DegradedHeader = "X-Trustd-Degraded"

// Router proxies cluster queries to their owning shards. Create with
// New, mount Handler. Safe for concurrent use.
type Router struct {
	shards [][]string
	// parsed mirrors shards with pre-parsed URLs, so the per-request path
	// never re-parses a base URL.
	parsed  [][]url.URL
	timeout time.Duration
	retries int
	// transport is the pooled upstream path; client wraps it for the
	// non-hot fan-out and readiness surfaces.
	transport *http.Transport
	client    *http.Client
	start     time.Time
	// rr rotates unroutable requests (no parsable source user) across
	// shards so their error responses still come from real shards.
	rr atomic.Uint64
	// replicaRR rotates each shard's first-attempt replica so replica 0
	// stops absorbing every request (health-aware: open breakers are
	// skipped on top of the rotation). Indexed by shard.
	replicaRR []atomic.Uint64
	// breakers holds one circuit breaker per replica, mirroring parsed.
	// breakerThreshold < 0 disables them (every acquire passes).
	breakers         [][]breaker
	breakerThreshold int32
	breakerCooldown  int64 // nanos
	retryBackoff     time.Duration
	hedgeAfter       time.Duration
	// stale is the flag-gated last-known-good cache; nil when disabled.
	stale *staleCache
	// jitterSeq feeds the cheap backoff-jitter mixer (no rand state, no
	// allocation).
	jitterSeq atomic.Uint64
	metrics   routerMetrics
}

type routerMetrics struct {
	requests          atomic.Int64
	proxied           atomic.Int64
	retries           atomic.Int64
	upstreamErrors    atomic.Int64 // requests that exhausted every attempt
	misdirected       atomic.Int64 // 421s from shards (shard-map skew alarm)
	breakerTrips      atomic.Int64 // replica breakers tripped closed→open
	breakerRecoveries atomic.Int64 // half-open probes that closed a breaker
	hedges            atomic.Int64 // hedge requests launched
	hedgeWins         atomic.Int64 // hedges whose response was served
	staleServed       atomic.Int64 // degraded last-known-good responses
}

// New validates the shard map and builds the router.
func New(cfg Config) (*Router, error) {
	if len(cfg.Shards) == 0 {
		return nil, fmt.Errorf("router: no shards configured")
	}
	parsed := make([][]url.URL, len(cfg.Shards))
	for i, replicas := range cfg.Shards {
		if len(replicas) == 0 {
			return nil, fmt.Errorf("router: shard %d has no replicas", i)
		}
		parsed[i] = make([]url.URL, len(replicas))
		for j, base := range replicas {
			u, err := url.Parse(base)
			if err != nil || u.Scheme == "" || u.Host == "" {
				return nil, fmt.Errorf("router: shard %d replica %q is not an absolute URL", i, base)
			}
			u.Path = strings.TrimSuffix(u.Path, "/")
			parsed[i][j] = *u
		}
	}
	timeout := cfg.Timeout
	if timeout == 0 {
		timeout = DefaultTimeout
	}
	retries := cfg.Retries
	if retries == 0 {
		retries = DefaultRetries
	} else if retries < 0 {
		retries = 0
	}
	maxIdle := cfg.MaxIdleConnsPerHost
	if maxIdle == 0 {
		maxIdle = DefaultMaxIdleConnsPerHost
	}
	// The transport enforces the per-attempt timeout itself
	// (ResponseHeaderTimeout), so the hot path never allocates a
	// per-request timer.
	transport := &http.Transport{
		MaxIdleConnsPerHost:   maxIdle,
		MaxIdleConns:          maxIdle * len(cfg.Shards) * 2,
		ResponseHeaderTimeout: timeout,
		// The shards serve small JSON bodies over the local network;
		// transparent gzip would cost latency on every hop to save bytes
		// nobody is short of — and the router must relay bodies verbatim.
		DisableCompression: true,
	}
	backoff := cfg.RetryBackoff
	if backoff == 0 {
		backoff = DefaultRetryBackoff
	} else if backoff < 0 {
		backoff = 0
	}
	threshold := int32(cfg.BreakerThreshold)
	if threshold == 0 {
		threshold = DefaultBreakerThreshold
	} else if threshold < 0 {
		threshold = -1
	}
	cooldown := cfg.BreakerCooldown
	if cooldown == 0 {
		cooldown = DefaultBreakerCooldown
	}
	breakers := make([][]breaker, len(cfg.Shards))
	for i, replicas := range cfg.Shards {
		breakers[i] = make([]breaker, len(replicas))
	}
	rt := &Router{
		shards:           cfg.Shards,
		parsed:           parsed,
		timeout:          timeout,
		retries:          retries,
		transport:        transport,
		client:           &http.Client{Transport: transport},
		start:            time.Now(),
		replicaRR:        make([]atomic.Uint64, len(cfg.Shards)),
		breakers:         breakers,
		breakerThreshold: threshold,
		breakerCooldown:  int64(cooldown),
		retryBackoff:     backoff,
		hedgeAfter:       cfg.HedgeAfter,
	}
	if cfg.StaleEntries > 0 {
		rt.stale = newStaleCache(cfg.StaleEntries)
	}
	return rt, nil
}

// NumShards returns the cluster's shard count.
func (rt *Router) NumShards() int { return len(rt.shards) }

// Owner returns the shard index owning a user id — the same jump hash
// the shards check ownership with.
func (rt *Router) Owner(user int) int { return shard.Owner(user, len(rt.shards)) }

// Handler returns the router's HTTP routes: the shard-routed query
// endpoints plus the router's own health and metrics surfaces.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	byUser := func(param string) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			rt.routeByParam(w, r, param)
		}
	}
	mux.HandleFunc("GET /v1/topk", byUser("user"))
	mux.HandleFunc("GET /v1/trust", byUser("from"))
	mux.HandleFunc("GET /v1/expertise", byUser("user"))
	mux.HandleFunc("GET /v1/neighbors", byUser("user"))
	mux.HandleFunc("GET /v1/propagate", byUser("user"))
	mux.HandleFunc("GET /v1/rank", rt.handleRank)
	mux.HandleFunc("GET /v1/anomaly", rt.handleAnomaly)
	mux.HandleFunc("GET /v1/anomaly/top", rt.handleAnomalyTop)
	mux.HandleFunc("GET /v1/graph/stats", rt.handleGraphStats)
	mux.HandleFunc("GET /v1/stats", rt.handleStats)
	mux.HandleFunc("GET /healthz", rt.handleHealthz)
	mux.HandleFunc("GET /readyz", rt.handleReadyz)
	mux.HandleFunc("GET /metrics", rt.handleMetrics)
	return mux
}

// routeByParam forwards the request to the shard owning the named source
// user. Requests whose parameter is missing or unparsable are forwarded
// to a rotating shard: any shard rejects them exactly as an unsharded
// server would, so the error body stays byte-identical to single-process
// serving (ids out of range hash to SOME shard and 404 there for the
// same reason).
func (rt *Router) routeByParam(w http.ResponseWriter, r *http.Request, param string) {
	rt.metrics.requests.Add(1)
	var idx int
	if id, ok := queryInt(r.URL.RawQuery, param); ok {
		idx = rt.Owner(id)
	} else {
		idx = int(rt.rr.Add(1)) % len(rt.shards)
	}
	rt.proxy(w, r, idx)
}

// queryInt scans rawQuery for name's first value and parses it as an
// integer, without materialising url.Values (this runs per proxied
// request). Escaped or malformed values report !ok — the caller falls
// back to rotating, and the shard produces the authoritative error.
func queryInt(rawQuery, name string) (int, bool) {
	for q := rawQuery; q != ""; {
		var pair string
		pair, q = pair0(q)
		k, v, _ := strings.Cut(pair, "=")
		if k != name {
			continue
		}
		id, err := strconv.Atoi(v)
		return id, err == nil
	}
	return 0, false
}

// pair0 splits off the first &-separated pair of a raw query.
func pair0(q string) (string, string) {
	if i := strings.IndexByte(q, '&'); i >= 0 {
		return q[:i], q[i+1:]
	}
	return q, ""
}

// proxy forwards the request to shard idx. The attempt loop rotates over
// the shard's replicas from a per-shard round-robin start, skipping
// replicas whose circuit breaker is open; a transport error or retryable
// gateway status records a breaker failure and costs a jittered
// exponential backoff before the next attempt (up to Config.Retries
// extra attempts — same-replica retries are meaningful now that they are
// spaced, so single-replica shards retry too). The first non-retryable
// response is streamed back verbatim (status, content type, body). When
// every attempt fails and degraded serving is enabled, the last known
// good body for this exact request URI is served marked
// X-Trustd-Degraded: stale; otherwise the per-replica failures are
// aggregated into the 502 body.
func (rt *Router) proxy(w http.ResponseWriter, r *http.Request, idx int) {
	replicas := rt.parsed[idx]
	n := len(replicas)
	attempts := 1 + rt.retries
	ctx := r.Context()
	var staleKey string
	if rt.stale != nil {
		staleKey = r.URL.Path + "?" + r.URL.RawQuery
	}

	// errs aggregates every failed attempt for the 502 body — earlier
	// replicas can fail differently than the last one, and the operator
	// debugging an outage wants all of them. Allocated only off the
	// success path.
	var errs []string
	now := time.Now().UnixNano()
	start := 0
	if n > 1 {
		start = int(rt.replicaRR[idx].Add(1) % uint64(n))
	}
	fetched, consecSkips := 0, 0
	for step := 0; fetched < attempts; step++ {
		ri := (start + step) % n
		ok, probe := rt.acquireReplica(idx, ri, now)
		if !ok {
			consecSkips++
			if consecSkips >= n {
				// Every replica is tripped and cooling down: fail fast
				// into stale serving (or the 502) — that is the point of
				// the breaker.
				errs = append(errs, "all replica circuit breakers open")
				break
			}
			continue
		}
		consecSkips = 0
		if fetched > 0 {
			rt.metrics.retries.Add(1)
			if !rt.backoffSleep(ctx, fetched) {
				if probe {
					// The granted half-open probe was never issued: give the
					// outcome back (reopen, fresh cooldown) or the breaker
					// wedges half-open forever.
					rt.recordFailure(idx, ri)
				}
				errs = append(errs, "request ended during retry backoff")
				break
			}
			now = time.Now().UnixNano()
		}
		fetched++
		resp, winRi, err := rt.fetchMaybeHedged(ctx, idx, ri, probe, r.URL)
		if err != nil {
			rt.recordFailure(idx, winRi)
			errs = append(errs, rt.shards[idx][winRi]+": "+err.Error())
			continue
		}
		if retryableStatus(resp.StatusCode) {
			rt.recordFailure(idx, winRi)
			if fetched < attempts {
				errs = append(errs, rt.shards[idx][winRi]+": "+resp.Status)
				resp.Body.Close()
				continue
			}
			// Out of attempts on a gateway-ish status: labeled stale beats
			// relaying an unavailable shard's error, when we have it.
			if rt.serveStale(w, staleKey) {
				resp.Body.Close()
				return
			}
			// No stale fallback: the shard's own error body is still the
			// most honest answer, but this request DID exhaust its
			// attempts — count it as an upstream error, not a proxied
			// success.
			rt.metrics.upstreamErrors.Add(1)
			rt.relay(w, resp, "")
			return
		}
		rt.recordSuccess(idx, winRi)
		if resp.StatusCode == http.StatusMisdirectedRequest {
			rt.metrics.misdirected.Add(1)
		}
		rt.metrics.proxied.Add(1)
		rt.relay(w, resp, staleKey)
		return
	}
	if rt.serveStale(w, staleKey) {
		return
	}
	rt.metrics.upstreamErrors.Add(1)
	writeJSON(w, http.StatusBadGateway, map[string]any{
		"error":    fmt.Sprintf("shard %d unavailable after %d attempts", idx, fetched),
		"attempts": errs,
	})
}

// acquireReplica asks replica ri's breaker for permission to attempt.
// probe reports that the caller was granted the replica's single
// half-open probe and MUST resolve it (recordSuccess or recordFailure)
// on every path, including abandonment.
func (rt *Router) acquireReplica(idx, ri int, now int64) (ok, probe bool) {
	if rt.breakerThreshold < 0 {
		return true, false
	}
	return rt.breakers[idx][ri].acquire(now, rt.breakerCooldown)
}

// recordSuccess closes the replica's breaker (any real response, even an
// application error, proves the replica alive).
func (rt *Router) recordSuccess(idx, ri int) {
	if rt.breakerThreshold < 0 {
		return
	}
	if rt.breakers[idx][ri].onSuccess() {
		rt.metrics.breakerRecoveries.Add(1)
	}
}

// recordFailure feeds the replica's breaker a transport error or
// gateway-ish status.
func (rt *Router) recordFailure(idx, ri int) {
	if rt.breakerThreshold < 0 {
		return
	}
	if rt.breakers[idx][ri].onFailure(time.Now().UnixNano(), rt.breakerThreshold) {
		rt.metrics.breakerTrips.Add(1)
	}
}

// backoffSleep pauses before extra attempt k (1-based): base·2^(k-1)
// capped at maxRetryBackoff, jittered to 50–150% so synchronized routers
// spread their retries. Returns false when the request context ended
// first.
func (rt *Router) backoffSleep(ctx context.Context, k int) bool {
	if rt.retryBackoff <= 0 {
		return ctx.Err() == nil
	}
	d := rt.retryBackoff << (k - 1)
	if d > maxRetryBackoff || d <= 0 {
		d = maxRetryBackoff
	}
	u := splitmix64(rt.jitterSeq.Add(1))
	d = time.Duration(float64(d) * (0.5 + float64(u>>11)/(1<<53)))
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// hedgeTarget picks the hedge replica: the first replica other than
// exclude whose breaker is closed (hedges are a latency optimisation —
// they never probe tripped replicas).
func (rt *Router) hedgeTarget(idx, exclude int) (int, bool) {
	reps := rt.breakers[idx]
	for ri := range reps {
		if ri == exclude {
			continue
		}
		if rt.breakerThreshold < 0 || reps[ri].state.Load() == bClosed {
			return ri, true
		}
	}
	return 0, false
}

// cancelBody ties a hedged attempt's context to its response body: the
// context is released when the body is closed, never before the relay
// finished reading it.
type cancelBody struct {
	io.ReadCloser
	cancel context.CancelFunc
}

func (b cancelBody) Close() error {
	err := b.ReadCloser.Close()
	b.cancel()
	return err
}

// fetchMaybeHedged issues one attempt against replica ri, racing a hedge
// copy on the shard's next closed-breaker replica if the first has not
// answered within hedgeAfter. It returns the winning response and the
// replica it came from; the caller records the winner's breaker outcome.
// probe means ri holds its breaker's half-open probe — if ri loses the
// race and its reaped outcome is not a genuine success, the reaper must
// record the failure (reopening the breaker) so the probe is never left
// dangling half-open. With hedging disabled (or a single-replica shard)
// this is exactly rt.fetch — zero extra cost on that path.
func (rt *Router) fetchMaybeHedged(ctx context.Context, idx, ri int, probe bool, orig *url.URL) (*http.Response, int, error) {
	if rt.hedgeAfter <= 0 || len(rt.parsed[idx]) < 2 {
		resp, err := rt.fetch(ctx, &rt.parsed[idx][ri], orig)
		return resp, ri, err
	}
	type hres struct {
		resp *http.Response
		err  error
		ri   int
		slot int
	}
	ch := make(chan hres, 2)
	var cancels [2]context.CancelFunc
	launch := func(slot, ri int) {
		cctx, cancel := context.WithCancel(ctx)
		cancels[slot] = cancel
		go func() {
			resp, err := rt.fetch(cctx, &rt.parsed[idx][ri], orig)
			if err != nil {
				cancel()
			} else {
				resp.Body = cancelBody{resp.Body, cancel}
			}
			ch <- hres{resp, err, ri, slot}
		}()
	}
	launch(0, ri)
	launched := 1
	timer := time.NewTimer(rt.hedgeAfter)
	var res hres
	select {
	case res = <-ch:
		timer.Stop()
	case <-timer.C:
		if hi, ok := rt.hedgeTarget(idx, ri); ok {
			rt.metrics.hedges.Add(1)
			launch(1, hi)
			launched = 2
		}
		res = <-ch
	}
	consumed := 1
	if launched == 2 && consumed == 1 && (res.err != nil || retryableStatus(res.resp.StatusCode)) {
		// The first finisher failed; the racer may still save the
		// request. The failure is recorded here because only the final
		// result reaches the caller.
		rt.recordFailure(idx, res.ri)
		if res.resp != nil {
			resp := res.resp
			go func() { resp.Body.Close() }() // may block on the hijacked conn; reap off-path
		}
		res = <-ch
		consumed = 2
	}
	if launched > consumed {
		// A racer is still in flight: abort it and reap it off-path. Its
		// abort is self-inflicted, so it feeds no breaker bookkeeping —
		// except a genuine success, which proves the replica healthy, and
		// except when the loser is the primary holding its breaker's
		// half-open probe: the probe owes the breaker an outcome, so a
		// canceled or retryable-status probe records a failure (reopen,
		// fresh cooldown) instead of wedging the breaker half-open.
		cancels[1-res.slot]()
		go func() {
			lr := <-ch
			if lr.resp != nil && !retryableStatus(lr.resp.StatusCode) {
				rt.recordSuccess(idx, lr.ri)
			} else if probe && lr.ri == ri {
				rt.recordFailure(idx, lr.ri)
			}
			if lr.resp != nil {
				lr.resp.Body.Close()
			}
		}()
	}
	if res.err == nil && res.slot == 1 {
		rt.metrics.hedgeWins.Add(1)
	}
	return res.resp, res.ri, res.err
}

// maxStaleBody caps how large a response body the stale cache will
// retain, bounding the cache at StaleEntries × maxStaleBody bytes.
// Oversized bodies still stream through to the client — they are just
// not cacheable for degraded serving.
const maxStaleBody = 1 << 20

// relay streams a shard response back verbatim. With degraded serving
// enabled a 200 body is captured en route (up to maxStaleBody, still
// streaming chunk by chunk, never buffered whole) and becomes the last
// known good answer for this request URI.
func (rt *Router) relay(w http.ResponseWriter, resp *http.Response, staleKey string) {
	if rt.stale == nil || staleKey == "" || resp.StatusCode != http.StatusOK {
		copyResponse(w, resp)
		return
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.WriteHeader(resp.StatusCode)
	var capture bytes.Buffer
	oversize := false
	buf := copyBufs.Get().(*[]byte)
	defer copyBufs.Put(buf)
	for {
		n, rerr := resp.Body.Read(*buf)
		if n > 0 {
			if _, werr := w.Write((*buf)[:n]); werr != nil {
				// Client gone mid-body: the capture is incomplete, so it
				// must not become the last known good answer.
				return
			}
			if !oversize {
				if capture.Len()+n > maxStaleBody {
					oversize = true
					capture = bytes.Buffer{}
				} else {
					capture.Write((*buf)[:n])
				}
			}
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			return // truncated upstream body: relay what we sent, cache nothing
		}
	}
	if !oversize {
		rt.stale.put(staleKey, resp.Header.Get("Content-Type"), capture.Bytes())
	}
}

// serveStale answers from the last-known-good cache, honestly labeled:
// X-Trustd-Degraded: stale on a 200 with the cached body. Reports false
// when degraded serving is disabled or this URI was never served.
func (rt *Router) serveStale(w http.ResponseWriter, staleKey string) bool {
	if rt.stale == nil || staleKey == "" {
		return false
	}
	ct, body, ok := rt.stale.get(staleKey)
	if !ok {
		return false
	}
	if ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.Header().Set(DegradedHeader, "stale")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
	rt.metrics.staleServed.Add(1)
	return true
}

// splitmix64 feeds the backoff jitter: a full-avalanche mix of a plain
// counter, no rand state and no allocation.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// fetch issues one upstream GET preserving the original path and query,
// straight through the pooled transport (no client bookkeeping, no URL
// re-parse; the transport's ResponseHeaderTimeout bounds the attempt).
func (rt *Router) fetch(ctx context.Context, base *url.URL, orig *url.URL) (*http.Response, error) {
	req := (&http.Request{
		Method: http.MethodGet,
		URL: &url.URL{
			Scheme:   base.Scheme,
			Host:     base.Host,
			Path:     base.Path + orig.Path,
			RawQuery: orig.RawQuery,
		},
		Proto:      "HTTP/1.1",
		ProtoMajor: 1,
		ProtoMinor: 1,
		Header:     http.Header{},
		Host:       base.Host,
	}).WithContext(ctx)
	return rt.transport.RoundTrip(req)
}

func retryableStatus(code int) bool {
	return code == http.StatusBadGateway || code == http.StatusServiceUnavailable || code == http.StatusGatewayTimeout
}

// copyBufs pools the body-relay buffers so the hot path does not pay a
// fresh io.Copy scratch allocation per proxied request.
var copyBufs = sync.Pool{New: func() any {
	b := make([]byte, 16<<10)
	return &b
}}

func copyResponse(w http.ResponseWriter, resp *http.Response) {
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.WriteHeader(resp.StatusCode)
	buf := copyBufs.Get().(*[]byte)
	_, _ = io.CopyBuffer(w, resp.Body, *buf)
	copyBufs.Put(buf)
}

// handleGraphStats fans /v1/graph/stats out to every shard and returns
// the freshest body: the replicated graph is identical on every shard at
// a given model version, so the response with the highest version (ties
// to the lowest shard index) is THE cluster answer, byte-identical to an
// unsharded server at that version.
func (rt *Router) handleGraphStats(w http.ResponseWriter, r *http.Request) {
	rt.proxyFreshest(w, r, "/v1/graph/stats")
}

// handleRank serves the global EigenTrust ranking the same way: the rank
// vector is solved cold over the replicated graph, so every shard at a
// given version serves byte-identical bodies and the freshest one is the
// cluster answer. The query string (k= or user=) rides along on the
// fan-out; first non-OK freshest body (e.g. a 404 for an out-of-range
// user) is relayed verbatim.
func (rt *Router) handleRank(w http.ResponseWriter, r *http.Request) {
	rt.proxyFreshest(w, r, "/v1/rank")
}

// handleAnomaly and handleAnomalyTop relay the suspicion scores the same
// way: internal/anomaly is a pure function of the replicated (dataset,
// web) pair, so every shard at a version serves byte-identical bodies
// and any one of them is the cluster answer.
func (rt *Router) handleAnomaly(w http.ResponseWriter, r *http.Request) {
	rt.proxyFreshest(w, r, "/v1/anomaly")
}

func (rt *Router) handleAnomalyTop(w http.ResponseWriter, r *http.Request) {
	rt.proxyFreshest(w, r, "/v1/anomaly/top")
}

// proxyFreshest fans a replicated-state endpoint out to every shard and
// relays the highest-version OK body (ties to the lowest shard index),
// preserving the request's query string. When no shard answers 200, the
// first real non-OK shard response is relayed instead (the shards agree
// on parameter validation), and only transport-level silence on every
// shard produces a router-synthesised 502.
func (rt *Router) proxyFreshest(w http.ResponseWriter, r *http.Request, path string) {
	rt.metrics.requests.Add(1)
	type result struct {
		idx     int
		status  int
		body    []byte
		version uint64
		ct      string
	}
	results := rt.fanOut(r, path, func(idx, status int, ct string, body []byte) any {
		var v struct {
			Version uint64 `json:"version"`
		}
		if status == http.StatusOK {
			_ = json.Unmarshal(body, &v)
		}
		return result{idx: idx, status: status, body: body, version: v.Version, ct: ct}
	})
	best := -1
	var bestRes result
	for _, a := range results {
		res, ok := a.(result)
		if !ok || res.status != http.StatusOK {
			continue
		}
		if best == -1 || res.version > bestRes.version ||
			(res.version == bestRes.version && res.idx < bestRes.idx) {
			best, bestRes = res.idx, res
		}
	}
	if best == -1 {
		// No shard answered 200: relay the lowest-index real response so
		// error bodies stay shard-authored (all shards validate parameters
		// identically).
		for _, a := range results {
			res, ok := a.(result)
			if !ok || res.status == 0 {
				continue
			}
			rt.metrics.proxied.Add(1)
			if res.ct != "" {
				w.Header().Set("Content-Type", res.ct)
			}
			w.WriteHeader(res.status)
			_, _ = w.Write(res.body)
			return
		}
		rt.metrics.upstreamErrors.Add(1)
		writeJSON(w, http.StatusBadGateway, map[string]string{"error": "no shard answered " + path})
		return
	}
	rt.metrics.proxied.Add(1)
	if bestRes.ct != "" {
		w.Header().Set("Content-Type", bestRes.ct)
	}
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(bestRes.body)
}

// handleStats aggregates every shard's /v1/stats under the router's own
// envelope: per-shard bodies keyed by index, plus router-level counters.
// (Unlike graph stats, per-shard stats genuinely differ — owned users,
// cache fill — so they are reported side by side, not merged.)
func (rt *Router) handleStats(w http.ResponseWriter, r *http.Request) {
	rt.metrics.requests.Add(1)
	shards := rt.fanOut(r, "/v1/stats", func(idx, status int, ct string, body []byte) any {
		if status != http.StatusOK {
			return map[string]any{"shard": idx, "error": fmt.Sprintf("status %d", status)}
		}
		var v json.RawMessage = body
		return map[string]any{"shard": idx, "stats": v}
	})
	// breakers reports every replica's circuit state so an operator can
	// see which replica of which shard is tripped at a glance.
	breakers := make([][]string, len(rt.breakers))
	for i := range rt.breakers {
		breakers[i] = make([]string, len(rt.breakers[i]))
		for j := range rt.breakers[i] {
			breakers[i][j] = rt.breakers[i][j].stateName()
		}
	}
	routerBlock := map[string]any{
		"shards":            len(rt.shards),
		"requests":          rt.metrics.requests.Load(),
		"proxied":           rt.metrics.proxied.Load(),
		"retries":           rt.metrics.retries.Load(),
		"upstreamErrors":    rt.metrics.upstreamErrors.Load(),
		"misdirected":       rt.metrics.misdirected.Load(),
		"breakerTrips":      rt.metrics.breakerTrips.Load(),
		"breakerRecoveries": rt.metrics.breakerRecoveries.Load(),
		"breakers":          breakers,
		"hedges":            rt.metrics.hedges.Load(),
		"hedgeWins":         rt.metrics.hedgeWins.Load(),
		"staleServed":       rt.metrics.staleServed.Load(),
		"uptimeSeconds":     time.Since(rt.start).Seconds(),
	}
	if rt.stale != nil {
		routerBlock["staleEntries"] = rt.stale.len()
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"router": routerBlock,
		"shards": shards,
	})
}

// fanOut queries one replica chain per shard concurrently and maps each
// shard's best response through fn (status 0 and nil body when no
// replica answered). The original request's query string is preserved on
// every upstream call. Results are indexed by shard.
func (rt *Router) fanOut(r *http.Request, path string, fn func(idx, status int, ct string, body []byte) any) []any {
	ctx, cancel := context.WithTimeout(r.Context(), rt.timeout)
	defer cancel()
	out := make([]any, len(rt.shards))
	var wg sync.WaitGroup
	for idx := range rt.shards {
		wg.Add(1)
		go func(idx int) {
			defer wg.Done()
			u := &url.URL{Path: path, RawQuery: r.URL.RawQuery}
			replicas := rt.parsed[idx]
			attempts := min(1+rt.retries, len(replicas))
			for a := 0; a < attempts; a++ {
				resp, err := rt.fetch(ctx, &replicas[a], u)
				if err != nil {
					continue
				}
				body, rerr := io.ReadAll(resp.Body)
				ct := resp.Header.Get("Content-Type")
				resp.Body.Close()
				if rerr != nil || (retryableStatus(resp.StatusCode) && a+1 < attempts) {
					continue
				}
				out[idx] = fn(idx, resp.StatusCode, ct, body)
				return
			}
			out[idx] = fn(idx, 0, "", nil)
		}(idx)
	}
	wg.Wait()
	return out
}

// handleHealthz is the ROUTER's liveness: the proxy process is up. Shard
// health is /readyz's business.
func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "role": "router", "shards": len(rt.shards)})
}

// handleReadyz reports cluster readiness: 200 "ready" only when every
// shard has at least one replica answering /readyz with 200. With
// degraded serving enabled AND something in the last-known-good cache,
// an unready shard demotes the verdict to 200 "degraded" instead of
// 503 — the router can still answer from the cache, so taking it out of
// rotation would only turn partial degradation into total
// unavailability. An empty cache (cold start) stays 503 "waiting":
// degraded serving cannot answer anything yet. The per-shard verdicts
// ride along so an operator can see which shard is lagging.
func (rt *Router) handleReadyz(w http.ResponseWriter, r *http.Request) {
	verdicts := rt.fanOut(r, "/readyz", func(idx, status int, ct string, body []byte) any {
		return status == http.StatusOK
	})
	ready := true
	perShard := make([]bool, len(verdicts))
	for i, v := range verdicts {
		ok, _ := v.(bool)
		perShard[i] = ok
		if !ok {
			ready = false
		}
	}
	status := http.StatusOK
	state := "ready"
	if !ready {
		if rt.stale != nil && rt.stale.len() > 0 {
			state = "degraded"
		} else {
			status = http.StatusServiceUnavailable
			state = "waiting"
		}
	}
	writeJSON(w, status, map[string]any{"status": state, "shards": perShard})
}

// handleMetrics exposes the router's counters in Prometheus text format,
// namespaced apart from the shards' trustd_* metrics.
func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	counter("trustrouter_requests_total", "Requests received by the router.", rt.metrics.requests.Load())
	counter("trustrouter_proxied_total", "Requests successfully proxied to a shard.", rt.metrics.proxied.Load())
	counter("trustrouter_retries_total", "Replica retries after transport errors or gateway statuses.", rt.metrics.retries.Load())
	counter("trustrouter_upstream_errors_total", "Requests that exhausted every replica attempt.", rt.metrics.upstreamErrors.Load())
	counter("trustrouter_misdirected_total", "421 responses proxied from shards (shard-map skew alarm).", rt.metrics.misdirected.Load())
	counter("trustrouter_breaker_trips_total", "Replica circuit breakers tripped open by consecutive failures.", rt.metrics.breakerTrips.Load())
	counter("trustrouter_breaker_recoveries_total", "Replica circuit breakers closed by a successful half-open probe.", rt.metrics.breakerRecoveries.Load())
	counter("trustrouter_hedges_total", "Hedge requests launched against slow replicas.", rt.metrics.hedges.Load())
	counter("trustrouter_hedge_wins_total", "Requests answered by the hedge instead of the primary attempt.", rt.metrics.hedgeWins.Load())
	counter("trustrouter_stale_served_total", "Degraded responses served from the last-known-good cache.", rt.metrics.staleServed.Load())
	var open int64
	for i := range rt.breakers {
		for j := range rt.breakers[i] {
			if rt.breakers[i][j].state.Load() != bClosed {
				open++
			}
		}
	}
	fmt.Fprintf(w, "# HELP trustrouter_breaker_open Replica circuit breakers currently open or half-open.\n# TYPE trustrouter_breaker_open gauge\ntrustrouter_breaker_open %d\n", open)
	if rt.stale != nil {
		fmt.Fprintf(w, "# HELP trustrouter_stale_entries Last-known-good responses currently cached for degraded serving.\n# TYPE trustrouter_stale_entries gauge\ntrustrouter_stale_entries %d\n", rt.stale.len())
	}
	fmt.Fprintf(w, "# HELP trustrouter_shards Shards in the routed cluster.\n# TYPE trustrouter_shards gauge\ntrustrouter_shards %d\n", len(rt.shards))
}

// WaitReady polls every shard's /readyz until the whole cluster is ready
// or the context expires — how `trustd route -wait-ready` gates its own
// readiness on the shards it fronts. Sweeps are spaced by jittered
// exponential backoff (25ms doubling to a 1s cap, 50–150% jitter)
// instead of a fixed 50ms hammer: a slow-booting cluster gets probed
// gently, and N routers waiting on the same shards don't synchronize.
func (rt *Router) WaitReady(ctx context.Context) error {
	backoff := 25 * time.Millisecond
	const maxBackoff = time.Second
	for {
		if rt.allReady(ctx) {
			return nil
		}
		u := splitmix64(rt.jitterSeq.Add(1))
		d := time.Duration(float64(backoff) * (0.5 + float64(u>>11)/(1<<53)))
		t := time.NewTimer(d)
		select {
		case <-ctx.Done():
			t.Stop()
			return fmt.Errorf("router: cluster not ready: %w", ctx.Err())
		case <-t.C:
		}
		if backoff < maxBackoff {
			backoff *= 2
		}
	}
}

// allReady probes every replica concurrently under ONE per-sweep 1s
// deadline: a hung or blackholed replica burns only its own goroutine's
// wait, never another replica's budget, so a cluster whose every shard
// has a healthy replica passes even while some replica hangs. The sweep
// is cancelled early once every shard has reported a ready replica.
func (rt *Router) allReady(ctx context.Context) bool {
	sctx, cancel := context.WithTimeout(ctx, time.Second)
	defer cancel()
	u := &url.URL{Path: "/readyz"}
	ready := make([]atomic.Bool, len(rt.parsed))
	var unreadyShards atomic.Int32
	unreadyShards.Store(int32(len(rt.parsed)))
	var wg sync.WaitGroup
	for si := range rt.parsed {
		for ri := range rt.parsed[si] {
			wg.Add(1)
			go func(si, ri int) {
				defer wg.Done()
				resp, err := rt.fetch(sctx, &rt.parsed[si][ri], u)
				if err != nil {
					return
				}
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK && ready[si].CompareAndSwap(false, true) {
					if unreadyShards.Add(-1) == 0 {
						cancel() // all shards ready: release hung probes
					}
				}
			}(si, ri)
		}
	}
	wg.Wait()
	return unreadyShards.Load() == 0
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// ParseShards parses the -shards flag grammar: shards separated by
// commas, replicas of one shard separated by "|".
//
//	http://a:1,http://b:2,http://c:3          three shards
//	http://a:1|http://a2:1,http://b:2         shard 0 has two replicas
func ParseShards(s string) ([][]string, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("router: empty shard list")
	}
	var shards [][]string
	for _, part := range strings.Split(s, ",") {
		var replicas []string
		for _, rep := range strings.Split(part, "|") {
			rep = strings.TrimSpace(rep)
			if rep != "" {
				replicas = append(replicas, rep)
			}
		}
		if len(replicas) == 0 {
			return nil, fmt.Errorf("router: shard %d has no replicas in %q", len(shards), s)
		}
		shards = append(shards, replicas)
	}
	return shards, nil
}
