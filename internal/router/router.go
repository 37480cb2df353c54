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
// Failure handling is layered (see DESIGN.md §12), and every request
// reaches a shard through one attempt loop: a per-source request runs it
// at its owning shard, and the fan-out endpoints (/v1/stats,
// /v1/graph/stats, /v1/rank, /v1/anomaly*) run it at every shard
// concurrently. First attempts rotate across a shard's replicas,
// skipping replicas whose per-replica circuit breaker is open (five
// consecutive failures trip it; after a cooldown the router probes the
// replica's /readyz itself, off the request path), so no replica absorbs
// every first attempt and a dead replica is probed, not hammered. A
// transport error or gateway-ish status (502/503/504) costs an
// exponential-backoff-with-jitter pause (25 ms base) and moves the
// request to the next allowed replica, at most Config.Retries extra
// attempts, each attempt's wait for response headers bounded by
// Config.Timeout. A 421 (Misdirected Request) is NOT
// retried: it means the shard map disagrees with the shard's own spec,
// which no other replica of the same shard will fix. When every attempt
// at a shard is exhausted and Config.StaleEntries is set, the router
// serves the last known good body for that exact request URI, marked
// X-Trustd-Degraded: stale — honest staleness instead of a 502.
// Readiness, for /readyz and WaitReady alike, is one concurrent probe of
// every replica.
//
// The proxy hot path is deliberately allocation-lean: routed, a cached
// /v1/topk hit costs 2.16× a direct one (BenchmarkRouterTopK in
// BENCH_pr16.json, medians of 5 runs: 174.3 µs vs 80.7 µs). Query
// parameters are scanned without materialising url.Values, upstream
// calls go straight to the pooled Transport (no per-request timer; the
// transport enforces the header timeout), and bodies stream through
// pooled copy buffers.
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
	// Timeout bounds one upstream attempt's wait for response headers
	// (the transport's ResponseHeaderTimeout), not the request: a
	// request, per-source or fan-out, makes up to 1+Retries attempts
	// with backoff between them, so it can take (1+Retries)×Timeout plus
	// backoff. 0 means DefaultTimeout.
	Timeout time.Duration
	// Retries caps the extra replica attempts after a transport error or
	// 502/503/504. 0 means DefaultRetries; negative disables retrying.
	Retries int
	// BreakerCooldown is how long a tripped replica rests before the
	// router sends it one readiness probe. 0 means DefaultBreakerCooldown.
	BreakerCooldown time.Duration
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

// maxIdleConnsPerHost keeps a small warm pool per replica.
const maxIdleConnsPerHost = 16

// retryBackoff is the base pause before the first retry attempt, doubled
// per further attempt and jittered to 50–150% so synchronized routers
// don't stampede a recovering shard.
const retryBackoff = 25 * time.Millisecond

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
	retries int
	// transport is the pooled upstream path every attempt and readiness
	// probe takes (through fetch).
	transport *http.Transport
	start     time.Time
	// rr rotates unroutable requests (no parsable source user) across
	// shards so their error responses still come from real shards.
	rr atomic.Uint64
	// replicaRR rotates each shard's first-attempt replica so replica 0
	// stops absorbing every request (health-aware: open breakers are
	// skipped on top of the rotation). Indexed by shard.
	replicaRR []atomic.Uint64
	// breakers holds one circuit breaker per replica, mirroring parsed.
	breakers        [][]breaker
	breakerCooldown int64 // nanos
	// stale is the flag-gated last-known-good cache; nil when disabled.
	stale *staleCache
	// jitterSeq feeds sleepJittered's mixer (no rand state, no
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
	// The transport enforces the per-attempt timeout itself
	// (ResponseHeaderTimeout), so the hot path never allocates a
	// per-request timer.
	transport := &http.Transport{
		MaxIdleConnsPerHost:   maxIdleConnsPerHost,
		MaxIdleConns:          maxIdleConnsPerHost * len(cfg.Shards) * 2,
		ResponseHeaderTimeout: timeout,
		// The shards serve small JSON bodies over the local network;
		// transparent gzip would cost latency on every hop to save bytes
		// nobody is short of — and the router must relay bodies verbatim.
		DisableCompression: true,
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
		shards:          cfg.Shards,
		parsed:          parsed,
		retries:         retries,
		transport:       transport,
		start:           time.Now(),
		replicaRR:       make([]atomic.Uint64, len(cfg.Shards)),
		breakers:        breakers,
		breakerCooldown: int64(cooldown),
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
	mux.HandleFunc("GET /v1/rank", rt.proxyFreshest)
	mux.HandleFunc("GET /v1/anomaly", rt.proxyFreshest)
	mux.HandleFunc("GET /v1/anomaly/top", rt.proxyFreshest)
	mux.HandleFunc("GET /v1/graph/stats", rt.proxyFreshest)
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

// proxy forwards the request to shard idx through the attempt loop and
// streams the first non-retryable response back verbatim (status,
// content type, body). When every attempt fails and degraded serving is
// enabled, the last known good body for this exact request URI is served
// marked X-Trustd-Degraded: stale; otherwise an out-of-attempts gateway
// status is relayed as the shard sent it, and silence from every replica
// becomes a 502 listing each failed attempt.
func (rt *Router) proxy(w http.ResponseWriter, r *http.Request, idx int) {
	var staleKey string
	if rt.stale != nil {
		staleKey = r.URL.Path + "?" + r.URL.RawQuery
	}
	a := rt.try(r.Context(), idx, r.URL)
	if a.resp != nil && !retryableStatus(a.resp.StatusCode) {
		if a.resp.StatusCode == http.StatusMisdirectedRequest {
			rt.metrics.misdirected.Add(1)
		}
		rt.metrics.proxied.Add(1)
		rt.relay(w, a.resp, staleKey)
		return
	}
	// Out of attempts: labeled stale beats relaying an unavailable
	// shard's error, when we have it.
	if rt.serveStale(w, staleKey) {
		if a.resp != nil {
			a.resp.Body.Close()
		}
		return
	}
	rt.metrics.upstreamErrors.Add(1)
	if a.resp != nil {
		// The shard's own gateway error is still the most honest answer.
		rt.relay(w, a.resp, "")
		return
	}
	writeJSON(w, http.StatusBadGateway, map[string]any{
		"error":    a.unavailable(idx),
		"attempts": a.errs,
	})
}

// attempts is the outcome of one attempt loop at one shard.
type attempts struct {
	// resp is the first non-retryable response, or the gateway-ish one
	// the last attempt got; nil when no replica answered. The caller
	// owns its body.
	resp    *http.Response
	replica int // index of the replica that sent resp
	fetched int // upstream requests sent
	// errs aggregates every failed attempt — earlier replicas can fail
	// differently than the last one, and the operator debugging an
	// outage wants all of them. Allocated only off the success path.
	errs []string
}

// unavailable names a shard none of whose replicas answered.
func (a *attempts) unavailable(idx int) string {
	return fmt.Sprintf("shard %d unavailable after %d attempts", idx, a.fetched)
}

// try is the router's one attempt loop, run by every per-source request
// and by every shard's leg of a fan-out. It rotates over shard idx's
// replicas from a per-shard round-robin start, skipping replicas whose
// circuit breaker is open; a transport error or retryable gateway status
// records a breaker failure and costs a jittered exponential backoff
// before the next attempt, up to 1+retries attempts. Same-replica
// retries are meaningful because they are spaced, so single-replica
// shards retry too. u supplies the upstream path and query.
func (rt *Router) try(ctx context.Context, idx int, u *url.URL) (a attempts) {
	replicas := rt.parsed[idx]
	n := len(replicas)
	limit := 1 + rt.retries
	now := time.Now().UnixNano()
	start := 0
	if n > 1 {
		start = int(rt.replicaRR[idx].Add(1) % uint64(n))
	}
	consecSkips := 0
	for step := 0; a.fetched < limit; step++ {
		ri := (start + step) % n
		if b := &rt.breakers[idx][ri]; !b.acquire() {
			if b.claimProbe(now, rt.breakerCooldown) {
				go rt.probe(idx, ri)
			}
			consecSkips++
			if consecSkips >= n {
				// Every replica is tripped and cooling down: fail fast
				// into stale serving (or the 502) — that is the point of
				// the breaker.
				a.errs = append(a.errs, "all replica circuit breakers open")
				return a
			}
			continue
		}
		consecSkips = 0
		if a.fetched > 0 {
			rt.metrics.retries.Add(1)
			d := retryBackoff << (a.fetched - 1)
			if d > maxRetryBackoff || d <= 0 {
				d = maxRetryBackoff
			}
			if !rt.sleepJittered(ctx, d) {
				a.errs = append(a.errs, "request ended during retry backoff")
				return a
			}
			now = time.Now().UnixNano()
		}
		a.fetched++
		resp, err := rt.fetch(ctx, &replicas[ri], u)
		if err == nil && !retryableStatus(resp.StatusCode) {
			// Any real response, even an application error, proves the
			// replica alive.
			if rt.breakers[idx][ri].onSuccess() {
				rt.metrics.breakerRecoveries.Add(1)
			}
			a.resp, a.replica = resp, ri
			return a
		}
		rt.recordFailure(idx, ri)
		if err != nil {
			a.errs = append(a.errs, rt.shards[idx][ri]+": "+err.Error())
			continue
		}
		if a.fetched == limit {
			a.resp, a.replica = resp, ri
			return a
		}
		a.errs = append(a.errs, rt.shards[idx][ri]+": "+resp.Status)
		resp.Body.Close()
	}
	return a
}

// probe fetches replica ri of shard idx's /readyz for its half-open
// breaker, on its own goroutine so no client request waits on a replica
// that tripped. One attempt's timeout bounds the fetch, connect included.
// A 200 closes the breaker; anything else reopens it for a fresh
// cooldown.
func (rt *Router) probe(idx, ri int) {
	ctx, cancel := context.WithTimeout(context.Background(), rt.transport.ResponseHeaderTimeout)
	defer cancel()
	resp, err := rt.fetch(ctx, &rt.parsed[idx][ri], readyzURL)
	if err == nil {
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			if rt.breakers[idx][ri].onSuccess() {
				rt.metrics.breakerRecoveries.Add(1)
			}
			return
		}
	}
	rt.recordFailure(idx, ri)
}

// recordFailure feeds the replica's breaker a transport error or
// gateway-ish status.
func (rt *Router) recordFailure(idx, ri int) {
	if rt.breakers[idx][ri].onFailure(time.Now().UnixNano()) {
		rt.metrics.breakerTrips.Add(1)
	}
}

// sleepJittered pauses for 50–150% of d, the jitter drawn from a
// splitmix64 mix of a counter so synchronized routers spread their
// retries and readiness sweeps. Returns false when ctx ended first.
func (rt *Router) sleepJittered(ctx context.Context, d time.Duration) bool {
	u := splitmix64(rt.jitterSeq.Add(1))
	t := time.NewTimer(time.Duration(float64(d) * (0.5 + float64(u>>11)/(1<<53))))
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
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

// splitmix64 feeds sleepJittered: a full-avalanche mix of a plain
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

// readyzURL is the path every readiness fetch asks a replica for.
var readyzURL = &url.URL{Path: "/readyz"}

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

// proxyFreshest serves the replicated-state endpoints — /v1/graph/stats,
// /v1/rank and /v1/anomaly* — from a fan-out to every shard. The graph,
// the cold-solved EigenTrust vector and the suspicion scores are pure
// functions of the replicated model, so every shard at a version serves
// byte-identical bodies, and the highest-version OK body (ties to the
// lowest shard index) is THE cluster answer, byte-identical to an
// unsharded server at that version. When no shard answers 200, the
// lowest-index real shard response is relayed instead (the shards agree
// on parameter validation, e.g. a 404 for an out-of-range user), and
// only silence from every replica of every shard produces a
// router-synthesised 502, which lists each failed attempt. As in proxy,
// a relayed out-of-attempts gateway status counts as an upstream error,
// not a proxied success.
func (rt *Router) proxyFreshest(w http.ResponseWriter, r *http.Request) {
	rt.metrics.requests.Add(1)
	replies := rt.fanOut(r)
	best := -1
	var bestVersion uint64
	for idx, rep := range replies {
		if rep.resp == nil || rep.resp.StatusCode != http.StatusOK {
			continue
		}
		var v struct {
			Version uint64 `json:"version"`
		}
		_ = json.Unmarshal(rep.body, &v)
		if best == -1 || v.Version > bestVersion {
			best, bestVersion = idx, v.Version
		}
	}
	if best == -1 {
		var errs []string
		for idx, rep := range replies {
			if rep.resp != nil {
				best = idx
				break
			}
			errs = append(errs, rep.errs...)
		}
		if best == -1 {
			rt.metrics.upstreamErrors.Add(1)
			writeJSON(w, http.StatusBadGateway, map[string]any{
				"error":    "no shard answered " + r.URL.Path,
				"attempts": errs,
			})
			return
		}
	}
	rep := replies[best]
	if retryableStatus(rep.resp.StatusCode) {
		rt.metrics.upstreamErrors.Add(1)
	} else {
		rt.metrics.proxied.Add(1)
	}
	if ct := rep.resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.WriteHeader(rep.resp.StatusCode)
	_, _ = w.Write(rep.body)
}

// handleStats aggregates every shard's /v1/stats under the router's own
// envelope: per-shard bodies keyed by index, plus router-level counters.
// (Unlike graph stats, per-shard stats genuinely differ — owned users,
// cache fill — so they are reported side by side, not merged.) Each
// shard block names the replica that answered, since rotation picks it
// per request, and lists every failed attempt; a shard no replica of
// which answered carries the 502 account a per-source request would get.
func (rt *Router) handleStats(w http.ResponseWriter, r *http.Request) {
	rt.metrics.requests.Add(1)
	replies := rt.fanOut(r)
	shards := make([]map[string]any, len(replies))
	for idx, rep := range replies {
		b := map[string]any{"shard": idx}
		switch {
		case rep.resp == nil:
			b["error"] = rep.unavailable(idx)
		case rep.resp.StatusCode != http.StatusOK:
			b["replica"], b["error"] = rt.shards[idx][rep.replica], rep.resp.Status
		default:
			b["replica"], b["stats"] = rt.shards[idx][rep.replica], json.RawMessage(rep.body)
		}
		if len(rep.errs) > 0 {
			b["attempts"] = rep.errs
		}
		shards[idx] = b
	}
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

// shardReply is one shard's leg of a fan-out: the outcome of its attempt
// loop with resp's body read into body and closed. A body that failed to
// read counts as one more failed attempt, and resp is nil.
type shardReply struct {
	attempts
	body []byte
}

// fanOut runs the attempt loop once per shard, concurrently, for r's path
// and query. Replies are indexed by shard.
func (rt *Router) fanOut(r *http.Request) []shardReply {
	out := make([]shardReply, len(rt.shards))
	var wg sync.WaitGroup
	for idx := range rt.shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rep := shardReply{attempts: rt.try(r.Context(), idx, r.URL)}
			if rep.resp != nil {
				var err error
				rep.body, err = io.ReadAll(rep.resp.Body)
				rep.resp.Body.Close()
				if err != nil {
					rep.errs = append(rep.errs, rt.shards[idx][rep.replica]+": "+err.Error())
					rep.resp = nil
				}
			}
			out[idx] = rep
		}()
	}
	wg.Wait()
	return out
}

// handleHealthz is the ROUTER's liveness: the proxy process is up. Shard
// health is /readyz's business.
func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "role": "router", "shards": len(rt.shards)})
}

// handleReadyz reports cluster readiness from one probeReady sweep, the
// probe WaitReady uses: 200 "ready" only when every shard has at least
// one replica answering /readyz with 200. With degraded serving enabled
// AND something in the last-known-good cache, an unready shard demotes
// the verdict to 200 "degraded" instead of 503 — the router can still
// answer from the cache, so taking it out of rotation would only turn
// partial degradation into total unavailability. An empty cache (cold
// start) stays 503 "waiting": degraded serving cannot answer anything
// yet. The per-shard verdicts ride along so an operator can see which
// shard is lagging.
func (rt *Router) handleReadyz(w http.ResponseWriter, r *http.Request) {
	perShard, ready := rt.probeReady(r.Context())
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
		if _, ready := rt.probeReady(ctx); ready {
			return nil
		}
		if !rt.sleepJittered(ctx, backoff) {
			return fmt.Errorf("router: cluster not ready: %w", ctx.Err())
		}
		if backoff < maxBackoff {
			backoff *= 2
		}
	}
}

// probeReady probes every replica's /readyz concurrently under ONE 1s
// deadline and reports, per shard, whether any of its replicas answered
// 200, and whether every shard did. A hung or blackholed replica burns
// only its own goroutine's wait, never another replica's budget, so a
// cluster whose every shard has a healthy replica passes even while some
// replica hangs. The sweep is cancelled early once every shard has
// reported a ready replica.
func (rt *Router) probeReady(ctx context.Context) (perShard []bool, all bool) {
	sctx, cancel := context.WithTimeout(ctx, time.Second)
	defer cancel()
	ready := make([]atomic.Bool, len(rt.parsed))
	var unreadyShards atomic.Int32
	unreadyShards.Store(int32(len(rt.parsed)))
	var wg sync.WaitGroup
	for si := range rt.parsed {
		for ri := range rt.parsed[si] {
			wg.Add(1)
			go func(si, ri int) {
				defer wg.Done()
				resp, err := rt.fetch(sctx, &rt.parsed[si][ri], readyzURL)
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
	perShard = make([]bool, len(ready))
	for i := range ready {
		perShard[i] = ready[i].Load()
	}
	return perShard, unreadyShards.Load() == 0
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
