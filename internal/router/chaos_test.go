package router_test

// The chaos harness: the cluster-equivalence property under failure.
// Two shards × two replicas, every replica behind its own fault
// injector (internal/faulty), an unsharded reference over the same log,
// and the router in front. Each scenario — replica kill/restart, slow
// replica, flapping replica, total shard death — asserts the honesty
// contract from DESIGN.md §12: every successful response is
// byte-identical to the unsharded reference, and anything that is NOT
// the fresh answer is explicitly labeled (X-Trustd-Degraded) — never a
// silently wrong body, and never a router-synthesised 502 while a
// labeled-degraded path exists. Run with -race (make chaos-smoke).

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"weboftrust"
	"weboftrust/internal/faulty"
	"weboftrust/internal/router"
	"weboftrust/internal/server"
	"weboftrust/internal/shard"
	"weboftrust/internal/store"
	"weboftrust/internal/synth"
)

const (
	chaosShards   = 2
	chaosReplicas = 2
	// chaosCooldown is the breaker cooldown every chaos router runs with —
	// short enough that recovery scenarios converge in test time.
	chaosCooldown = 50 * time.Millisecond
)

// chaosReplica is one shard replica behind its own fault injector.
type chaosReplica struct {
	inj *faulty.Injector
	ts  *httptest.Server
}

type chaosCluster struct {
	ref      *httptest.Server // unsharded reference
	reps     [chaosShards][chaosReplicas]*chaosReplica
	shardMap [][]string
	// users holds sample user ids per owning shard, for building
	// shard-targeted query paths.
	users [chaosShards][]int
}

var (
	chaosOnce sync.Once
	chaosFix  *chaosCluster
	chaosErr  error
)

// getChaosCluster builds the shared chaos fixture once: a synth.Small
// log, five server processes (4 shard replicas + the reference), each
// replica wrapped in a passthrough injector. Tests mutate only injector
// fault sets (restored via clearFaults) and build their own routers, so
// sharing the expensive server boots is safe.
func getChaosCluster(t *testing.T) *chaosCluster {
	t.Helper()
	chaosOnce.Do(func() { chaosFix, chaosErr = buildChaosCluster() })
	if chaosErr != nil {
		t.Fatal(chaosErr)
	}
	return chaosFix
}

func buildChaosCluster() (*chaosCluster, error) {
	d, _, err := synth.Generate(synth.Small())
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp("", "chaos")
	if err != nil {
		return nil, err
	}
	logPath := filepath.Join(dir, "events.log")
	f, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	lw := store.NewLogWriter(f)
	if err := store.AppendDataset(lw, d); err != nil {
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}

	c := &chaosCluster{}
	startServer := func(opts ...weboftrust.Option) (*httptest.Server, error) {
		srv, _, err := server.Open(logPath, time.Hour, server.Options{}, opts...)
		if err != nil {
			return nil, err
		}
		return httptest.NewServer(srv.Handler()), nil
	}
	if c.ref, err = startServer(); err != nil {
		return nil, err
	}
	c.shardMap = make([][]string, chaosShards)
	for i := 0; i < chaosShards; i++ {
		for j := 0; j < chaosReplicas; j++ {
			srv, _, err := server.Open(logPath, time.Hour, server.Options{}, weboftrust.WithShard(i, chaosShards))
			if err != nil {
				return nil, err
			}
			inj := faulty.New(uint64(1 + i*chaosReplicas + j))
			ts := httptest.NewServer(inj.Wrap(srv.Handler()))
			c.reps[i][j] = &chaosReplica{inj: inj, ts: ts}
			c.shardMap[i] = append(c.shardMap[i], ts.URL)
		}
	}
	// Sample low user ids per owning shard (low enough that u and u+1 are
	// always in range for every query shape the scenarios build).
	for u := 0; (len(c.users[0]) < 6 || len(c.users[1]) < 6) && u < 100; u++ {
		owner := shard.Owner(u, chaosShards)
		if len(c.users[owner]) < 6 {
			c.users[owner] = append(c.users[owner], u)
		}
	}
	if len(c.users[0]) < 6 || len(c.users[1]) < 6 {
		return nil, fmt.Errorf("chaos fixture: jump hash starved a shard of sample users")
	}
	return c, nil
}

// clearFaults returns every injector to passthrough — registered as a
// cleanup by each chaos test so a failed scenario cannot poison the
// next.
func (c *chaosCluster) clearFaults() {
	for i := range c.reps {
		for j := range c.reps[i] {
			c.reps[i][j].inj.SetFaults()
		}
	}
}

// newChaosRouter builds a fresh router over the shared cluster (fresh
// breakers, fresh metrics) with test-speed failure handling: immediate
// retries, short cooldown.
func newChaosRouter(t *testing.T, c *chaosCluster, mutate func(*router.Config)) *httptest.Server {
	t.Helper()
	cfg := router.Config{
		Shards:          c.shardMap,
		Retries:         3,
		RetryBackoff:    -1, // immediate: scenarios assert outcomes, not pacing
		BreakerCooldown: chaosCooldown,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	rt, err := router.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// chaosGet is fetch plus response headers (the degraded label lives
// there).
func chaosGet(t *testing.T, base, path string) (int, []byte, http.Header) {
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
	return resp.StatusCode, body, resp.Header
}

// metricValue scrapes one counter/gauge from a Prometheus text surface.
func metricValue(t *testing.T, base, name string) int64 {
	t.Helper()
	_, body, _ := chaosGet(t, base, "/metrics")
	for _, line := range strings.Split(string(body), "\n") {
		f := strings.Fields(line)
		if len(f) == 2 && f[0] == name {
			v, err := strconv.ParseInt(f[1], 10, 64)
			if err != nil {
				t.Fatalf("metric %s: parse %q: %v", name, f[1], err)
			}
			return v
		}
	}
	t.Fatalf("metric %s not found on %s/metrics", name, base)
	return 0
}

// chaosPaths builds the per-source sample paths for one shard's users.
func chaosPaths(users []int) []string {
	var paths []string
	for _, u := range users {
		paths = append(paths,
			fmt.Sprintf("/v1/topk?user=%d&k=7", u),
			fmt.Sprintf("/v1/trust?from=%d&to=%d", u, u+1),
			fmt.Sprintf("/v1/neighbors?user=%d", u),
		)
	}
	return paths
}

// TestChaosReplicaKillFailover kills one replica of shard 0 (every
// connection reset — the shape of a killed process) and drives
// concurrent traffic at both shards: every response must stay a fresh
// 200, byte-identical to the unsharded reference, with no degraded
// label — failover is invisible to clients. The replica's breaker must
// trip (observable in /metrics), and after the replica is revived a
// half-open probe must close it again (the recovery counter moves).
func TestChaosReplicaKillFailover(t *testing.T) {
	c := getChaosCluster(t)
	t.Cleanup(c.clearFaults)
	rts := newChaosRouter(t, c, nil)

	c.reps[0][0].inj.SetFaults(faulty.Fault{Probability: 1, Reset: true})

	paths := append(chaosPaths(c.users[0]), chaosPaths(c.users[1])...)
	want := make(map[string][]byte, len(paths))
	for _, p := range paths {
		code, body, _ := chaosGet(t, c.ref.URL, p)
		if code != http.StatusOK {
			t.Fatalf("reference %s: %d", p, code)
		}
		want[p] = body
	}

	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client := &http.Client{}
			for i := 0; i < 3*len(paths); i++ {
				p := paths[(i+w)%len(paths)]
				resp, err := client.Get(rts.URL + p)
				if err != nil {
					errCh <- fmt.Errorf("GET %s: %v", p, err)
					return
				}
				body, rerr := io.ReadAll(resp.Body)
				resp.Body.Close()
				if rerr != nil {
					errCh <- fmt.Errorf("GET %s: read: %v", p, rerr)
					return
				}
				if resp.StatusCode != http.StatusOK {
					errCh <- fmt.Errorf("GET %s: %d %s", p, resp.StatusCode, body)
					return
				}
				if resp.Header.Get(router.DegradedHeader) != "" {
					errCh <- fmt.Errorf("GET %s: unexpectedly degraded (a healthy replica exists)", p)
					return
				}
				if string(body) != string(want[p]) {
					errCh <- fmt.Errorf("GET %s: body diverged from unsharded reference under failover", p)
					return
				}
			}
			errCh <- nil
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		if err != nil {
			t.Fatal(err)
		}
	}

	if trips := metricValue(t, rts.URL, "trustrouter_breaker_trips_total"); trips < 1 {
		t.Fatalf("breaker never tripped for the killed replica: trips=%d", trips)
	}

	// Revive the replica: within a few cooldowns a half-open probe must
	// close its breaker again.
	c.reps[0][0].inj.SetFaults()
	deadline := time.Now().Add(5 * time.Second)
	for metricValue(t, rts.URL, "trustrouter_breaker_recoveries_total") == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("revived replica never recovered (no half-open probe succeeded)")
		}
		for _, p := range chaosPaths(c.users[0]) {
			code, body, _ := chaosGet(t, rts.URL, p)
			if code != http.StatusOK || string(body) != string(want[p]) {
				t.Fatalf("during recovery %s: %d, body match=%v", p, code, string(body) == string(want[p]))
			}
		}
		time.Sleep(chaosCooldown)
	}
	if open := metricValue(t, rts.URL, "trustrouter_breaker_open"); open != 0 {
		t.Fatalf("breaker_open gauge = %d after recovery, want 0", open)
	}
}

// TestChaosSlowReplica makes one replica of shard 0 pathologically slow
// (300ms on every request): the first attempts rotated to it wait out its
// latency, and every body must stay byte-identical to the reference with
// no degraded label — a slow replica costs latency, never correctness.
func TestChaosSlowReplica(t *testing.T) {
	c := getChaosCluster(t)
	t.Cleanup(c.clearFaults)
	rts := newChaosRouter(t, c, nil)

	c.reps[0][0].inj.SetFaults(faulty.Fault{Probability: 1, Latency: 300 * time.Millisecond})

	// Enough sequential shard-0 requests that the replica rotation lands
	// the first attempt on the slow replica several times.
	paths := chaosPaths(c.users[0])
	for round := 0; round < 2; round++ {
		for _, p := range paths {
			wantCode, wantBody, _ := chaosGet(t, c.ref.URL, p)
			gotCode, gotBody, hdr := chaosGet(t, rts.URL, p)
			if gotCode != wantCode || string(gotBody) != string(wantBody) {
				t.Fatalf("%s under slow replica: %d vs ref %d, body match=%v",
					p, gotCode, wantCode, string(gotBody) == string(wantBody))
			}
			if hdr.Get(router.DegradedHeader) != "" {
				t.Fatalf("%s: slow-replica response labeled degraded", p)
			}
		}
	}
}

// TestChaosFlappingReplica gives one replica of shard 0 a coin-flip 503
// (a process stuck in overload, answering but useless): the retry layer
// must absorb every flap — all responses 200, byte-identical, never the
// injected error body, never a degraded label.
func TestChaosFlappingReplica(t *testing.T) {
	c := getChaosCluster(t)
	t.Cleanup(c.clearFaults)
	rts := newChaosRouter(t, c, nil)

	c.reps[0][1].inj.SetFaults(faulty.Fault{Probability: 0.5, Status: http.StatusServiceUnavailable})

	paths := append(chaosPaths(c.users[0]), chaosPaths(c.users[1])...)
	for round := 0; round < 3; round++ {
		for _, p := range paths {
			wantCode, wantBody, _ := chaosGet(t, c.ref.URL, p)
			gotCode, gotBody, hdr := chaosGet(t, rts.URL, p)
			if gotCode != wantCode {
				t.Fatalf("%s under flapping replica: %d (%s), ref %d", p, gotCode, gotBody, wantCode)
			}
			if strings.Contains(string(gotBody), "injected fault") {
				t.Fatalf("%s: the injected 503 body leaked through the retry layer", p)
			}
			if string(gotBody) != string(wantBody) {
				t.Fatalf("%s: body diverged under flapping replica", p)
			}
			if hdr.Get(router.DegradedHeader) != "" {
				t.Fatalf("%s: flap-absorbed response labeled degraded", p)
			}
		}
	}
}

// TestChaosWaitReadyWithHungReplica blackholes one replica of shard 0's
// /readyz (accepts, never answers — the shape of a hung process) and
// asserts that both readiness surfaces still converge: every shard has a
// healthy replica, and WaitReady and the router's /readyz share one
// concurrent probe, so the hung replica burns only its own goroutine's
// wait, never the sweep budget of the replicas behind it.
func TestChaosWaitReadyWithHungReplica(t *testing.T) {
	c := getChaosCluster(t)
	t.Cleanup(c.clearFaults)
	c.reps[0][0].inj.SetFaults(faulty.Fault{PathPrefix: "/readyz", Probability: 1, Blackhole: true})

	rt, err := router.New(router.Config{Shards: c.shardMap})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := rt.WaitReady(ctx); err != nil {
		t.Fatalf("WaitReady with one hung replica: %v (every shard has a healthy replica)", err)
	}
	rts := httptest.NewServer(rt.Handler())
	t.Cleanup(rts.Close)
	code, body, _ := chaosGet(t, rts.URL, "/readyz")
	if code != http.StatusOK || !strings.Contains(string(body), `"ready"`) {
		t.Fatalf("/readyz with one hung replica = %d %s, want 200 ready", code, body)
	}
}

// TestChaosColdStaleReadyzWaiting kills a whole shard behind a router
// with degraded serving enabled but a COLD last-known-good cache:
// /readyz must stay 503 "waiting", because demoting to 200 "degraded"
// is only honest when the cache can actually answer something — an
// empty cache would keep the router in the LB rotation while every
// dead-shard request 502s.
func TestChaosColdStaleReadyzWaiting(t *testing.T) {
	c := getChaosCluster(t)
	t.Cleanup(c.clearFaults)
	rts := newChaosRouter(t, c, func(cfg *router.Config) {
		cfg.StaleEntries = 64
	})

	c.reps[0][0].inj.SetFaults(faulty.Fault{Probability: 1, Reset: true})
	c.reps[0][1].inj.SetFaults(faulty.Fault{Probability: 1, Reset: true})

	code, body, _ := chaosGet(t, rts.URL, "/readyz")
	if code != http.StatusServiceUnavailable || !strings.Contains(string(body), "waiting") {
		t.Fatalf("/readyz with dead shard + empty stale cache = %d %s, want 503 waiting", code, body)
	}
}

// TestChaosExhaustedRetryableCountsUpstreamError pins the metrics
// contract on the terminal-retryable path: when every attempt returns a
// gateway-ish status and no stale fallback exists, the relayed shard
// error is an upstream error, not a proxied success — otherwise
// exhausted requests are invisible in trustrouter_upstream_errors_total
// whenever the dying shard still manages to emit 503s.
func TestChaosExhaustedRetryableCountsUpstreamError(t *testing.T) {
	c := getChaosCluster(t)
	t.Cleanup(c.clearFaults)
	rts := newChaosRouter(t, c, nil)

	c.reps[0][0].inj.SetFaults(faulty.Fault{Probability: 1, Status: http.StatusServiceUnavailable})
	c.reps[0][1].inj.SetFaults(faulty.Fault{Probability: 1, Status: http.StatusServiceUnavailable})

	p := fmt.Sprintf("/v1/topk?user=%d&k=7", c.users[0][0])
	code, body, _ := chaosGet(t, rts.URL, p)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("exhausted retryable attempts: %d (%s), want the shard's own 503 relayed", code, body)
	}
	if v := metricValue(t, rts.URL, "trustrouter_upstream_errors_total"); v < 1 {
		t.Fatalf("upstream_errors_total = %d after exhausting attempts on a 503-only shard, want >= 1", v)
	}
	if v := metricValue(t, rts.URL, "trustrouter_proxied_total"); v != 0 {
		t.Fatalf("proxied_total = %d, want 0 (an exhausted-attempts relay is not a proxied success)", v)
	}
}

// TestChaosShardDeathDegradedServing kills BOTH replicas of shard 0 and
// pins graceful degradation end to end: warmed request URIs serve their
// last known good body as 200 + X-Trustd-Degraded: stale (byte-identical
// to the fresh answer they cached), never-seen URIs get the aggregated
// 502, the other shard keeps serving fresh, /readyz reports degraded
// (not 503 — the router still answers), and after revival fresh serving
// resumes with the degraded label gone.
func TestChaosShardDeathDegradedServing(t *testing.T) {
	c := getChaosCluster(t)
	t.Cleanup(c.clearFaults)
	rts := newChaosRouter(t, c, func(cfg *router.Config) {
		cfg.StaleEntries = 64
	})

	// Warm the last-known-good cache through the router while healthy.
	warm := chaosPaths(c.users[0])[:4]
	want := make(map[string][]byte, len(warm))
	for _, p := range warm {
		code, body, hdr := chaosGet(t, rts.URL, p)
		if code != http.StatusOK {
			t.Fatalf("warmup %s: %d", p, code)
		}
		if hdr.Get(router.DegradedHeader) != "" {
			t.Fatalf("warmup %s labeled degraded", p)
		}
		want[p] = body
	}

	// Total shard loss: both replicas reset every connection.
	c.reps[0][0].inj.SetFaults(faulty.Fault{Probability: 1, Reset: true})
	c.reps[0][1].inj.SetFaults(faulty.Fault{Probability: 1, Reset: true})

	for round := 0; round < 2; round++ {
		for _, p := range warm {
			code, body, hdr := chaosGet(t, rts.URL, p)
			if code != http.StatusOK {
				t.Fatalf("%s with shard dead: %d, want 200 stale (a labeled-degraded path exists)", p, code)
			}
			if hdr.Get(router.DegradedHeader) != "stale" {
				t.Fatalf("%s with shard dead: served without the stale label", p)
			}
			if string(body) != string(want[p]) {
				t.Fatalf("%s: stale body diverged from the fresh body that warmed it", p)
			}
		}
	}
	// A URI the cache never saw cannot be served honestly: the aggregated
	// 502 names every failed attempt.
	coldPath := fmt.Sprintf("/v1/topk?user=%d&k=42", c.users[0][5])
	code, body, _ := chaosGet(t, rts.URL, coldPath)
	if code != http.StatusBadGateway {
		t.Fatalf("uncached URI with shard dead: %d (%s), want 502", code, body)
	}
	if !strings.Contains(string(body), "unavailable after") || !strings.Contains(string(body), "attempts") {
		t.Fatalf("502 body lacks aggregated attempt errors: %s", body)
	}
	// The healthy shard is untouched: fresh, unlabeled, byte-identical.
	for _, p := range chaosPaths(c.users[1])[:3] {
		wantCode, wantBody, _ := chaosGet(t, c.ref.URL, p)
		gotCode, gotBody, hdr := chaosGet(t, rts.URL, p)
		if gotCode != wantCode || string(gotBody) != string(wantBody) || hdr.Get(router.DegradedHeader) != "" {
			t.Fatalf("healthy shard path %s degraded by the other shard's death: %d", p, gotCode)
		}
	}
	// Readiness: degraded, not down.
	code, body, _ = chaosGet(t, rts.URL, "/readyz")
	if code != http.StatusOK || !strings.Contains(string(body), "degraded") {
		t.Fatalf("/readyz with shard dead + stale serving: %d %s, want 200 degraded", code, body)
	}
	if served := metricValue(t, rts.URL, "trustrouter_stale_served_total"); served < int64(2*len(warm)) {
		t.Fatalf("stale_served_total = %d, want >= %d", served, 2*len(warm))
	}
	if entries := metricValue(t, rts.URL, "trustrouter_stale_entries"); entries < int64(len(warm)) {
		t.Fatalf("stale_entries gauge = %d, want >= %d", entries, len(warm))
	}

	// Revival: fresh serving must resume (label gone) within a few
	// breaker cooldowns, byte-identical to the reference.
	c.reps[0][0].inj.SetFaults()
	c.reps[0][1].inj.SetFaults()
	deadline := time.Now().Add(5 * time.Second)
	for {
		p := warm[0]
		code, gotBody, hdr := chaosGet(t, rts.URL, p)
		if code == http.StatusOK && hdr.Get(router.DegradedHeader) == "" {
			if string(gotBody) != string(want[p]) {
				t.Fatalf("%s after revival: fresh body diverged", p)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("shard revived but router kept serving degraded (last: %d, label=%q)",
				code, hdr.Get(router.DegradedHeader))
		}
		time.Sleep(chaosCooldown)
	}
	// readyz back to plain ready.
	deadline = time.Now().Add(5 * time.Second)
	for {
		code, body, _ := chaosGet(t, rts.URL, "/readyz")
		if code == http.StatusOK && strings.Contains(string(body), "ready") && !strings.Contains(string(body), "degraded") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("/readyz never returned to ready after revival: %d %s", code, body)
		}
		time.Sleep(chaosCooldown)
	}
}
