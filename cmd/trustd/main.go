// Command trustd serves derived trust over HTTP and keeps itself fresh by
// tailing an append-only event log.
//
// Usage:
//
//	trustd serve   -log events.log [-addr :8080] [-shard i/N] [-poll 500ms] [-cache-results 512]
//	               [-workers N] [-checkpoint-dir DIR] [-checkpoint-interval 5m] [-checkpoint-keep 2]
//	               [-web-tau T] [-web-cold-generosity K] [-max-inflight N]
//	               [-landmarks L] [-pprof-addr :6060]
//	trustd serve   -snapshot data.wot [-addr :8080]            (static serving)
//	trustd route   -shards URL,URL,... [-addr :8090] [-timeout 5s] [-retries 1] [-wait-ready 30s]
//	               [-retry-backoff 25ms] [-breaker-threshold 5] [-breaker-cooldown 1s]
//	               [-stale-entries N]
//	trustd chaosproxy -target URL [-addr :8095] [-latency-p P] [-error-p P] [-blackhole-p P] [-reset-p P]
//
// With -shard i/N the daemon serves shard i of an N-way source-partitioned
// cluster: it replays the same log and keeps the same complete model as
// every other shard, answers for the source users the cluster's
// consistent hash assigns it, and replies 421 for sources it does not
// own. `trustd route` fronts such a cluster as one endpoint: a stateless
// proxy that hashes each request's source user to its owning shard
// (replicas of one shard separated by '|', shards separated by ','), and
// is ready only once every shard is.
//
// The route tier fails gracefully (DESIGN.md §12): first attempts rotate
// across a shard's replicas skipping tripped circuit breakers
// (-breaker-threshold consecutive failures open a replica for
// -breaker-cooldown, then one half-open probe), transient failures retry
// with jittered exponential backoff (-retry-backoff base), and with
// -stale-entries set a fully unreachable shard serves its last known good
// responses marked X-Trustd-Degraded: stale instead of 502. On the shard
// side -max-inflight bounds concurrently served compute queries, shedding
// the excess with 429 + Retry-After. `trustd chaosproxy` fronts any shard
// with a deterministic fault injector (latency, error statuses,
// blackholes, connection resets) so all of the above can be rehearsed
// against a real cluster.
//
// The daemon binds its listen address BEFORE booting: while the replay or
// checkpoint restore runs, /healthz answers 200 (liveness), /readyz answers
// 503, and queries answer 503 — so orchestrators see a live, not-yet-ready
// process instead of connection refused. /readyz flips to 200 once the boot
// model is swapped in at the log offset observed at boot.
//
// In log mode the daemon boots warm when -checkpoint-dir holds a usable
// checkpoint: the persisted model is restored and only the log suffix
// past its offset is replayed through the incremental pipeline, so
// startup cost is O(checkpoint load + tail) instead of O(whole history).
// Without a usable checkpoint it replays the whole log (tolerating a torn
// final record from a crashed writer) and derives from scratch. Either
// way it then polls for appended events: each batch is folded in with the
// incremental pipeline update and swapped in atomically, so queries never
// block on ingest and always see a complete, consistent model. With
// -checkpoint-dir set the daemon also writes a fresh checkpoint every
// -checkpoint-interval (skipping idle intervals) and once more on
// SIGTERM, keeping the newest -checkpoint-keep files.
//
// The daemon also derives, incrementally maintains and serves the
// binarised web of trust: by default users select their top ⌈k_i·n_i⌉
// derived connections (the paper's per-user-generosity protocol;
// -web-cold-generosity gives users who cannot calibrate a k_i a fallback),
// or -web-tau switches to a global score threshold. /v1/neighbors lists a
// user's predicted-trust edges, /v1/propagate ranks transitive trust over
// the graph with an exact traversal (?approx=landmark answers from the
// landmark-hub sketches instead, labelled as approximate), /v1/rank
// serves the global EigenTrust leaderboard (solved cold over each served
// model, so every replica at one log offset serves the same bytes), and
// /v1/graph/stats reports the graph's shape.
//
// Endpoints: /v1/topk?user=U&k=K, /v1/trust?from=I&to=J,
// /v1/expertise?user=U, /v1/neighbors?user=U,
// /v1/propagate?algo=appleseed|moletrust|tidaltrust&user=U&k=K[&approx=landmark],
// /v1/rank[?k=K | ?user=U], /v1/graph/stats, /v1/stats, /healthz, /readyz,
// /metrics (Prometheus text).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/httputil"
	"net/http/pprof"
	"net/url"
	"os"
	"os/signal"
	"syscall"
	"time"

	"weboftrust"
	"weboftrust/internal/faulty"
	"weboftrust/internal/router"
	"weboftrust/internal/server"
	"weboftrust/internal/shard"
	"weboftrust/internal/store"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "trustd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: trustd <serve|route|chaosproxy> [flags]")
	}
	switch args[0] {
	case "serve":
		return cmdServe(args[1:])
	case "route":
		return cmdRoute(args[1:])
	case "chaosproxy":
		return cmdChaosProxy(args[1:])
	default:
		return fmt.Errorf("unknown subcommand %q", args[0])
	}
}

func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	logPath := fs.String("log", "", "event log to replay and tail")
	snapshot := fs.String("snapshot", "", "snapshot to serve statically (alternative to -log)")
	poll := fs.Duration("poll", server.DefaultPoll, "event log polling interval")
	cacheResults := fs.Int("cache-results", server.DefaultCacheResults, "ranked top-k result LRU capacity (-1 disables)")
	cacheBytes := fs.Int64("cache-bytes", server.DefaultCacheBytes, "result cache byte budget (-1 unbounded)")
	workers := fs.Int("workers", 0, "pipeline worker goroutines for derive and ingest (0 = one per CPU)")
	ckptDir := fs.String("checkpoint-dir", "", "directory for warm-restart checkpoints (restore at boot, write periodically and on shutdown)")
	ckptInterval := fs.Duration("checkpoint-interval", server.DefaultCheckpointInterval, "periodic checkpoint cadence")
	ckptKeep := fs.Int("checkpoint-keep", server.DefaultCheckpointKeep, "recent checkpoints to retain")
	webTau := fs.Float64("web-tau", -1, "binarise the web of trust with a global score threshold instead of per-user top-k generosity (-1 = per-user top-k)")
	webColdK := fs.Float64("web-cold-generosity", 0, "generosity fallback for users whose history cannot calibrate one (per-user top-k policy; 0 = paper protocol)")
	landmarks := fs.Int("landmarks", 0, "landmark hubs for the ?approx=landmark propagation mode (0 = default 16; negative disables)")
	shardFlag := fs.String("shard", "", "serve shard i/N of a source-partitioned cluster (e.g. 1/3; empty = unsharded)")
	maxInFlight := fs.Int("max-inflight", 0, "bound concurrently served compute queries; excess is shed with 429 + Retry-After (0 = unbounded)")
	pprofAddr := fs.String("pprof-addr", "", "serve net/http/pprof on this address (own listener, never the serving mux; empty = disabled)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if (*logPath == "") == (*snapshot == "") {
		return fmt.Errorf("serve: exactly one of -log or -snapshot is required")
	}
	if *workers < 0 {
		return fmt.Errorf("serve: -workers %d < 0", *workers)
	}
	if *ckptDir != "" && *logPath == "" {
		return fmt.Errorf("serve: -checkpoint-dir requires -log (snapshots already boot from durable state)")
	}
	if *ckptInterval <= 0 {
		return fmt.Errorf("serve: -checkpoint-interval %v must be positive (only the SIGTERM flush cannot be disabled)", *ckptInterval)
	}
	if *ckptKeep < 1 {
		return fmt.Errorf("serve: -checkpoint-keep %d < 1", *ckptKeep)
	}
	if *maxInFlight < 0 {
		return fmt.Errorf("serve: -max-inflight %d < 0", *maxInFlight)
	}
	opts := server.Options{
		CacheResults: *cacheResults, CacheBytes: *cacheBytes, MaxInFlight: *maxInFlight,
		Landmarks: *landmarks,
	}
	derive := []weboftrust.Option{weboftrust.WithWorkers(*workers)}
	if *webTau >= 0 {
		derive = append(derive, weboftrust.WithWebThreshold(*webTau))
	}
	if *webColdK != 0 {
		derive = append(derive, weboftrust.WithWebColdStartGenerosity(*webColdK))
	}
	if *shardFlag != "" {
		sp, err := shard.Parse(*shardFlag)
		if err != nil {
			return fmt.Errorf("serve: %w", err)
		}
		derive = append(derive, weboftrust.WithShard(sp.Index, sp.Count))
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// The profiling surface gets its OWN mux and listener, explicitly
	// gated behind -pprof-addr: the serving mux must never expose
	// /debug/pprof (heap dumps and CPU profiles are not for the query
	// port), and the default off keeps production surfaces minimal. With
	// it on, the anomaly scoring and landmark builds a swap warms can be
	// profiled in situ (`go tool pprof http://host:port/debug/pprof/profile`).
	if *pprofAddr != "" {
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			return fmt.Errorf("serve: pprof listen: %w", err)
		}
		defer pln.Close()
		pprofMux := http.NewServeMux()
		pprofMux.HandleFunc("/debug/pprof/", pprof.Index)
		pprofMux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pprofMux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pprofMux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pprofMux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() { _ = http.Serve(pln, pprofMux) }()
		fmt.Fprintf(os.Stderr, "trustd: pprof on %s\n", pln.Addr())
	}

	// Bind and serve BEFORE booting: the pending server answers liveness
	// 200 / readiness 503 / query 503 while the (possibly long) replay or
	// restore runs, so routers and orchestrators see a live process, never
	// connection refused.
	srv := server.NewPending(opts)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "trustd: listening on %s (booting)\n", ln.Addr())

	tailErr := make(chan error, 1)
	var ckptDone chan error
	if *logPath != "" {
		_, tailer, info, err := server.OpenCheckpointedInto(srv, *logPath, *ckptDir, *poll, opts, derive...)
		if err != nil {
			httpSrv.Close()
			return err
		}
		// Readiness gates on the offset the boot reached: a shard still
		// replaying backlog past this point reports catching-up, not ready.
		srv.SetReadyTarget(info.Offset)
		go func() { tailErr <- tailer.Run(ctx) }()
		if info.Warm {
			fmt.Fprintf(os.Stderr, "trustd: warm boot from %s (offset %d), tailed %d events to offset %d, tailing every %v\n",
				info.CheckpointPath, info.CheckpointOffset, info.TailedEvents, info.Offset, *poll)
		} else {
			fmt.Fprintf(os.Stderr, "trustd: replayed %s to offset %d, tailing every %v\n", *logPath, info.Offset, *poll)
			if info.FallbackReason != "" {
				fmt.Fprintf(os.Stderr, "trustd: cold boot: %s\n", info.FallbackReason)
			}
		}
		if *shardFlag != "" {
			model, _, _ := srv.Current()
			idx, count := model.ShardSpec()
			numU := model.Dataset().NumUsers()
			fmt.Fprintf(os.Stderr, "trustd: serving shard %d/%d (%d of %d users owned)\n",
				idx, count, shard.Spec{Index: idx, Count: count}.CountOwned(numU), numU)
		}
		if *ckptDir != "" {
			ck := server.NewCheckpointer(srv, *ckptDir, *ckptInterval, *ckptKeep)
			ckptDone = make(chan error, 1)
			go func() { ckptDone <- ck.Run(ctx) }()
			fmt.Fprintf(os.Stderr, "trustd: checkpointing to %s every %v (keep %d)\n", *ckptDir, *ckptInterval, *ckptKeep)
		}
	} else {
		f, err := os.Open(*snapshot)
		if err != nil {
			httpSrv.Close()
			return err
		}
		d, err := store.ReadSnapshot(f)
		f.Close()
		if err != nil {
			httpSrv.Close()
			return err
		}
		model, err := weboftrust.Derive(d, derive...)
		if err != nil {
			httpSrv.Close()
			return err
		}
		srv.Swap(model, 0)
		fmt.Fprintf(os.Stderr, "trustd: serving snapshot %s (%v)\n", *snapshot, d)
	}

	// awaitCheckpointer waits for the shutdown flush so process death
	// never costs the events ingested since the last periodic write.
	awaitCheckpointer := func() error {
		if ckptDone == nil {
			return nil
		}
		if err := <-ckptDone; err != nil && !errors.Is(err, context.Canceled) {
			return fmt.Errorf("final checkpoint: %w", err)
		}
		return nil
	}

	select {
	case <-ctx.Done():
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		err := httpSrv.Shutdown(shutdownCtx)
		if ckErr := awaitCheckpointer(); err == nil {
			err = ckErr
		}
		return err
	case err := <-serveErr:
		stop()
		if ckErr := awaitCheckpointer(); ckErr != nil {
			fmt.Fprintln(os.Stderr, "trustd:", ckErr)
		}
		return err
	case err := <-tailErr:
		httpSrv.Close()
		stop()
		if ckErr := awaitCheckpointer(); ckErr != nil {
			fmt.Fprintln(os.Stderr, "trustd:", ckErr)
		}
		if errors.Is(err, context.Canceled) {
			return nil
		}
		return fmt.Errorf("tailer stopped: %w", err)
	}
}

// cmdRoute runs the stateless cluster router: one address fronting every
// shard of a source-partitioned deployment.
func cmdRoute(args []string) error {
	fs := flag.NewFlagSet("route", flag.ContinueOnError)
	addr := fs.String("addr", ":8090", "listen address")
	shards := fs.String("shards", "", "shard map in hash order: shards separated by ',', replicas of one shard by '|' (e.g. http://a:1|http://a2:1,http://b:2)")
	timeout := fs.Duration("timeout", router.DefaultTimeout, "end-to-end budget for one proxied request, across retries")
	retries := fs.Int("retries", router.DefaultRetries, "extra replica attempts after a transport error or 502/503/504 (0 = no retries)")
	maxIdle := fs.Int("max-idle-conns", router.DefaultMaxIdleConnsPerHost, "pooled connections kept per replica")
	waitReady := fs.Duration("wait-ready", 0, "block until every shard reports ready before serving (0 = serve immediately)")
	retryBackoff := fs.Duration("retry-backoff", router.DefaultRetryBackoff, "base pause before a retry, doubled per attempt with jitter (0 = retry immediately)")
	breakerThreshold := fs.Int("breaker-threshold", router.DefaultBreakerThreshold, "consecutive failures that trip a replica's circuit breaker (0 = disable breakers)")
	breakerCooldown := fs.Duration("breaker-cooldown", router.DefaultBreakerCooldown, "rest before a tripped replica gets a half-open probe")
	staleEntries := fs.Int("stale-entries", 0, "last-known-good responses to cache for degraded serving when a whole shard is down, marked "+router.DegradedHeader+" (0 = disabled, serve 502)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *shards == "" {
		return fmt.Errorf("route: -shards is required")
	}
	shardMap, err := router.ParseShards(*shards)
	if err != nil {
		return err
	}
	cfg := router.Config{
		Shards:              shardMap,
		Timeout:             *timeout,
		MaxIdleConnsPerHost: *maxIdle,
		BreakerCooldown:     *breakerCooldown,
		StaleEntries:        *staleEntries,
	}
	// These flags say the literal value; the configs' 0 means "default",
	// so map an explicit 0 to the configs' "disabled".
	if *retries == 0 {
		cfg.Retries = -1
	} else {
		cfg.Retries = *retries
	}
	if *retryBackoff == 0 {
		cfg.RetryBackoff = -1
	} else {
		cfg.RetryBackoff = *retryBackoff
	}
	if *breakerThreshold == 0 {
		cfg.BreakerThreshold = -1
	} else {
		cfg.BreakerThreshold = *breakerThreshold
	}
	rt, err := router.New(cfg)
	if err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *waitReady > 0 {
		wctx, cancel := context.WithTimeout(ctx, *waitReady)
		err := rt.WaitReady(wctx)
		cancel()
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "trustd: all %d shards ready\n", rt.NumShards())
	}

	httpSrv := &http.Server{Addr: *addr, Handler: rt.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "trustd: routing %d shards on %s\n", rt.NumShards(), *addr)

	select {
	case <-ctx.Done():
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		return httpSrv.Shutdown(shutdownCtx)
	case err := <-serveErr:
		return err
	}
}

// cmdChaosProxy runs a fault-injecting reverse proxy in front of one
// trustd process: point a router replica at the proxy instead of the
// shard and the cluster's failure handling can be exercised against a
// real deployment — added latency, injected gateway errors, blackholed
// requests and abrupt connection resets, each with its own probability,
// drawn from a deterministic seeded sequence.
func cmdChaosProxy(args []string) error {
	fs := flag.NewFlagSet("chaosproxy", flag.ContinueOnError)
	addr := fs.String("addr", ":8095", "listen address")
	target := fs.String("target", "", "base URL of the trustd process to front (required)")
	match := fs.String("match", "", "restrict faults to request paths with this prefix (empty = all)")
	seed := fs.Uint64("seed", 1, "deterministic fault-draw seed")
	latency := fs.Duration("latency", 50*time.Millisecond, "latency added by a drawn latency fault")
	latencyP := fs.Float64("latency-p", 0, "probability a request draws the latency fault")
	errStatus := fs.Int("error-status", http.StatusServiceUnavailable, "status served by a drawn error fault")
	errP := fs.Float64("error-p", 0, "probability a request draws the error fault")
	blackholeP := fs.Float64("blackhole-p", 0, "probability a request is accepted and never answered")
	resetP := fs.Float64("reset-p", 0, "probability a request's connection is reset abruptly")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *target == "" {
		return fmt.Errorf("chaosproxy: -target is required")
	}
	tu, err := url.Parse(*target)
	if err != nil || tu.Scheme == "" || tu.Host == "" {
		return fmt.Errorf("chaosproxy: -target %q is not an absolute URL", *target)
	}
	for name, p := range map[string]float64{"latency-p": *latencyP, "error-p": *errP, "blackhole-p": *blackholeP, "reset-p": *resetP} {
		if p < 0 || p > 1 {
			return fmt.Errorf("chaosproxy: -%s %g outside [0, 1]", name, p)
		}
	}
	// Destructive faults first so the latency fault cannot shadow them;
	// each request draws at most one fault.
	var faults []faulty.Fault
	if *resetP > 0 {
		faults = append(faults, faulty.Fault{PathPrefix: *match, Probability: *resetP, Reset: true})
	}
	if *blackholeP > 0 {
		faults = append(faults, faulty.Fault{PathPrefix: *match, Probability: *blackholeP, Blackhole: true})
	}
	if *errP > 0 {
		faults = append(faults, faulty.Fault{PathPrefix: *match, Probability: *errP, Status: *errStatus})
	}
	if *latencyP > 0 {
		faults = append(faults, faulty.Fault{PathPrefix: *match, Probability: *latencyP, Latency: *latency})
	}
	injector := faulty.New(*seed, faults...)
	proxy := httputil.NewSingleHostReverseProxy(tu)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	httpSrv := &http.Server{Addr: *addr, Handler: injector.Wrap(proxy)}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "trustd: chaosproxy %s -> %s (%d fault rules, seed %d)\n", *addr, *target, len(faults), *seed)

	select {
	case <-ctx.Done():
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		err := httpSrv.Shutdown(shutdownCtx)
		c := injector.Counts()
		fmt.Fprintf(os.Stderr, "trustd: chaosproxy injected: %d delayed, %d errored, %d blackholed, %d reset (%d passed)\n",
			c.Delayed, c.Errored, c.Blackholed, c.Resets, c.Passed)
		return err
	case err := <-serveErr:
		return err
	}
}
