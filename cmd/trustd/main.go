// Command trustd serves derived trust over HTTP and keeps itself fresh by
// tailing an append-only event log.
//
// Usage:
//
//	trustd serve   -log events.log [-addr :8080] [-shard i/N] [-poll 500ms] [-cache-results 512]
//	               [-cache-bytes B] [-workers N] [-checkpoint-dir DIR] [-checkpoint-interval 5m]
//	               [-checkpoint-keep 2] [-web-tau T] [-web-cold-generosity K] [-max-inflight N]
//	               [-landmarks L] [-pprof-addr :6060]
//	trustd route   -shards URL,URL,... [-addr :8090] [-timeout 5s] [-retries 1] [-wait-ready 30s]
//	               [-breaker-cooldown 1s] [-stale-entries N]
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
// The route tier fails gracefully (DESIGN.md §12): every request, per-source
// or fanned out to all shards, reaches a shard through one attempt loop.
// First attempts rotate across a shard's replicas skipping tripped circuit
// breakers (5 consecutive failures open a replica for -breaker-cooldown,
// then the router probes the replica's /readyz itself), transient failures
// retry with jittered exponential backoff (25ms base), each attempt waits
// at most -timeout for response headers, and with -stale-entries set a
// fully unreachable shard serves its last known good responses marked
// X-Trustd-Degraded: stale instead of 502. On the shard side -max-inflight
// bounds concurrently served compute queries, shedding the excess with
// 429 + Retry-After.
//
// The daemon binds its listen address BEFORE booting: while the replay or
// checkpoint restore runs, /healthz answers 200 (liveness), /readyz answers
// 503, and queries answer 503 — so orchestrators see a live, not-yet-ready
// process instead of connection refused. /readyz flips to 200 once the boot
// model is swapped in at the log offset observed at boot.
//
// The daemon boots through checkpoint.Load, the path `trustctl checkpoint`
// and `trustctl compact` take too. It boots warm when -checkpoint-dir
// holds a usable checkpoint: the persisted model is restored and only the
// log suffix past its offset is replayed through the incremental
// pipeline, so startup cost is O(checkpoint load + tail) instead of
// O(whole history). Without a usable checkpoint it replays the whole log
// (tolerating a torn final record from a crashed writer) and derives from
// scratch (`trustctl generate -out events.log` writes a log to serve).
// Either way it then polls for appended events: each batch is folded in
// with the incremental pipeline update and swapped in atomically, so
// queries never block on ingest and always see a complete, consistent
// model. With -checkpoint-dir set the daemon also writes a fresh
// checkpoint every -checkpoint-interval (skipping idle intervals) and
// once more on SIGTERM, keeping the newest -checkpoint-keep files.
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
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"weboftrust"
	"weboftrust/internal/router"
	"weboftrust/internal/server"
	"weboftrust/internal/shard"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "trustd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: trustd <serve|route> [flags]")
	}
	switch args[0] {
	case "serve":
		return cmdServe(args[1:])
	case "route":
		return cmdRoute(args[1:])
	default:
		return fmt.Errorf("unknown subcommand %q", args[0])
	}
}

func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	logPath := fs.String("log", "", "event log to replay and tail")
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
	if *logPath == "" {
		return fmt.Errorf("serve: -log is required")
	}
	if *workers < 0 {
		return fmt.Errorf("serve: -workers %d < 0", *workers)
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

	_, tailer, info, err := server.OpenCheckpointedInto(srv, *logPath, *ckptDir, *poll, opts, derive...)
	if err != nil {
		httpSrv.Close()
		return err
	}
	// Readiness gates on the offset the boot reached: a shard still
	// replaying backlog past this point reports catching-up, not ready.
	srv.SetReadyTarget(info.Offset)
	tailErr := make(chan error, 1)
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
	var ckptDone chan error
	if *ckptDir != "" {
		ck := server.NewCheckpointer(srv, *ckptDir, *ckptInterval, *ckptKeep)
		ckptDone = make(chan error, 1)
		go func() { ckptDone <- ck.Run(ctx) }()
		fmt.Fprintf(os.Stderr, "trustd: checkpointing to %s every %v (keep %d)\n", *ckptDir, *ckptInterval, *ckptKeep)
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
	timeout := fs.Duration("timeout", router.DefaultTimeout, "per-attempt wait for a replica's response headers; a request makes up to 1+retries attempts with backoff between them, so it can take (1+retries)×timeout plus backoff")
	retries := fs.Int("retries", router.DefaultRetries, "extra replica attempts after a transport error or 502/503/504 (0 = no retries)")
	waitReady := fs.Duration("wait-ready", 0, "block until every shard reports ready before serving (0 = serve immediately)")
	breakerCooldown := fs.Duration("breaker-cooldown", router.DefaultBreakerCooldown, "rest before the router probes a tripped replica's /readyz")
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
		Shards:          shardMap,
		Timeout:         *timeout,
		Retries:         *retries,
		BreakerCooldown: *breakerCooldown,
		StaleEntries:    *staleEntries,
	}
	// -retries says the literal value; the config's 0 means "default",
	// so map an explicit 0 to the config's "disabled".
	if *retries == 0 {
		cfg.Retries = -1
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
