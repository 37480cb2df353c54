GO ?= go
BENCH_COUNT ?= 5
FUZZTIME ?= 10s
# BENCH_FILTER is the benchmark list bench records and bench-smoke runs;
# scripts/bench_filter.txt holds it for both (and for scripts/bench.sh).
BENCH_FILTER ?= $(shell cat scripts/bench_filter.txt)

.PHONY: build test race bench bench-smoke bench-guard attack-smoke cluster-smoke chaos-smoke fuzz-smoke

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

race: build
	$(GO) test -race ./...

# bench runs the pipeline, incremental-update and serving benchmarks with
# -benchmem in $(BENCH_COUNT) interleaved passes (each pass times every
# benchmark once) and records the parsed results in $(BENCH_OUT)
# alongside the machine's shape. BENCH_OUT has no default:
# name the file per change, e.g. make bench BENCH_OUT=BENCH_pr16.json.
bench:
	BENCH_COUNT=$(BENCH_COUNT) BENCH_FILTER='$(BENCH_FILTER)' ./scripts/bench.sh $(BENCH_OUT)

# bench-smoke is the CI guard: every benchmark bench records must still
# compile and complete one iteration.
bench-smoke:
	$(GO) test -run '^$$' -bench '$(BENCH_FILTER)' -benchtime 1x .

# bench-guard fails if the serving hot paths' or the warm restart's
# allocs/op regress above their recorded baselines (cached /v1/topk hit vs
# BENCH_pr3.json, cached /v1/propagate hit vs BENCH_pr10.json, checkpoint
# restore vs BENCH_pr26.json), or if a gated benchmark's time
# as a multiple of BenchmarkPipelineRun/workers=1 grows over 1.25× its
# multiple in the baseline: BenchmarkIngestSwap vs BENCH_pr16.json,
# BenchmarkPropagateExact/tidaltrust vs BENCH_pr21.json,
# BenchmarkIngestSwapWarm (a tick plus the warm its swap runs after
# publishing) and BenchmarkServerPropagateMiss vs BENCH_pr22.json.
bench-guard:
	./scripts/check_allocs.sh

# attack-smoke runs the adversarial seed scenario corpus: the Go harness
# under the race detector (pinned resistance assertions in
# internal/adversary), then the trustctl attack CLI over scenarios/ to
# render the resistance tables and emit attack-report.json — the
# artifact CI archives for trend tracking. A final run replays the
# collusion-ring scenario with propagation measured through 16-landmark
# sketches (the ?approx=landmark serving mode), so attack signals are
# pinned to survive the approximation. Any failing assertion path fails
# the target.
attack-smoke:
	$(GO) test -race -count=1 -run 'TestSeedCorpus' ./internal/adversary
	$(GO) run ./cmd/trustctl attack -dir scenarios -json attack-report.json
	$(GO) run ./cmd/trustctl attack -scenario scenarios/collusion-ring.json -landmarks 16 -json attack-report-approx.json

# cluster-smoke boots a real 3-shard cluster behind the consistent-hash
# router next to an unsharded reference, checks routed responses are
# byte-identical, sends a burst of routed /v1/topk requests none of which
# may answer an error status, and tears the cluster down.
cluster-smoke:
	./scripts/cluster_smoke.sh

# chaos-smoke drives the in-process chaos harness under the race
# detector: a 2-shard × 2-replica cluster with per-replica fault
# injection (kill/restart, slow replica, flapping replica, total shard
# death, a hung replica behind every fan-out endpoint) where every
# response must be byte-identical to the unsharded reference or
# explicitly labeled degraded. Includes the fault
# injector's and failure-layer unit tests, and 50 race-detector runs of
# the result-cache tests and of the post-publish warm's lifecycle tests:
# a scheduling flake seen in 4 of 100 single runs shows up in one run
# about 4% of the time, in 50 runs about 87%.
chaos-smoke:
	$(GO) test -race -count=1 -run 'TestChaos|TestBreaker|TestAdmission|TestTailer' ./internal/router ./internal/server
	$(GO) test -race -count=1 ./internal/faulty
	$(GO) test -race -count=50 -run 'TestResultCache|TestOversizedKSharesOneEntry|TestLeaderPanic|TestSingleflight|TestWarmDemandSurvivesReplacedState|TestReadsRacingWarmMatchCold' ./internal/server

# fuzz-smoke gives each binary-decoder fuzz target (the event log and the
# checkpoint bundle, whose target re-seals each input's checksum so that
# mutations reach the section decoders; plus the graph constructor's edge
# validation) a short adversarial run ($(FUZZTIME) apiece); a panic or
# over-allocation fails CI. go test accepts one -fuzz
# pattern per package invocation, hence one run per target.
# -fuzzminimizetime 100x caps the work spent minimising each new input at
# 100 executions: at the default (60 s, longer than the whole run) one
# early find could stall a target at 0 execs/s for the rest of its budget.
# A crash still fails the run; it is only minimised less.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz 'FuzzLogReader$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 100x ./internal/store
	$(GO) test -run '^$$' -fuzz 'FuzzReadCheckpoint$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 100x ./internal/checkpoint
	$(GO) test -run '^$$' -fuzz 'FuzzGraphNew$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 100x ./internal/graph
