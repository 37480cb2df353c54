#!/usr/bin/env bash
# check_allocs.sh is the CI bench guard. It fails if the serving hot
# path's or the checkpoint restore's allocs/op regress above their
# recorded baselines, or if the
# ingest tick's (bare or warming what queries forced), the propagate
# miss's or the exact TidalTrust vector's time regresses against the
# pipeline, so no win can silently erode as the serving surface grows.
# Guarded:
#   BenchmarkServerTopK      allocs/op vs BENCH_pr3.json  (34 — pooled
#                            scratch + heap selection)
#   BenchmarkServerPropagate allocs/op vs BENCH_pr10.json (cached propagate
#                            hit — the path every repeated propagate query
#                            takes)
#   BenchmarkWarmRestart     allocs/op vs BENCH_pr26.json plus 1% (a
#                            boot that restores a Medium checkpoint: one
#                            in-memory decode, no allocation per varint).
#                            Its figure moves with the garbage collector's
#                            pace, since each cycle empties the sync.Pools
#                            the boot refills: 3,116 in make bench's suite
#                            run, 3,119–3,120 run alone at 200 iterations.
#                            An allocation per decoded varint adds about
#                            16,700 (19,798–19,799 in all).
#   BenchmarkIngestSwap      ns/op as a multiple of the in-run reference
#                            BenchmarkPipelineRun/workers=1, vs the multiple
#                            in BENCH_pr16.json. Both run on one runner in
#                            5 adjacent pairs of 20 iterations, so the
#                            runner's speed cancels; the ratio of medians
#                            may grow by at most 1.25×.
#   BenchmarkIngestSwapWarm  ns/op against the same reference under the
#                            same rule, vs BENCH_pr22.json: the tick of a
#                            daemon whose rank, anomaly scores and
#                            appleseed landmark sketch were queried, so
#                            every swap rebuilds them after it publishes;
#                            each iteration waits for that warm, so the
#                            gate still times the rebuild.
#   BenchmarkServerPropagateMiss
#                            ns/op against the same reference under the
#                            same rule, vs BENCH_pr22.json: an uncached
#                            Appleseed /v1/propagate.
#   BenchmarkPropagateExact/tidaltrust
#                            ns/op against the same reference under the
#                            same rule, vs BENCH_pr21.json: one exact
#                            TidalTrust vector (one BFS and one forward
#                            pass per source).
#
# Usage: scripts/check_allocs.sh
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# recorded FILE NAME FIELD prints every FIELD figure (allocs_per_op,
# ns_per_op) recorded for Benchmark$NAME in a BENCH JSON file.
recorded() {
	grep -o "\"name\": \"Benchmark$2\"[^}]*" "$1" | grep -o "\"$3\": [0-9]*" | awk '{print $2}'
}

# guard NAME BASELINE_FILE [SLACK] — measure Benchmark$NAME (anchored)
# over 200 iterations and compare its allocs/op against the lowest figure
# recorded for it in the baseline, plus SLACK percent of it (default 0).
guard() {
	local name="$1" baseline_file="$2" slack="${3:-0}" baseline limit current
	baseline="$(recorded "$baseline_file" "$name" allocs_per_op | sort -n | head -1)"
	if [ -z "$baseline" ]; then
		echo "check_allocs: no Benchmark${name} baseline in $baseline_file" >&2
		return 2
	fi
	current="$(go test -run '^$' -bench "${name}\$" -benchmem -benchtime 200x . |
		awk -v b="^Benchmark${name}(-[0-9]+)?[ \t]" '$0 ~ b {print $(NF-1)}')"
	if [ -z "$current" ]; then
		echo "check_allocs: Benchmark${name} produced no allocs/op figure" >&2
		return 2
	fi
	limit=$((baseline + baseline * slack / 100))
	echo "Benchmark${name} allocs/op: current=$current baseline=$baseline limit=$limit"
	if [ "$current" -gt "$limit" ]; then
		echo "check_allocs: FAIL — Benchmark${name} allocs/op regressed above the $baseline_file baseline" >&2
		return 1
	fi
}

# median prints the median of the numbers on stdin, one per line; blank
# lines are skipped.
median() {
	sort -n | awk 'NF {v[++n] = $1} END {if (n) print v[int((n + 1) / 2)]}'
}

# measured_ns BINARY PATTERN prints the ns/op of one run of the benchmarks
# PATTERN selects (one benchmark) from a compiled test binary.
measured_ns() {
	"$1" -test.run '^$' -test.bench "$2" -test.benchtime 20x -test.timeout 10m |
		awk '/^Benchmark/ && / ns\/op/ {print $3}'
}

# time_guard NAME REF BASELINE_FILE — time Benchmark$NAME against the
# reference Benchmark$REF (TOP/SUB) in 5 adjacent pairs from one test
# binary, and fail if NAME's median ns/op as a multiple of REF's exceeds
# the multiple recorded in the baseline by more than 1.25×. Both run at
# the default GOMAXPROCS, as the baseline's did; a runner with more CPUs
# than the recording host only lowers NAME's multiple.
time_guard() {
	local name="$1" ref="$2" baseline_file="$3" slack=1.25
	local base bin i a r cur name_ns ref_ns
	bin="$tmp/bench.test"
	base="$(awk -v n="$(recorded "$baseline_file" "$name" ns_per_op | median)" \
		-v r="$(recorded "$baseline_file" "$ref" ns_per_op | median)" \
		'BEGIN {if (n > 0 && r > 0) printf "%.3f", n / r}')"
	if [ -z "$base" ]; then
		echo "check_allocs: no Benchmark${name} / Benchmark${ref} ns/op baseline in $baseline_file" >&2
		return 2
	fi
	[ -x "$bin" ] || go test -c -o "$bin" .
	# Each call keeps its own timings, so its medians see no other gate's.
	name_ns="$(mktemp "$tmp/name.XXXXXX")"
	ref_ns="$(mktemp "$tmp/ref.XXXXXX")"
	for i in 1 2 3 4 5; do
		measured_ns "$bin" "^Benchmark${name}\$" >>"$name_ns"
		measured_ns "$bin" "^Benchmark${ref%%/*}\$/^${ref#*/}\$" >>"$ref_ns"
	done
	a="$(median <"$name_ns")"
	r="$(median <"$ref_ns")"
	if [ -z "$a" ] || [ -z "$r" ]; then
		echo "check_allocs: Benchmark${name} or Benchmark${ref} produced no ns/op figure" >&2
		return 2
	fi
	cur="$(awk -v a="$a" -v r="$r" 'BEGIN {printf "%.3f", a / r}')"
	echo "Benchmark${name} ns/op: current=$a = ${cur}x Benchmark${ref} ($r), baseline=${base}x, slack=${slack}"
	if awk -v c="$cur" -v b="$base" -v s="$slack" 'BEGIN {exit !(c > b * s)}'; then
		echo "check_allocs: FAIL — Benchmark${name} time regressed: ${cur}x Benchmark${ref} is over ${slack} × the ${base}x in $baseline_file" >&2
		return 1
	fi
}

guard ServerTopK BENCH_pr3.json || fail=$?
guard ServerPropagate BENCH_pr10.json || fail=$?
guard WarmRestart BENCH_pr26.json 1 || fail=$?
time_guard IngestSwap PipelineRun/workers=1 BENCH_pr16.json || fail=$?
time_guard IngestSwapWarm PipelineRun/workers=1 BENCH_pr22.json || fail=$?
time_guard ServerPropagateMiss PipelineRun/workers=1 BENCH_pr22.json || fail=$?
time_guard PropagateExact/tidaltrust PipelineRun/workers=1 BENCH_pr21.json || fail=$?

if [ "$fail" -ne 0 ]; then
	exit "$fail"
fi
echo "check_allocs: OK"
