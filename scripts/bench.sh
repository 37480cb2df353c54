#!/usr/bin/env bash
# bench.sh runs the pipeline / incremental-update / serving benchmark
# suite and writes the parsed results as JSON, so speedups are recorded
# next to the machine shape they were measured on rather than asserted
# in prose.
#
# Usage: scripts/bench.sh OUTPUT.json
#   OUTPUT.json   required: name it per change (BENCH_prN.json), so a run
#                 never overwrites a baseline scripts/check_allocs.sh reads
#   BENCH_SUITE   suite label recorded in the JSON (default: output basename)
#   BENCH_COUNT   passes over the suite (default 5); each pass times every
#                 benchmark once, so a slow stretch of the host lands on
#                 the reference benchmark and the gated ones alike
#   BENCH_FILTER  benchmark regexp (default: scripts/bench_filter.txt, the list
#                 make bench-smoke also runs)
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -ne 1 ]; then
	echo "usage: scripts/bench.sh OUTPUT.json" >&2
	exit 2
fi
out="$1"
suite="${BENCH_SUITE:-$(basename "$out" .json)}"
count="${BENCH_COUNT:-5}"
filter="${BENCH_FILTER:-$(cat scripts/bench_filter.txt)}"

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
raw="$tmp/raw.txt"

# Compile once, then interleave: pass i runs every benchmark once before
# pass i+1 starts, instead of -count running each one count times in a row.
go test -c -o "$tmp/bench.test" .
for _ in $(seq "$count"); do
	"$tmp/bench.test" -test.run '^$' -test.bench "$filter" -test.benchmem -test.count 1 -test.timeout 10m | tee -a "$raw"
done

awk -v out="$out" -v suite="$suite" -v count="$count" '
/^goos:/    { goos = $2 }
/^goarch:/  { goarch = $2 }
/^cpu:/     { sub(/^cpu: /, ""); cpu = $0 }
/^Benchmark/ && / ns\/op/ {
	name = $1
	sub(/-[0-9]+$/, "", name) # drop the GOMAXPROCS suffix
	entry = sprintf("    {\"name\": \"%s\", \"iters\": %s, \"ns_per_op\": %s", name, $2, $3)
	for (i = 4; i < NF; i++) {
		if ($(i + 1) == "B/op")      entry = entry sprintf(", \"b_per_op\": %s", $i)
		if ($(i + 1) == "allocs/op") entry = entry sprintf(", \"allocs_per_op\": %s", $i)
	}
	results[++n] = entry "}"
}
END {
	printf "{\n" > out
	printf "  \"suite\": \"%s\",\n", suite >> out
	printf "  \"count\": %s,\n", count >> out
	printf "  \"goos\": \"%s\",\n", goos >> out
	printf "  \"goarch\": \"%s\",\n", goarch >> out
	printf "  \"cpu\": \"%s\",\n", cpu >> out
	printf "  \"benchmarks\": [\n" >> out
	for (i = 1; i <= n; i++)
		printf "%s%s\n", results[i], (i < n ? "," : "") >> out
	printf "  ]\n}\n" >> out
}
' "$raw"

echo "wrote $out"
