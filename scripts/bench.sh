#!/usr/bin/env bash
# bench.sh runs the pipeline / incremental-update / serving benchmark
# suite and writes the parsed results as JSON, so speedups are recorded
# next to the machine shape they were measured on rather than asserted
# in prose.
#
# Usage: scripts/bench.sh [output.json]
#   BENCH_OUT     output path when no argument is given (default BENCH_pr10.json)
#   BENCH_SUITE   suite label recorded in the JSON (default: output basename)
#   BENCH_COUNT   repetitions per benchmark (default 5)
#   BENCH_FILTER  benchmark regexp (default: scripts/bench_filter.txt, the list
#                 make bench-smoke also runs)
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-${BENCH_OUT:-BENCH_pr10.json}}"
suite="${BENCH_SUITE:-$(basename "$out" .json)}"
count="${BENCH_COUNT:-5}"
filter="${BENCH_FILTER:-$(cat scripts/bench_filter.txt)}"

raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

go test -run '^$' -bench "$filter" -benchmem -count="$count" . | tee "$raw"

awk -v out="$out" -v suite="$suite" -v count="$count" '
/^goos:/    { goos = $2 }
/^goarch:/  { goarch = $2 }
/^cpu:/     { sub(/^cpu: /, ""); cpu = $0 }
/^Benchmark/ && / ns\/op/ {
	name = $1
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
