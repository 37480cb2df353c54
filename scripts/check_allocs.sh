#!/usr/bin/env bash
# check_allocs.sh is the CI allocation guard for the serving hot path: it
# runs the cached-hit benchmarks and fails if allocs/op regress above
# their recorded baselines, so those wins cannot silently erode as the
# serving surface grows. Guarded:
#   BenchmarkServerTopK      vs BENCH_pr3.json  (34 allocs/op — pooled
#                            scratch + heap selection)
#   BenchmarkServerPropagate vs BENCH_pr10.json (cached propagate hit —
#                            the path every repeated propagate query takes)
#
# Usage: scripts/check_allocs.sh
#   ALLOC_BASELINE_FILE            BenchmarkServerTopK baseline JSON (default BENCH_pr3.json)
#   ALLOC_PROPAGATE_BASELINE_FILE  BenchmarkServerPropagate baseline JSON (default BENCH_pr10.json)
#   ALLOC_BENCHTIME                iterations for the measurement (default 200x)
set -euo pipefail
cd "$(dirname "$0")/.."

benchtime="${ALLOC_BENCHTIME:-200x}"
fail=0

# guard NAME BASELINE_FILE — measure Benchmark$NAME (anchored) and compare
# its allocs/op against the lowest figure recorded for it in the baseline.
guard() {
	local name="$1" baseline_file="$2" baseline current
	baseline="$(grep -o "\"name\": \"Benchmark${name}\"[^}]*" "$baseline_file" |
		grep -o '"allocs_per_op": [0-9]*' | awk '{print $2}' | sort -n | head -1)"
	if [ -z "$baseline" ]; then
		echo "check_allocs: no Benchmark${name} baseline in $baseline_file" >&2
		return 2
	fi
	current="$(go test -run '^$' -bench "${name}\$" -benchmem -benchtime "$benchtime" . |
		awk -v b="^Benchmark${name}(-[0-9]+)?[ \t]" '$0 ~ b {print $(NF-1)}')"
	if [ -z "$current" ]; then
		echo "check_allocs: Benchmark${name} produced no allocs/op figure" >&2
		return 2
	fi
	echo "Benchmark${name} allocs/op: current=$current baseline=$baseline"
	if [ "$current" -gt "$baseline" ]; then
		echo "check_allocs: FAIL — Benchmark${name} allocs/op regressed above the $baseline_file baseline" >&2
		return 1
	fi
}

guard ServerTopK "${ALLOC_BASELINE_FILE:-BENCH_pr3.json}" || fail=$?
guard ServerPropagate "${ALLOC_PROPAGATE_BASELINE_FILE:-BENCH_pr10.json}" || fail=$?

if [ "$fail" -ne 0 ]; then
	exit "$fail"
fi
echo "check_allocs: OK"
