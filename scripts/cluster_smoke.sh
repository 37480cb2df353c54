#!/usr/bin/env bash
# cluster_smoke.sh boots a real 3-shard trustd cluster behind the
# consistent-hash router, next to an unsharded reference process over the
# same event log, and proves end to end that:
#
#   1. every shard and the router come up and report ready,
#   2. routed responses are byte-identical to the unsharded server for a
#      sample of users across /v1/topk, /v1/trust, /v1/neighbors and
#      /v1/propagate (plus the merged /v1/graph/stats),
#   3. every request of a concurrent /v1/topk burst through the router
#      answers 200,
#   4. killing one replica of a two-replica shard mid-run is invisible
#      (responses stay byte-identical through failover), and restarting
#      it warm from a checkpoint `trustctl checkpoint` wrote without a
#      shard spec recovers with zero divergence,
#
# then tears everything down. This is the out-of-process complement to
# the in-process harnesses in internal/router/cluster_test.go and
# chaos_test.go: real binaries, real TCP, real flags, real SIGKILL.
#
# Usage: scripts/cluster_smoke.sh
#   CLUSTER_SMOKE_PORT  base port (default 8300; uses base..base+5)
set -euo pipefail
cd "$(dirname "$0")/.."

base_port="${CLUSTER_SMOKE_PORT:-8300}"
ref_port=$base_port
s0_port=$((base_port + 1))
s1_port=$((base_port + 2))
s2_port=$((base_port + 3))
router_port=$((base_port + 4))
s0b_port=$((base_port + 5))

workdir="$(mktemp -d)"
pids=()
cleanup() {
    for pid in "${pids[@]:-}"; do
        kill "$pid" 2>/dev/null || true
    done
    wait 2>/dev/null || true
    rm -rf "$workdir"
}
trap cleanup EXIT

echo "== building binaries"
go build -o "$workdir/trustd" ./cmd/trustd
go build -o "$workdir/trustctl" ./cmd/trustctl

echo "== generating community and event log"
"$workdir/trustctl" generate -preset small -out "$workdir/events.log" >/dev/null
users=300 # synth.Small community size

echo "== writing one spec-free checkpoint of the log"
"$workdir/trustctl" checkpoint -log "$workdir/events.log" -dir "$workdir/ckpt" >/dev/null

echo "== starting unsharded reference on :$ref_port"
"$workdir/trustd" serve -log "$workdir/events.log" -addr "127.0.0.1:$ref_port" 2>"$workdir/ref.log" &
pids+=($!)

echo "== starting 3 shards on :$s0_port(+replica :$s0b_port) :$s1_port :$s2_port"
"$workdir/trustd" serve -log "$workdir/events.log" -addr "127.0.0.1:$s0_port" -shard 0/3 2>"$workdir/shard0.log" &
s0a_pid=$!
pids+=($s0a_pid)
"$workdir/trustd" serve -log "$workdir/events.log" -addr "127.0.0.1:$s0b_port" -shard 0/3 2>"$workdir/shard0b.log" &
pids+=($!)
"$workdir/trustd" serve -log "$workdir/events.log" -addr "127.0.0.1:$s1_port" -shard 1/3 2>"$workdir/shard1.log" &
pids+=($!)
"$workdir/trustd" serve -log "$workdir/events.log" -addr "127.0.0.1:$s2_port" -shard 2/3 2>"$workdir/shard2.log" &
pids+=($!)

echo "== starting router on :$router_port (waits for shard readiness)"
"$workdir/trustd" route -addr "127.0.0.1:$router_port" \
    -shards "http://127.0.0.1:$s0_port|http://127.0.0.1:$s0b_port,http://127.0.0.1:$s1_port,http://127.0.0.1:$s2_port" \
    -retries 2 -breaker-cooldown 250ms \
    -wait-ready 30s 2>"$workdir/router.log" &
pids+=($!)

wait_ready() {
    local url=$1 name=$2
    for _ in $(seq 1 150); do
        if curl -sf "$url/readyz" >/dev/null 2>&1; then
            return 0
        fi
        sleep 0.2
    done
    echo "FAIL: $name never became ready" >&2
    tail -n 20 "$workdir"/*.log >&2 || true
    return 1
}
wait_ready "http://127.0.0.1:$ref_port" "reference"
wait_ready "http://127.0.0.1:$router_port" "router (all shards)"

check_equivalence() {
    local stage=$1
    local checked=0
    for u in 0 7 42 99 123 201 299; do
        to=$(((u + 1) % users))
        for path in \
            "/v1/topk?user=$u&k=7" \
            "/v1/trust?from=$u&to=$to" \
            "/v1/neighbors?user=$u" \
            "/v1/propagate?algo=appleseed&user=$u&k=5" \
            "/v1/propagate?algo=moletrust&user=$u&k=5&approx=landmark" \
            "/v1/rank?user=$u"; do
            ref_body="$(curl -s "http://127.0.0.1:$ref_port$path")"
            routed_body="$(curl -s "http://127.0.0.1:$router_port$path")"
            if [ "$ref_body" != "$routed_body" ]; then
                echo "FAIL($stage): $path differs through the router" >&2
                echo "  ref:    $ref_body" >&2
                echo "  router: $routed_body" >&2
                exit 1
            fi
            checked=$((checked + 1))
        done
    done
    for path in "/v1/graph/stats" "/v1/rank?k=5"; do
        ref_body="$(curl -s "http://127.0.0.1:$ref_port$path")"
        routed_body="$(curl -s "http://127.0.0.1:$router_port$path")"
        if [ "$ref_body" != "$routed_body" ]; then
            echo "FAIL($stage): global $path differs through the router" >&2
            exit 1
        fi
        checked=$((checked + 1))
    done
    echo "   $stage: $checked responses byte-identical"
}

echo "== equivalence: routed responses vs unsharded reference"
check_equivalence "healthy"

echo "== request burst through the router"
# 400 routed /v1/topk requests, 4 in flight, cycling every user. trustd
# and the router answer 200 or an error status; curl -f turns an error
# status into a nonzero exit (naming the URL), xargs into its own, and
# pipefail into the script's.
for i in $(seq 0 399); do
    echo "http://127.0.0.1:$router_port/v1/topk?user=$(((i * 7) % users))&k=10"
done | xargs -P 4 -n 1 curl -sSf -o /dev/null
echo "   400 routed requests answered 200"

echo "== killing shard 0 replica on :$s0_port mid-run"
kill -9 "$s0a_pid" 2>/dev/null || true
wait "$s0a_pid" 2>/dev/null || true
check_equivalence "replica-dead"

echo "== restarting the killed replica warm from a copy of the checkpoint"
cp -r "$workdir/ckpt" "$workdir/ckpt-s0"
"$workdir/trustd" serve -log "$workdir/events.log" -addr "127.0.0.1:$s0_port" -shard 0/3 \
    -checkpoint-dir "$workdir/ckpt-s0" 2>"$workdir/shard0_restart.log" &
pids+=($!)
wait_ready "http://127.0.0.1:$s0_port" "restarted shard 0 replica"
# Give the router's breaker a cooldown to re-probe the revived replica,
# then the full equivalence sweep must hold again with zero divergence.
sleep 0.5
if ! grep -q "warm boot" "$workdir/shard0_restart.log"; then
    echo "FAIL: restarted shard 0 replica did not boot warm from the checkpoint" >&2
    cat "$workdir/shard0_restart.log" >&2
    exit 1
fi
check_equivalence "replica-restarted"

echo "== misdirected check: no shard saw a wrongly routed source"
for port in $s0_port $s0b_port $s1_port $s2_port; do
    mis="$(curl -s "http://127.0.0.1:$port/metrics" | awk '/^trustd_misdirected_requests_total/ {print $2}')"
    if [ "${mis:-0}" != "0" ]; then
        echo "FAIL: shard on :$port answered $mis misdirected requests" >&2
        exit 1
    fi
done

echo "cluster smoke OK"
