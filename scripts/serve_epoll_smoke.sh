#!/usr/bin/env bash
# High-fan-in smoke for wmlp-serve's connection plane (epoll event loops).
#
# A standalone server started with `--io-threads 2` is driven by the
# loadgen at high fan-in: CONNS pipelined connections (default 256),
# which the loadgen multiplexes over 2 event-driven client threads. The smoke
# fails unless every connection completes its slice with zero errors and
# the shutdown handshake lands cleanly (the loadgen's own smoke contract),
# and the server process exits 0 after the drain with `0 errors` in its
# exit banner (the shards' own count: policy rejections, storage failures).
# Before the load, the server must run exactly `io-0` and `io-1` besides
# main: the loops route and serve their own shards, so there is no
# `router` thread and no `shard-*` thread.
#
# Usage: CONNS=1024 scripts/serve_epoll_smoke.sh [wmlp-serve-bin [wmlp-loadgen-bin]]
# (defaults assume `cargo build --release` has run from the repo root)
set -euo pipefail

SERVE_BIN=${1:-target/release/wmlp-serve}
LOADGEN_BIN=${2:-target/release/wmlp-loadgen}
CONNS=${CONNS:-256}
SMOKE_NAME=serve-epoll-smoke
. "$(dirname "$0")/serve_smoke_lib.sh"

# The same instance tuple must be passed to both sides of the socket.
TUPLE=(--pages 1024 --levels 3 --k 128 --weight-seed 7 --policy lru --shards 4)

LOG="$WORK/epoll.log"
"$SERVE_BIN" --addr 127.0.0.1:0 "${TUPLE[@]}" \
    --io-threads 2 >"$LOG" 2>&1 &
SERVER_PID=$!
wait_for_banner "$LOG" "epoll"
ADDR=$(server_addr "$LOG")

# The server's threads, besides main: exactly the two event loops. Each
# routes its own requests and serves two of the four shards — no `router`
# thread, no `shard-*` threads.
THREADS=$(for t in /proc/"$SERVER_PID"/task/*; do
    [ "${t##*/}" = "$SERVER_PID" ] || cat "$t/comm"
done | sort | tr '\n' ' ')
[ "$THREADS" = "io-0 io-1 " ] ||
    die "$LOG" "unexpected server threads besides main: $THREADS"

# 16 requests per connection: enough that every connection pipelines past
# its 8-deep window at least once.
"$LOADGEN_BIN" --addr "$ADDR" "${TUPLE[@]}" \
    --requests $((CONNS * 16)) --conns "$CONNS" \
    --pipeline 8 --workload zipf --alpha 0.9 --seed 11 \
    --out "$WORK/SERVE.epoll.json" ||
    die "$LOG" "fan-in loadgen failed"
reap_server "$LOG" "epoll"
grep -q "^served .*, 0 errors$" "$LOG" ||
    die "$LOG" "server exit banner does not report 0 errors"

grep -q "\"conns\": $CONNS" "$WORK/SERVE.epoll.json" ||
    die "$LOG" "SERVE.json does not record $CONNS connections"
echo "serve-epoll-smoke: ok ($CONNS pipelined connections over 2 io threads)"
