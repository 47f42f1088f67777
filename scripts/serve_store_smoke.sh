#!/usr/bin/env bash
# Kill-and-restart recovery smoke for wmlp-serve's on-disk segment store.
#
# Life 1: fresh store, write-heavy load over real sockets, then `kill -9`
#         mid-life — durability must come from the per-batch commit
#         alone, never from a graceful flush.
# Life 2: `--recover cold` must ignore the residency markers and report
#         zero warm pages.
# Life 3: `--recover warm` must rebuild a non-empty warm set from the
#         same segment log.
# Life 4: `kill -9` *while the load is still running*, so the log can end
#         in a torn batch (the client's errors are expected).
# Lives 5, 6: `--recover warm`, then `--recover cold`, must each open
#         that directory, print the banner, and serve a short load with
#         zero errors.
#
# Usage: scripts/serve_store_smoke.sh [wmlp-serve-bin [wmlp-loadgen-bin]]
# (defaults assume `cargo build --release` has run from the repo root)
set -euo pipefail

SERVE_BIN=${1:-target/release/wmlp-serve}
LOADGEN_BIN=${2:-target/release/wmlp-loadgen}
SMOKE_NAME=serve-store-smoke
. "$(dirname "$0")/serve_smoke_lib.sh"

# The same instance tuple must be passed to both sides of the socket.
TUPLE=(--pages 512 --levels 3 --k 64 --weight-seed 7 --policy lru --shards 2)

start_server() { # $1 = recover mode, $2 = log file
    "$SERVE_BIN" --addr 127.0.0.1:0 "${TUPLE[@]}" \
        --store "$WORK/tier" --value-size 32 --recover "$1" >"$2" 2>&1 &
    SERVER_PID=$!
    wait_for_banner "$2" "$1"
}

# --- life 1: fresh store, load, kill -9 ---------------------------------
start_server warm "$WORK/life1.log"
grep -q "store: 0 warm pages recovered (warm)" "$WORK/life1.log" ||
    die "$WORK/life1.log" "life 1 must start from an empty store"
ADDR=$(server_addr "$WORK/life1.log")
"$LOADGEN_BIN" --addr "$ADDR" --no-shutdown --requests 2000 --conns 2 \
    --workload zipf --alpha 0.9 --seed 11 --value-size 32 "${TUPLE[@]}" \
    --out "$WORK/SERVE.store.json"
kill_server

# --- life 2: cold restart ignores the markers ---------------------------
start_server cold "$WORK/life2.log"
grep -q "store: 0 warm pages recovered (cold)" "$WORK/life2.log" ||
    die "$WORK/life2.log" "cold recovery must report zero warm pages"
kill_server

# --- life 3: warm restart rebuilds the warm set -------------------------
start_server warm "$WORK/life3.log"
grep -Eq "store: [1-9][0-9]* warm pages recovered \(warm\)" "$WORK/life3.log" ||
    die "$WORK/life3.log" "warm recovery must rebuild a non-empty warm set"
kill_server

short_load() { # $1 = server log
    "$LOADGEN_BIN" --addr "$(server_addr "$1")" --no-shutdown --requests 500 \
        --conns 2 --workload zipf --alpha 0.9 --seed 13 --value-size 32 \
        "${TUPLE[@]}" >"$WORK/short.log" 2>&1 ||
        die "$WORK/short.log" "a load after the mid-write kill saw errors"
}

# --- life 4: kill -9 while loadgen is still writing ----------------------
log_bytes() { du -sb "$WORK/tier" | cut -f1; }
start_server warm "$WORK/life4.log"
BEFORE=$(log_bytes)
"$LOADGEN_BIN" --addr "$(server_addr "$WORK/life4.log")" --no-shutdown \
    --requests 4000000 --conns 2 --pipeline 32 --workload zipf --alpha 0.9 \
    --seed 12 --value-size 32 "${TUPLE[@]}" >"$WORK/midload.log" 2>&1 &
LOADGEN_PID=$!
# Wait until the log is visibly growing, so the kill lands between (or
# inside) commits rather than before the first request.
for _ in $(seq 1 100); do
    [ "$(log_bytes)" -gt $((BEFORE + 262144)) ] && break
    sleep 0.1
done
[ "$(log_bytes)" -gt $((BEFORE + 262144)) ] ||
    die "$WORK/midload.log" "the load never reached the store"
kill -0 "$LOADGEN_PID" 2>/dev/null ||
    die "$WORK/midload.log" "the load ended before the kill: nothing was mid-write"
kill_server
wait "$LOADGEN_PID" 2>/dev/null || true # its connections were just reset

# --- lives 5, 6: both recovery modes open the torn log and serve ---------
for mode in warm cold; do
    start_server "$mode" "$WORK/after-$mode.log"
    grep -q "warm pages recovered ($mode)" "$WORK/after-$mode.log" ||
        die "$WORK/after-$mode.log" "no recovery banner after the mid-write kill"
    short_load "$WORK/after-$mode.log"
    kill_server
done

echo "serve-store-smoke: ok (cold=0, warm>0 after kill -9; both modes serve after a mid-write kill)"
