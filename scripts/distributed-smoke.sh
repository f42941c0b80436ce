#!/usr/bin/env bash
# Real multi-process federation smoke: one rfl-server plus four rfl-client
# processes over loopback TCP *and* over a Unix-domain socket must each
# reproduce the pinned in-process round-loop loss bit-exactly
# (--expect-loss makes the server's exit code the assertion), and so must a
# federation whose clients alternate between the scalar kernels and the
# widest SIMD tier the CPU has (RFL_SIMD=0 and RFL_SIMD=1).
#
# Usage: scripts/distributed-smoke.sh [--trace-dir DIR]
#
# --trace-dir keeps the per-leg JSONL round traces in DIR (CI uploads them
# as an artifact when the job fails); by default they land in a temp dir.
# A watchdog hard-kills everything after $TIMEOUT_SECS so a wedged run
# fails the job instead of hanging it.
set -euo pipefail
cd "$(dirname "$0")/.."

EXPECT_LOSS=1.604142189
# 64-client cohort over the same recipe (`canonical::data_for(SEED, 64)`);
# pin provenance in EXPERIMENTS.md. Exercises the reactor's fan-out path —
# 64 concurrent connections multiplexed on one reactor thread.
EXPECT_LOSS_64=2.115149736
NUM_CLIENTS=4
TIMEOUT_SECS="${RFL_SMOKE_TIMEOUT_SECS:-180}"

TRACE_DIR=""
if [ "${1:-}" = "--trace-dir" ]; then
    TRACE_DIR="${2:?--trace-dir needs a directory}"
    mkdir -p "$TRACE_DIR"
fi

echo "== building rfl-server / rfl-client (release)"
cargo build --release -p rfl-fed --bins

run_leg() {
    # LEG_CLIENTS overrides the cohort size for one leg (the 64-client
    # fan-out leg); every other leg runs the pinned 4-client cohort.
    # LEG_TIERS (space-separated RFL_SIMD values) runs client i under
    # value i mod their count; unset, every client runs the widest tier.
    local name="$1" listen="$2" clients="${LEG_CLIENTS:-$NUM_CLIENTS}"
    shift 2
    local dir ready trace endpoint server_pid watchdog_pid rc tiers=()
    read -ra tiers <<< "${LEG_TIERS:-}"
    dir=$(mktemp -d)
    ready="$dir/endpoint"
    trace="${TRACE_DIR:-$dir}/distributed-smoke-$name.jsonl"
    echo "== distributed smoke ($name): $listen"
    if [ "${#tiers[@]}" -gt 0 ]; then
        echo "   client i runs RFL_SIMD value i mod ${#tiers[@]} of: ${tiers[*]}"
    fi

    # Extra args select the leg's assertion: --expect-loss pins the dense
    # run to the canonical loss; --compress + --expect-oracle pins a
    # compressed run bit-exactly against the in-process oracle.
    ./target/release/rfl-server \
        --listen "$listen" --ready-file "$ready" --clients "$clients" \
        --trace "$trace" "$@" &
    server_pid=$!

    # Watchdog: if the leg wedges, kill the whole process group hard.
    (
        sleep "$TIMEOUT_SECS"
        echo "ERROR: distributed smoke ($name) timed out after ${TIMEOUT_SECS}s" >&2
        kill -9 "$server_pid" 2>/dev/null || true
        pkill -9 -f "target/release/rfl-client" 2>/dev/null || true
    ) &
    watchdog_pid=$!

    # The server publishes its actual endpoint (resolving port 0) once bound.
    for _ in $(seq 1 200); do
        [ -f "$ready" ] && break
        if ! kill -0 "$server_pid" 2>/dev/null; then
            echo "ERROR: server exited before binding" >&2
            kill "$watchdog_pid" 2>/dev/null || true
            return 1
        fi
        sleep 0.1
    done
    if [ ! -f "$ready" ]; then
        echo "ERROR: server never published its endpoint" >&2
        kill -9 "$server_pid" 2>/dev/null || true
        kill "$watchdog_pid" 2>/dev/null || true
        return 1
    fi
    endpoint=$(cat "$ready")

    local client_pids=()
    for id in $(seq 0 $((clients - 1))); do
        if [ "${#tiers[@]}" -gt 0 ]; then
            RFL_SIMD="${tiers[id % ${#tiers[@]}]}" \
                ./target/release/rfl-client --connect "$endpoint" --id "$id" &
        else
            ./target/release/rfl-client --connect "$endpoint" --id "$id" &
        fi
        client_pids+=("$!")
    done

    rc=0
    wait "$server_pid" || rc=$?
    for pid in "${client_pids[@]}"; do
        wait "$pid" || rc=$?
    done
    kill "$watchdog_pid" 2>/dev/null || true
    wait "$watchdog_pid" 2>/dev/null || true

    if [ "$rc" -ne 0 ]; then
        echo "ERROR: distributed smoke ($name) failed (rc=$rc); trace: $trace" >&2
        return "$rc"
    fi
    echo "== distributed smoke ($name) passed"
}

run_leg tcp "tcp://127.0.0.1:0" --expect-loss "$EXPECT_LOSS"
run_leg unix "unix:$(mktemp -u /tmp/rfl-smoke-XXXXXX.sock)" --expect-loss "$EXPECT_LOSS"
# Compressed uploads over real sockets: 8-bit quantized frames with error
# feedback must match the in-process compressed run bit-for-bit.
run_leg tcp-compressed "tcp://127.0.0.1:0" --compress quantize:8 --expect-oracle
# Mixed tiers: the kernels' tiers compute the same bits, so a cohort whose
# clients alternate between the scalar and the widest tier lands on the
# same pin.
LEG_TIERS="0 1" run_leg tcp-mixed-tiers "tcp://127.0.0.1:0" --expect-loss "$EXPECT_LOSS"
# 64 concurrent client processes on one TCP endpoint: the reactor multiplexes
# all of them on its one thread, and the cohort's own pinned loss
# gates the run bit-exactly (same watchdog hard-kills a wedged leg).
LEG_CLIENTS=64 run_leg tcp-64 "tcp://127.0.0.1:0" --expect-loss "$EXPECT_LOSS_64"

echo "== distributed smoke passed (dense tcp + unix + mixed SIMD tiers + 64-client fan-out bit-exact, compressed tcp == in-process oracle)"
