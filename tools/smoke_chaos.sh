#!/bin/sh
# Chaos smoke test, wired as a ctest (label `chaos`):
#   smoke_chaos.sh <chaos_harness> <hmserved> <hmload> <hmctl>
#
# 1. Runs the chaos harness under three fixed seeds, TWICE each, and
#    diffs the two JSON reports: same seed => bit-identical report
#    (the determinism contract of util/fault.h), verdict `pass`.
# 2. Starts a real hmserved with a fault schedule injected via
#    --faults, probes it with hmctl and hmload, and asserts a clean
#    SIGTERM drain — faults may fail requests, never the process.
# 3. Starts hmserved with a durable store (--data-dir --fsync-every=1),
#    commits scores, SIGKILLs the daemon under live hmload traffic,
#    restarts it on the same data dir, and asserts recovery: every
#    committed score present in /v1/history exactly once (no loss, no
#    duplicates) and a previously-scored request answered from the
#    warm cache without re-executing the pipeline.
# 4. Brings up a 2-node mesh (replicas=2), registers a suite on each
#    shard, SIGKILLs one shard's leader while hmload drives both
#    targets, and asserts the survivor: client failover stays 200,
#    the dead shard's acknowledged score is served from the promoted
#    mirror exactly once and recomputes bit-identically, and writes
#    keep flowing.
# 5. SIGTERMs a durable hmserved while hmload is driving it and
#    asserts the graceful drain: exit 0 inside the drain deadline,
#    every acknowledged score recovered exactly once from the final
#    snapshot, nothing duplicated.
#
# Invoked with no arguments, the script instead configures a dedicated
# ASan+UBSan build (-DHIERMEANS_SANITIZE=address,undefined) under
# build-chaos-asan/ and runs the same checks against those binaries;
# that is the CI-grade memory-safety pass over the fault paths.
set -eu

if [ $# -eq 0 ]; then
    echo "smoke_chaos: no binaries given; building ASan+UBSan variants"
    ROOT=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
    BUILD="$ROOT/build-chaos-asan"
    cmake -B "$BUILD" -S "$ROOT" \
        -DHIERMEANS_SANITIZE=address,undefined >/dev/null
    cmake --build "$BUILD" -j \
        --target chaos_harness hmserved hmload hmctl >/dev/null
    exec "$0" "$BUILD/tools/chaos_harness" "$BUILD/tools/hmserved" \
        "$BUILD/tools/hmload" "$BUILD/tools/hmctl"
fi

CHAOS=${1:?usage: smoke_chaos.sh <chaos_harness> <hmserved> <hmload> <hmctl>}
HMSERVED=${2:?usage: smoke_chaos.sh <chaos_harness> <hmserved> <hmload> <hmctl>}
HMLOAD=${3:?usage: smoke_chaos.sh <chaos_harness> <hmserved> <hmload> <hmctl>}
HMCTL=${4:?usage: smoke_chaos.sh <chaos_harness> <hmserved> <hmload> <hmctl>}
MANIFEST=examples/data/manifest.txt

LOG=$(mktemp)
RUN_A=$(mktemp)
RUN_B=$(mktemp)
DATA=$(mktemp -d)
MESH_DIR=$(mktemp -d)
SERVER_PID=
MESH_PID_A=
MESH_PID_B=
DRAIN_DATA=
trap 'kill -9 "$SERVER_PID" "$MESH_PID_A" "$MESH_PID_B" 2>/dev/null || true;
      rm -f "$LOG" "$RUN_A" "$RUN_B";
      rm -rf "$DATA" "$MESH_DIR" "$DRAIN_DATA"' EXIT

# Scrape the flushed "listening on port N" line from $LOG (up to ~5s);
# sets $PORT or exits.
wait_port() {
    PORT=
    i=0
    while [ $i -lt 50 ]; do
        PORT=$(sed -n 's/^listening on port \([0-9]*\)$/\1/p' "$LOG")
        [ -n "$PORT" ] && break
        kill -0 "$SERVER_PID" 2>/dev/null || {
            echo "smoke_chaos: hmserved died during startup" >&2
            cat "$LOG" >&2
            exit 1
        }
        sleep 0.1
        i=$((i + 1))
    done
    [ -n "$PORT" ] || { echo "smoke_chaos: no port line" >&2; exit 1; }
}

# --- 1. fixed seeds, twice each: reproducible pass reports ----------
for SEED in 1 7 20260807; do
    echo "smoke_chaos: seed $SEED run 1"
    "$CHAOS" --seed="$SEED" --clients=3 --requests=10 --schedules=2 \
        --json-only >"$RUN_A"
    echo "smoke_chaos: seed $SEED run 2"
    "$CHAOS" --seed="$SEED" --clients=3 --requests=10 --schedules=2 \
        --json-only >"$RUN_B"
    if ! diff "$RUN_A" "$RUN_B" >/dev/null; then
        echo "smoke_chaos: seed $SEED reports differ between runs" >&2
        diff "$RUN_A" "$RUN_B" >&2 || true
        exit 1
    fi
    grep -q '"verdict":"pass"' "$RUN_A" || {
        echo "smoke_chaos: seed $SEED did not pass" >&2
        cat "$RUN_A" >&2
        exit 1
    }
    echo "smoke_chaos: seed $SEED reproducible and passing"
done

# --- 2. a real daemon under injected faults -------------------------
"$HMSERVED" --port=0 --threads=2 --queue-depth=4 \
    --faults='net.write.short=p:0.1,engine.cache.put=p:0.2' \
    --fault-seed=42 >"$LOG" 2>&1 &
SERVER_PID=$!
wait_port
echo "smoke_chaos: faulty hmserved pid $SERVER_PID on port $PORT"

"$HMCTL" --port="$PORT" --json-only
"$HMLOAD" --port="$PORT" --concurrency=2 --duration-s=2 \
    --manifest="$MANIFEST" --retries=3 --timeout-ms=10000 --json-only
"$HMCTL" --port="$PORT" --metrics --json-only >/dev/null

kill -TERM "$SERVER_PID"
STATUS=0
wait "$SERVER_PID" || STATUS=$?
SERVER_PID=
if [ "$STATUS" -ne 0 ]; then
    echo "smoke_chaos: hmserved exited $STATUS after SIGTERM" >&2
    cat "$LOG" >&2
    exit 1
fi
grep -q "final metrics" "$LOG" || {
    echo "smoke_chaos: no final metrics summary in log" >&2
    cat "$LOG" >&2
    exit 1
}
echo "smoke_chaos: clean drain under injected faults confirmed"

# --- 3. SIGKILL under load, then recover from the durable store -----
: >"$LOG"
"$HMSERVED" --port=0 --threads=2 --queue-depth=4 \
    --data-dir="$DATA" --fsync-every=1 >"$LOG" 2>&1 &
SERVER_PID=$!
wait_port
echo "smoke_chaos: durable hmserved pid $SERVER_PID on port $PORT"

# Commit five distinct scores; --fsync-every=1 means each one is
# durable on disk before its 200 comes back.
LINE=$(grep -v '^#' "$MANIFEST" | grep -v '^[[:space:]]*$' | head -1)
i=1
while [ $i -le 5 ]; do
    "$HMCTL" --port="$PORT" \
        --score="$LINE seed=$((7700 + i)) id=kill-$i" --json-only
    i=$((i + 1))
done

# Kill -9 mid-traffic: the load generator may lose in-flight requests
# (hence || true), but nothing already answered may be lost.
"$HMLOAD" --port="$PORT" --concurrency=2 --duration-s=5 \
    --manifest="$MANIFEST" --json-only >/dev/null 2>&1 &
LOAD_PID=$!
sleep 1
kill -9 "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
wait "$LOAD_PID" 2>/dev/null || true
echo "smoke_chaos: SIGKILL delivered under load"

: >"$LOG"
"$HMSERVED" --port=0 --threads=2 --queue-depth=4 \
    --data-dir="$DATA" --fsync-every=1 >"$LOG" 2>&1 &
SERVER_PID=$!
wait_port
grep -q "store recovered: outcome=" "$LOG" || {
    echo "smoke_chaos: no store recovery line after restart" >&2
    cat "$LOG" >&2
    exit 1
}
echo "smoke_chaos: restarted on port $PORT," \
    "$(sed -n 's/^store recovered: \(.*\)$/\1/p' "$LOG")"

# Every committed score is in the recovered history exactly once.
HISTORY=$("$HMCTL" --port="$PORT" --history)
i=1
while [ $i -le 5 ]; do
    COUNT=$(echo "$HISTORY" | grep -c "kill-$i[^0-9]" || true)
    if [ "$COUNT" -ne 1 ]; then
        echo "smoke_chaos: score kill-$i appears $COUNT times" \
            "in recovered history (want exactly 1)" >&2
        echo "$HISTORY" >&2
        exit 1
    fi
    i=$((i + 1))
done
echo "smoke_chaos: all 5 committed scores recovered exactly once"

# A previously-scored request must come back from the warm cache.
BODY=$("$HMCTL" --port="$PORT" --score="$LINE seed=7701 id=kill-1")
echo "$BODY" | grep -q '"served_by":"cache"' || {
    echo "smoke_chaos: recovered score not served from warm cache:" >&2
    echo "$BODY" >&2
    exit 1
}
# The one-hot outcome gauge must show a recovery that lost nothing
# committed: clean, or truncated_tail (a torn not-yet-acknowledged
# final frame is the one thing SIGKILL is allowed to leave behind).
"$HMCTL" --port="$PORT" --metrics | grep -Eq \
    '^hiermeans_store_recovery_outcome\{state="(clean|truncated_tail)"\} 1$' || {
    echo "smoke_chaos: recovery outcome gauge reports a lossy start" >&2
    "$HMCTL" --port="$PORT" --metrics | grep recovery_outcome >&2 || true
    exit 1
}
echo "smoke_chaos: warm cache answered a pre-kill request"

kill -TERM "$SERVER_PID"
STATUS=0
wait "$SERVER_PID" || STATUS=$?
SERVER_PID=
[ "$STATUS" -eq 0 ] || {
    echo "smoke_chaos: recovered hmserved exited $STATUS" >&2
    cat "$LOG" >&2
    exit 1
}
echo "smoke_chaos: kill-and-recover invariants confirmed"

# --- 4. two-shard mesh: SIGKILL a shard leader under load -----------
# Two nodes, replicas=2: each mirrors the other's store. `shard-alpha`
# hashes to node a and `shard-beta` to node b on the (deterministic)
# id ring, so killing node a is a leader kill for shard-alpha — the
# surviving node must answer with every acknowledged score exactly
# once, bit-identical, and keep taking writes.
PORT_A=$((21000 + $$ % 10000))
PORT_B=$((PORT_A + 1))
for NODE in a b; do
    {
        echo "self = $NODE"
        echo "replicas = 2"
        echo "node a 127.0.0.1:$PORT_A"
        echo "node b 127.0.0.1:$PORT_B"
    } >"$MESH_DIR/mesh_$NODE.conf"
    mkdir -p "$MESH_DIR/data_$NODE"
done
"$HMSERVED" --mesh-config="$MESH_DIR/mesh_a.conf" \
    --data-dir="$MESH_DIR/data_a" --fsync-every=1 --threads=2 \
    --queue-depth=4 --mesh-tick-ms=100 >"$MESH_DIR/a.log" 2>&1 &
MESH_PID_A=$!
"$HMSERVED" --mesh-config="$MESH_DIR/mesh_b.conf" \
    --data-dir="$MESH_DIR/data_b" --fsync-every=1 --threads=2 \
    --queue-depth=4 --mesh-tick-ms=100 >"$MESH_DIR/b.log" 2>&1 &
MESH_PID_B=$!

# Both nodes up and each seeing the other healthy (--cluster exits 2
# while any peer is still marked down).
i=0
while [ $i -lt 50 ]; do
    if "$HMCTL" --port="$PORT_A" --cluster --json-only \
            >/dev/null 2>&1 &&
        "$HMCTL" --port="$PORT_B" --cluster --json-only \
            >/dev/null 2>&1; then
        break
    fi
    sleep 0.2
    i=$((i + 1))
done
[ $i -lt 50 ] || {
    echo "smoke_chaos: mesh never converged" >&2
    cat "$MESH_DIR/a.log" "$MESH_DIR/b.log" >&2
    exit 1
}
echo "smoke_chaos: 2-node mesh up on ports $PORT_A/$PORT_B"

# Register both suites through node b: shard-alpha is misrouted and
# must be forwarded to its owner a.
"$HMCTL" --port="$PORT_B" --register=shard-alpha \
    --manifest="$MANIFEST" --json-only
"$HMCTL" --port="$PORT_B" --register=shard-beta \
    --manifest="$MANIFEST" --json-only
PRE_ALPHA=$("$HMCTL" --port="$PORT_B" \
    --score="suite=shard-alpha line=1 seed=9901 id=pre-alpha")
"$HMCTL" --port="$PORT_B" \
    --score="suite=shard-beta line=1 seed=9902 id=pre-beta" \
    --json-only
ALPHA_RATIO=$(echo "$PRE_ALPHA" | grep -o '"ratio":[0-9.eE+-]*' |
    head -1)
[ -n "$ALPHA_RATIO" ] || {
    echo "smoke_chaos: no ratio in pre-kill score:" >&2
    echo "$PRE_ALPHA" >&2
    exit 1
}
# Let the follower ack the shipped WAL tail before the kill.
sleep 1

# SIGKILL the shard-alpha leader while hmload drives both targets;
# the client must fail over to the survivor and keep getting 200s.
"$HMLOAD" --targets="127.0.0.1:$PORT_A,127.0.0.1:$PORT_B" \
    --concurrency=2 --duration-s=4 --manifest="$MANIFEST" \
    --retries=3 --timeout-ms=10000 --json-only >"$RUN_A" 2>&1 &
LOAD_PID=$!
sleep 1
kill -9 "$MESH_PID_A"
wait "$MESH_PID_A" 2>/dev/null || true
MESH_PID_A=
STATUS=0
wait "$LOAD_PID" || STATUS=$?
if [ "$STATUS" -ne 0 ]; then
    echo "smoke_chaos: hmload failed over the dead leader ($STATUS)" >&2
    cat "$RUN_A" >&2
    exit 1
fi
# First http_2xx in the report is the top-level aggregate (the
# per-target breakdown comes later in the same line).
TWOXX=$(grep -o '"http_2xx":[0-9]*' "$RUN_A" | head -1 | cut -d: -f2)
[ -n "$TWOXX" ] && [ "$TWOXX" -gt 0 ] || {
    echo "smoke_chaos: hmload saw no successes during failover" >&2
    cat "$RUN_A" >&2
    exit 1
}
echo "smoke_chaos: leader SIGKILLed, hmload failover clean"

# The survivor serves shard-alpha from its promoted mirror: the
# acknowledged score exactly once, and a recompute of the same line
# must reproduce the identical ratio.
ALPHA_HISTORY=$("$HMCTL" --port="$PORT_B" --history=shard-alpha)
COUNT=$(echo "$ALPHA_HISTORY" | grep -c "pre-alpha" || true)
[ "$COUNT" -eq 1 ] || {
    echo "smoke_chaos: pre-alpha appears $COUNT times after" \
        "promotion (want exactly 1)" >&2
    echo "$ALPHA_HISTORY" >&2
    exit 1
}
POST_ALPHA=$("$HMCTL" --port="$PORT_B" \
    --score="suite=shard-alpha line=1 seed=9901 id=post-alpha")
echo "$POST_ALPHA" | grep -qF "$ALPHA_RATIO" || {
    echo "smoke_chaos: post-promotion score diverged from the" \
        "acknowledged $ALPHA_RATIO:" >&2
    echo "$POST_ALPHA" >&2
    exit 1
}
"$HMCTL" --port="$PORT_B" --history=shard-beta | grep -q "pre-beta" || {
    echo "smoke_chaos: shard-beta history lost its score" >&2
    exit 1
}
kill -TERM "$MESH_PID_B"
STATUS=0
wait "$MESH_PID_B" || STATUS=$?
MESH_PID_B=
[ "$STATUS" -eq 0 ] || {
    echo "smoke_chaos: surviving mesh node exited $STATUS" >&2
    cat "$MESH_DIR/b.log" >&2
    exit 1
}
echo "smoke_chaos: shard leader kill lost nothing, duplicated nothing"

# --- 5. SIGTERM graceful drain under live load ----------------------
# A drain must lose zero admitted requests: every score the daemon
# acknowledged with a 200 before (or during) the drain is in the
# recovered history exactly once, the process exits 0 inside its
# drain deadline, and the final snapshot it flushed recovers clean.
: >"$LOG"
DRAIN_DATA=$(mktemp -d)
"$HMSERVED" --port=0 --threads=2 --queue-depth=4 \
    --data-dir="$DRAIN_DATA" --fsync-every=1 --drain-deadline=10s \
    >"$LOG" 2>&1 &
SERVER_PID=$!
wait_port
echo "smoke_chaos: drain-stage hmserved pid $SERVER_PID on port $PORT"

# Live background traffic for the drain to contend with.
"$HMLOAD" --port="$PORT" --concurrency=2 --duration-s=6 \
    --manifest="$MANIFEST" --deadline-ms=8000 --json-only \
    >"$RUN_A" 2>&1 &
LOAD_PID=$!
sleep 1

# Acknowledged writes that must survive the drain.
i=1
while [ $i -le 5 ]; do
    "$HMCTL" --port="$PORT" \
        --score="$LINE seed=$((8800 + i)) id=drain-$i" --json-only
    i=$((i + 1))
done

kill -TERM "$SERVER_PID"
DRAIN_START=$(date +%s)
STATUS=0
wait "$SERVER_PID" || STATUS=$?
DRAIN_SECS=$(($(date +%s) - DRAIN_START))
SERVER_PID=
wait "$LOAD_PID" 2>/dev/null || true
if [ "$STATUS" -ne 0 ]; then
    echo "smoke_chaos: drain exited $STATUS (want 0)" >&2
    cat "$LOG" >&2
    exit 1
fi
if [ "$DRAIN_SECS" -gt 15 ]; then
    echo "smoke_chaos: drain took ${DRAIN_SECS}s, past its deadline" >&2
    exit 1
fi
grep -q "draining in-flight requests" "$LOG" || {
    echo "smoke_chaos: no drain-start line in log" >&2
    cat "$LOG" >&2
    exit 1
}
grep -q "final metrics" "$LOG" || {
    echo "smoke_chaos: no final metrics after drain" >&2
    cat "$LOG" >&2
    exit 1
}
grep -Fq 'hiermeans_server_health_state{state="draining"} 1' "$LOG" || {
    echo "smoke_chaos: final metrics never flipped to draining" >&2
    cat "$LOG" >&2
    exit 1
}
echo "smoke_chaos: SIGTERM drain under load exited 0 in ${DRAIN_SECS}s"

# Restart on the drained store: the final snapshot must recover with
# nothing lost and nothing duplicated.
: >"$LOG"
"$HMSERVED" --port=0 --threads=2 --queue-depth=4 \
    --data-dir="$DRAIN_DATA" --fsync-every=1 >"$LOG" 2>&1 &
SERVER_PID=$!
wait_port
grep -Eq "store recovered: outcome=(clean|truncated_tail)" "$LOG" || {
    echo "smoke_chaos: drained store did not recover clean" >&2
    cat "$LOG" >&2
    exit 1
}
HISTORY=$("$HMCTL" --port="$PORT" --history)
i=1
while [ $i -le 5 ]; do
    COUNT=$(echo "$HISTORY" | grep -c "drain-$i[^0-9]" || true)
    if [ "$COUNT" -ne 1 ]; then
        echo "smoke_chaos: admitted score drain-$i appears $COUNT" \
            "times after the drain (want exactly 1)" >&2
        echo "$HISTORY" >&2
        exit 1
    fi
    i=$((i + 1))
done
kill -TERM "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=
rm -rf "$DRAIN_DATA"
echo "smoke_chaos: graceful drain lost nothing, duplicated nothing"
