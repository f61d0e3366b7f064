#!/usr/bin/env bash
# fleet-remote-smoke: end-to-end check of the distributed fleet path
# with real processes. Starts a daemon that computes nothing itself
# (-jobs 0) and two remote worker processes (-connect), submits a job,
# kill -9s the daemon once the workers' first checkpoint is on disk,
# restarts it over the same store and address while the workers keep
# running, and diffs the served report against the single-process
# report for the same spec — they must be byte-identical, with the
# resumed job visibly reloading the chunks the workers finished before
# the kill. The workers must then stop cleanly on SIGTERM.
set -euo pipefail

N=${N:-384}
SEED=${SEED:-7}
SCALE=${SCALE:-0.2}
CHUNK=${CHUNK:-8} # 48 chunks: the job outlives the first checkpoint

TMP=$(mktemp -d)
STORE="$TMP/store"
cleanup() {
    # Kill anything still running (e.g. on failure) before removing TMP.
    [[ -n "${DAEMON_PID:-}" ]] && kill -9 "$DAEMON_PID" 2>/dev/null || true
    [[ -n "${W1_PID:-}" ]] && kill "$W1_PID" 2>/dev/null || true
    [[ -n "${W2_PID:-}" ]] && kill "$W2_PID" 2>/dev/null || true
    rm -rf "$TMP"
}
trap cleanup EXIT

fail() {
    echo "fleet-remote-smoke: $1" >&2
    for log in daemon1.log daemon2.log w1.log w2.log wait.log; do
        [[ -f "$TMP/$log" ]] && { echo "--- $log ---" >&2; cat "$TMP/$log" >&2; }
    done
    exit 1
}

# wait_addr LOGFILE: echo the daemon's resolved listen address once its
# startup line appears in the log.
wait_addr() {
    local log=$1 addr=
    for _ in $(seq 1 100); do
        addr=$(sed -n 's/.*serving HTTP on \([0-9.:]*\) .*/\1/p' "$log" 2>/dev/null | head -1)
        [[ -n "$addr" ]] && { echo "$addr"; return 0; }
        sleep 0.1
    done
    return 1
}

echo "fleet-remote-smoke: building capyfleet"
go build -o "$TMP/capyfleet" ./cmd/capyfleet

echo "fleet-remote-smoke: single-process reference (-n $N -seed $SEED -scale $SCALE -chunk $CHUNK)"
"$TMP/capyfleet" -n "$N" -seed "$SEED" -scale "$SCALE" -chunk "$CHUNK" -jobs 2 \
    -o "$TMP/single.csv" 2>/dev/null

echo "fleet-remote-smoke: daemon generation 1 (-jobs 0) + 2 workers"
"$TMP/capyfleet" -serve-http 127.0.0.1:0 -store "$STORE" -jobs 0 2>"$TMP/daemon1.log" &
DAEMON_PID=$!
disown "$DAEMON_PID" # keep bash's "Killed" job notice out of the output
ADDR=$(wait_addr "$TMP/daemon1.log") || fail "daemon 1 never announced its address"
URL="http://$ADDR"
"$TMP/capyfleet" -connect "$URL" -jobs 1 2>"$TMP/w1.log" &
W1_PID=$!
"$TMP/capyfleet" -connect "$URL" -jobs 1 2>"$TMP/w2.log" &
W2_PID=$!

JOB=$("$TMP/capyfleet" -http "$URL" -submit \
    -n "$N" -seed "$SEED" -scale "$SCALE" -chunk "$CHUNK" 2>>"$TMP/daemon1.log") \
    || fail "submit failed"
echo "fleet-remote-smoke: submitted $JOB"

# Wait for the workers' first checkpoint, then SIGKILL the daemon
# mid-run.
COUNT=0
for _ in $(seq 1 400); do
    COUNT=$(find "$STORE/partials" -name '*.cp' 2>/dev/null | wc -l)
    [[ "$COUNT" -ge 1 ]] && break
    sleep 0.05
done
[[ "$COUNT" -ge 1 ]] || fail "no checkpoint appeared before the kill window closed"
kill -9 "$DAEMON_PID"
while kill -0 "$DAEMON_PID" 2>/dev/null; do sleep 0.05; done
DAEMON_PID=
echo "fleet-remote-smoke: $COUNT chunks checkpointed — killed the daemon with -9"
if grep -q "\"id\":\"$JOB\".*\"state\":\"done\"" "$STORE/jobs/journal.log"; then
    fail "the job finished before the kill; the smoke needs a larger job (N, SCALE)"
fi

echo "fleet-remote-smoke: daemon generation 2 (same store and address)"
"$TMP/capyfleet" -serve-http "$ADDR" -store "$STORE" -jobs 0 2>"$TMP/daemon2.log" &
DAEMON_PID=$!
disown "$DAEMON_PID"
wait_addr "$TMP/daemon2.log" >/dev/null || fail "daemon 2 never announced its address"

"$TMP/capyfleet" -http "$URL" -wait "$JOB" -o "$TMP/remote.csv" \
    2>"$TMP/wait.log" || fail "wait for the resumed job failed"

diff "$TMP/single.csv" "$TMP/remote.csv" \
    || fail "the remote workers' report differs from the single-process report"

# "job jNNNNNN done: 48 chunks (L loaded, C computed)" with L > 0: the
# resumed job kept the chunks the workers finished before the kill.
LOADED=$(sed -n 's/.*done: [0-9]* chunks (\([0-9]*\) loaded.*/\1/p' "$TMP/wait.log" | head -1)
[[ -n "$LOADED" ]] || fail "wait summary line missing from client output"
[[ "$LOADED" -gt 0 ]] || fail "the resumed job loaded 0 checkpoints — it started over"

for pid in "$W1_PID" "$W2_PID"; do
    kill -TERM "$pid"
done
wait "$W1_PID" || fail "worker 1 exited non-zero on SIGTERM"
W1_PID=
wait "$W2_PID" || fail "worker 2 exited non-zero on SIGTERM"
W2_PID=

kill "$DAEMON_PID" 2>/dev/null || true
while kill -0 "$DAEMON_PID" 2>/dev/null; do sleep 0.05; done
DAEMON_PID=

echo "fleet-remote-smoke: OK — report byte-identical from 2 remote workers across a daemon kill -9, $LOADED chunks resumed from their checkpoints"
