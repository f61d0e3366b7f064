#!/usr/bin/env bash
# fleet-resume-smoke: end-to-end crash/resume check of the capyfleet
# daemon with real processes and a real SIGKILL. Starts a daemon,
# submits a job, kill -9s the daemon after checkpoints appear, restarts
# it over the same store, waits for the resumed job, and diffs the
# served report against the single-process reference — byte-identical,
# with the resume visibly reloading checkpointed chunks. Before the
# restart it tears the job journal the way a kill inside an append
# would, with half a record line and no newline; the restarted daemon
# must cut it off. Then it submits the same spec again to the restarted
# daemon: that warm job must compute no chunk and serve the same bytes,
# and every line of the journal must be a whole record.
set -euo pipefail

N=${N:-192}
SEED=${SEED:-7}
SCALE=${SCALE:-0.05}
CHUNK=${CHUNK:-4} # 48 chunks: plenty of kill points

TMP=$(mktemp -d)
STORE="$TMP/store"
cleanup() {
    [[ -n "${DAEMON_PID:-}" ]] && kill -9 "$DAEMON_PID" 2>/dev/null || true
    rm -rf "$TMP"
}
trap cleanup EXIT

fail() {
    echo "fleet-resume-smoke: $1" >&2
    for log in daemon1.log daemon2.log wait.log warm.log; do
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

echo "fleet-resume-smoke: building capyfleet"
go build -o "$TMP/capyfleet" ./cmd/capyfleet

echo "fleet-resume-smoke: single-process reference (-n $N -seed $SEED -scale $SCALE -chunk $CHUNK)"
"$TMP/capyfleet" -n "$N" -seed "$SEED" -scale "$SCALE" -chunk "$CHUNK" -jobs 2 \
    -o "$TMP/single.csv" 2>/dev/null

echo "fleet-resume-smoke: daemon generation 1"
"$TMP/capyfleet" -serve-http 127.0.0.1:0 -store "$STORE" -jobs 1 2>"$TMP/daemon1.log" &
DAEMON_PID=$!
disown "$DAEMON_PID" # keep bash's "Killed" job notice out of the output
ADDR=$(wait_addr "$TMP/daemon1.log") || fail "daemon 1 never announced its address"

JOB=$("$TMP/capyfleet" -http "http://$ADDR" -submit \
    -n "$N" -seed "$SEED" -scale "$SCALE" -chunk "$CHUNK" 2>>"$TMP/daemon1.log") \
    || fail "submit failed"
echo "fleet-resume-smoke: submitted $JOB"

# Wait for at least two chunk checkpoints, then SIGKILL mid-run — the
# crash the architecture promises to survive.
COUNT=0
for _ in $(seq 1 200); do
    COUNT=$(find "$STORE/partials" -name '*.cp' 2>/dev/null | wc -l)
    [[ "$COUNT" -ge 2 ]] && break
    sleep 0.05
done
[[ "$COUNT" -ge 2 ]] || fail "no checkpoints appeared before the kill window closed"
echo "fleet-resume-smoke: $COUNT chunks checkpointed — kill -9"
kill -9 "$DAEMON_PID"
while kill -0 "$DAEMON_PID" 2>/dev/null; do sleep 0.05; done
DAEMON_PID=

# A kill inside a journal append leaves part of a record line with no
# newline at the end of the log.
JOURNAL="$STORE/jobs/journal.log"
RECORD=$(head -n 1 "$JOURNAL")
[[ -n "$RECORD" ]] || fail "the journal holds no record of $JOB"
printf '%s' "${RECORD:0:${#RECORD}/2}" >>"$JOURNAL"
echo "fleet-resume-smoke: tore the journal with half a record line"

echo "fleet-resume-smoke: daemon generation 2 (same store)"
"$TMP/capyfleet" -serve-http 127.0.0.1:0 -store "$STORE" -jobs 1 2>"$TMP/daemon2.log" &
DAEMON_PID=$!
disown "$DAEMON_PID"
ADDR=$(wait_addr "$TMP/daemon2.log") || fail "daemon 2 never announced its address"

"$TMP/capyfleet" -http "http://$ADDR" -wait "$JOB" -o "$TMP/resumed.csv" \
    2>"$TMP/wait.log" || fail "wait for resumed job failed"

diff "$TMP/single.csv" "$TMP/resumed.csv" \
    || fail "resumed report differs from single-process report"

# The wait summary proves the resume actually reloaded checkpoints:
# "job jNNNNNN done: 48 chunks (L loaded, C computed)" with L > 0.
LOADED=$(sed -n 's/.*done: [0-9]* chunks (\([0-9]*\) loaded.*/\1/p' "$TMP/wait.log" | head -1)
[[ -n "$LOADED" ]] || fail "wait summary line missing from client output"
[[ "$LOADED" -gt 0 ]] || fail "resumed job loaded 0 checkpoints — it started over"

# A warm resubmission of the same spec: every chunk and the report are
# already in the store, so the new job computes nothing.
WARM=$("$TMP/capyfleet" -http "http://$ADDR" -submit \
    -n "$N" -seed "$SEED" -scale "$SCALE" -chunk "$CHUNK" 2>>"$TMP/warm.log") \
    || fail "warm submit failed"
"$TMP/capyfleet" -http "http://$ADDR" -wait "$WARM" -o "$TMP/warm.csv" \
    2>>"$TMP/warm.log" || fail "wait for warm job $WARM failed"
diff "$TMP/single.csv" "$TMP/warm.csv" \
    || fail "warm job's report differs from single-process report"
COMPUTED=$(sed -n 's/.*done: [0-9]* chunks ([0-9]* loaded, \([0-9]*\) computed).*/\1/p' "$TMP/warm.log" | head -1)
[[ -n "$COMPUTED" ]] || fail "warm wait summary line missing from client output"
[[ "$COMPUTED" -eq 0 ]] || fail "warm job $WARM computed $COMPUTED chunks, want 0"

# The torn tail is gone: every line of the journal is one whole record,
# and the log ends in a newline. A record appended after a torn tail
# that was not cut would share its line, which the pattern rejects.
RECORD_RE='^\{"id":"j[0-9]+","spec":\{[^{}]*\},"spec_hash":"[0-9a-f]{64}","state":"(queued|done)"\}$'
BAD=$(grep -Evc "$RECORD_RE" "$JOURNAL" || true)
[[ "$BAD" -eq 0 ]] || fail "$BAD journal lines are not whole records: $(grep -Ev "$RECORD_RE" "$JOURNAL")"
[[ -z "$(tail -c 1 "$JOURNAL")" ]] || fail "the journal ends in a torn line"

kill "$DAEMON_PID" 2>/dev/null || true
while kill -0 "$DAEMON_PID" 2>/dev/null; do sleep 0.05; done
DAEMON_PID=

echo "fleet-resume-smoke: OK — report byte-identical after kill -9 and a torn journal, $LOADED chunks resumed from checkpoints; warm resubmission computed 0"
