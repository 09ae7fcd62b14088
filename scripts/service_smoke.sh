#!/usr/bin/env bash
# Service smoke: the crash-survivability contract, end-to-end through the
# installed binaries (docs/SERVICE.md). Run from a build dir containing
# fixdd + fixdctl:
#
#   1. `fixdctl local` computes the uninterrupted baseline digests.
#   2. fixdd up → submit → wait until `fixdctl status` reports a durable
#      checkpoint → SIGKILL the daemon mid-investigation.
#   3. fixdd restarted over the same state dir → the same request-id is
#      deduped against the recovered ledger → the result must say it
#      resumed from the checkpoint, and its digests must equal the
#      baseline byte for byte.
#   4. A probe against a dead endpoint must exit 3 (degraded/unreachable,
#      distinct from error) — the graceful-degradation contract.
set -euo pipefail

BIN_DIR="${1:-.}"
FIXDD="$BIN_DIR/fixdd"
FIXDCTL="$BIN_DIR/fixdctl"
[ -x "$FIXDD" ] && [ -x "$FIXDCTL" ] || {
  echo "service_smoke: $FIXDD / $FIXDCTL not executable" >&2
  exit 2
}

WORK="$(mktemp -d "${TMPDIR:-/tmp}/fixd-smoke-XXXXXX")"
SOCK="$WORK/fixdd.sock"
STATE="$WORK/state"
DAEMON_PID=""
cleanup() {
  [ -n "$DAEMON_PID" ] && kill -9 "$DAEMON_PID" 2>/dev/null || true
  wait 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

# A job that is still running when its first checkpoint lands (about a
# second journaled), so the kill below interrupts it.
SPEC=(--scenario two-pc --n 5 --version 1 --max-violations 100000
      --checkpoint-states 16)

digests() {  # extract "visited_digest=… trail_digest=…" from a RESULT line
  grep -o 'visited_digest=[0-9a-f]* trail_digest=[0-9a-f]*' <<<"$1"
}

start_daemon() {
  "$FIXDD" --endpoint "unix:$SOCK" --state-dir "$STATE" --workers 1 &
  DAEMON_PID=$!
  for _ in $(seq 1 100); do
    [ -S "$SOCK" ] && return 0
    kill -0 "$DAEMON_PID" 2>/dev/null || {
      echo "service_smoke: daemon died during startup" >&2
      exit 1
    }
    sleep 0.1
  done
  echo "service_smoke: daemon never bound $SOCK" >&2
  exit 1
}

echo "== baseline (in-process)"
BASELINE="$("$FIXDCTL" local "${SPEC[@]}")"
echo "$BASELINE"
WANT="$(digests "$BASELINE")"

echo "== phase 1: daemon up, submit, kill -9 after the first checkpoint"
start_daemon
SUB="$("$FIXDCTL" --endpoint "unix:$SOCK" --request-id 4242 submit "${SPEC[@]}")"
echo "$SUB"
JOB="$(sed -n 's/^SUBMITTED job=\([0-9]*\).*/\1/p' <<<"$SUB")"
CHECKPOINTS=0
for _ in $(seq 1 1000); do
  STATUS="$("$FIXDCTL" --endpoint "unix:$SOCK" status "$JOB")"
  CHECKPOINTS="$(sed -n 's/.* checkpoints=\([0-9]*\).*/\1/p' <<<"$STATUS")"
  [ "${CHECKPOINTS:-0}" -ge 1 ] && break
  sleep 0.01
done
echo "$STATUS"
if [ "${CHECKPOINTS:-0}" -lt 1 ]; then
  echo "service_smoke: FAIL — job never checkpointed before the kill" >&2
  exit 1
fi
kill -9 "$DAEMON_PID"
wait "$DAEMON_PID" 2>/dev/null || true
DAEMON_PID=""

echo "== phase 2: restart over the same state dir, resume, compare"
start_daemon
RESUB="$("$FIXDCTL" --endpoint "unix:$SOCK" --request-id 4242 submit "${SPEC[@]}")"
echo "$RESUB"
grep -q 'duplicate=1' <<<"$RESUB" || {
  echo "service_smoke: FAIL — request ledger did not survive the crash" >&2
  exit 1
}
JOB="$(sed -n 's/^SUBMITTED job=\([0-9]*\).*/\1/p' <<<"$RESUB")"
RESULT="$("$FIXDCTL" --endpoint "unix:$SOCK" --wait-budget-ms 120000 result "$JOB")"
echo "$RESULT"
grep -q 'resumed=1' <<<"$RESULT" || {
  echo "service_smoke: FAIL — the job did not resume from a checkpoint" \
       "(the kill missed the running search)" >&2
  exit 1
}
GOT="$(digests "$RESULT")"
if [ "$GOT" != "$WANT" ]; then
  echo "service_smoke: FAIL — digest mismatch after crash-restart" >&2
  echo "  want: $WANT" >&2
  echo "  got:  $GOT" >&2
  exit 1
fi

echo "== phase 3: graceful shutdown"
"$FIXDCTL" --endpoint "unix:$SOCK" shutdown
wait "$DAEMON_PID" 2>/dev/null || true
DAEMON_PID=""

echo "== phase 4: unreachable endpoint degrades (exit 3)"
set +e
"$FIXDCTL" --endpoint "unix:$WORK/nobody.sock" --retries 2 --budget-ms 1000 ping
RC=$?
set -e
if [ "$RC" != 3 ]; then
  echo "service_smoke: FAIL — expected exit 3 for unreachable, got $RC" >&2
  exit 1
fi

echo "service_smoke: PASS — resumed from a checkpoint, digests identical," \
     "degradation clean"
