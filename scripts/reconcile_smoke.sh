#!/usr/bin/env bash
# Reconciler smoke test: boot wsdeployd with -data and -reconcile, POST
# a declarative spec, wait for the background loop to converge it
# (observedGeneration == generation), kill -9 the daemon, boot a fresh
# process on the same directory, and require the recovered status to
# show no generation regression, to re-converge a post-restart revision
# and then to journal nothing while it stays converged. CI runs this on
# every push; locally:
#   scripts/reconcile_smoke.sh [port]
set -euo pipefail

PORT="${1:-8933}"
ADDR="127.0.0.1:${PORT}"
WORK="$(mktemp -d)"
DATA="${WORK}/data"
BIN="${WORK}/wsdeployd"
PID=""

cleanup() {
    [ -n "${PID}" ] && kill -9 "${PID}" 2>/dev/null || true
    rm -rf "${WORK}"
}
trap cleanup EXIT

go build -o "${BIN}" ./cmd/wsdeployd

start() {
    "${BIN}" -addr "${ADDR}" -data "${DATA}" -reconcile -reconcileinterval 100ms &
    PID=$!
    for _ in $(seq 1 100); do
        if curl -sf "http://${ADDR}/v1/readyz" >/dev/null 2>&1; then
            return 0
        fi
        sleep 0.1
    done
    echo "wsdeployd did not become ready on ${ADDR}" >&2
    exit 1
}

# status <field> — current value of a numeric spec-status field.
status_field() {
    curl -sf "http://${ADDR}/v1/specs/app/status" |
        grep -o "\"$1\": [0-9]*" | grep -o '[0-9]*'
}

# wait_converged — poll until the background loop reports converged.
wait_converged() {
    for _ in $(seq 1 100); do
        if curl -sf "http://${ADDR}/v1/specs/app/status" | grep -q '"converged": true'; then
            return 0
        fi
        sleep 0.1
    done
    echo "reconcile_smoke: spec never converged" >&2
    curl -sf "http://${ADDR}/v1/specs/app/status" >&2 || true
    exit 1
}

NET='{"name":"smoke","servers":[{"name":"S1","powerHz":1e9},{"name":"S2","powerHz":2e9},{"name":"S3","powerHz":3e9}],"bus":{"speedBps":1e8}}'
WF_A='workflow a op A 20M msg 7581B op B 30M msg 7581B op C 10M'
WF_B='workflow b op D 15M msg 7581B op E 25M'

start
echo "reconcile_smoke: posting spec (pid ${PID})"

curl -sf -X POST "http://${ADDR}/v1/specs" -d "{
  \"name\": \"app\",
  \"spec\": {
    \"network\": ${NET},
    \"workflows\": [
      {\"id\": \"billing\", \"workflowWdl\": \"${WF_A}\"},
      {\"id\": \"reports\", \"workflowWdl\": \"${WF_B}\"}
    ]
  }
}" >/dev/null

wait_converged
GEN_BEFORE="$(status_field generation)"
OBS_BEFORE="$(status_field observedGeneration)"
echo "reconcile_smoke: converged at generation ${GEN_BEFORE} (observed ${OBS_BEFORE})"

echo "reconcile_smoke: kill -9 ${PID}"
kill -9 "${PID}"
wait "${PID}" 2>/dev/null || true
PID=""

start
echo "reconcile_smoke: restarted (pid ${PID}), checking recovered status"

GEN_AFTER="$(status_field generation)"
OBS_AFTER="$(status_field observedGeneration)"
if [ "${GEN_AFTER}" -lt "${GEN_BEFORE}" ] || [ "${OBS_AFTER}" -gt "${GEN_AFTER}" ]; then
    echo "reconcile_smoke: generation regressed after kill -9 (before gen=${GEN_BEFORE} obs=${OBS_BEFORE}, after gen=${GEN_AFTER} obs=${OBS_AFTER})" >&2
    exit 1
fi
wait_converged
echo "reconcile_smoke: recovered converged at generation ${GEN_AFTER} (observed $(status_field observedGeneration))"

# A post-restart revision (shrink the portfolio) must bump the
# generation and converge through the recovered reconciler.
curl -sf -X POST "http://${ADDR}/v1/specs" -d "{
  \"name\": \"app\",
  \"spec\": {
    \"network\": ${NET},
    \"workflows\": [
      {\"id\": \"billing\", \"workflowWdl\": \"${WF_A}\"}
    ]
  }
}" >/dev/null

wait_converged
GEN_FINAL="$(status_field generation)"
if [ "${GEN_FINAL}" -le "${GEN_AFTER}" ]; then
    echo "reconcile_smoke: revision did not bump the generation (${GEN_AFTER} -> ${GEN_FINAL})" >&2
    exit 1
fi
# A converged, quiet spec journals nothing: ten passes at 100 ms must
# leave the tenant's last WAL sequence number where it was.
last_seq() {
    curl -sf "http://${ADDR}/v1/store/status" |
        grep -o '"lastSeq": [0-9]*' | head -n 1 | grep -o '[0-9]*'
}
SEQ_CONVERGED="$(last_seq)"
sleep 1
SEQ_QUIET="$(last_seq)"
if [ "${SEQ_QUIET}" != "${SEQ_CONVERGED}" ]; then
    echo "reconcile_smoke: quiet passes journaled records (lastSeq ${SEQ_CONVERGED} -> ${SEQ_QUIET})" >&2
    exit 1
fi
echo "reconcile_smoke: lastSeq held at ${SEQ_QUIET} across 1 s of quiet passes"

echo "reconcile_smoke: PASS — spec converged, survived kill -9, re-converged revision at generation ${GEN_FINAL}, and stayed quiet"
