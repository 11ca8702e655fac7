#!/usr/bin/env bash
# Ingest backpressure smoke test: boot wsdeployd with room for a single
# deploy in flight, fire a burst of concurrent deploys, and require
# (1) at least one deploy planned, (2) at least one shed with 503 +
# Retry-After, (3) the shed visible at /metrics, and (4) the daemon
# still healthy afterwards (a normal deploy succeeds once the burst
# drains). CI runs this on every push; locally:
#   scripts/load_smoke.sh [port]
set -euo pipefail

PORT="${1:-8934}"
ADDR="127.0.0.1:${PORT}"
WORK="$(mktemp -d)"
BIN="${WORK}/wsdeployd"
PID=""

cleanup() {
    [ -n "${PID}" ] && kill -9 "${PID}" 2>/dev/null || true
    rm -rf "${WORK}"
}
trap cleanup EXIT

cd "$(dirname "$0")/.."
go build -o "${BIN}" ./cmd/wsdeployd

# One slot: while the first admitted deploy plans, the rest of the
# burst must shed.
"${BIN}" -addr "${ADDR}" -ingestqueue 1 &
PID=$!
for _ in $(seq 1 100); do
    if curl -sf "http://${ADDR}/v1/readyz" >/dev/null 2>&1; then
        break
    fi
    sleep 0.1
done
curl -sf "http://${ADDR}/v1/readyz" >/dev/null || { echo "load_smoke: daemon not ready" >&2; exit 1; }

NET='{"name":"smoke","servers":[{"name":"S1","powerHz":1e9},{"name":"S2","powerHz":2e9},{"name":"S3","powerHz":3e9}],"bus":{"speedBps":1e8}}'
# A workflow big enough that one portfolio plan takes a good fraction of
# a second — the first admitted deploy must still be planning while the
# rest of the burst arrives.
WF='workflow burst'
for i in $(seq 1 24); do
    [ "${i}" -gt 1 ] && WF="${WF} msg 7581B"
    WF="${WF} op O${i} $((10 + i % 7 * 5))M"
done

# body <seed> — unique seeds keep the requests distinct: the portfolio
# includes seeded planners, so every plan key keeps the seed and no
# deploy of the burst is a cache hit.
body() {
    echo "{\"workflowWdl\": \"${WF}\", \"network\": ${NET}, \"algorithm\": \"portfolio\", \"seed\": $1}"
}

echo "load_smoke: firing 12 concurrent deploys at a 1-slot pipeline (pid ${PID})"
CURLS=()
for i in $(seq 1 12); do
    curl -s -o /dev/null -D "${WORK}/head.${i}" -X POST "http://${ADDR}/v1/deploy" -d "$(body "${i}")" &
    CURLS+=($!)
done
wait "${CURLS[@]}"

OK=0
SHED=0
for i in $(seq 1 12); do
    CODE="$(head -1 "${WORK}/head.${i}" | awk '{print $2}')"
    case "${CODE}" in
    200) OK=$((OK + 1)) ;;
    503)
        SHED=$((SHED + 1))
        grep -qi '^Retry-After:' "${WORK}/head.${i}" || {
            echo "load_smoke: 503 without Retry-After header" >&2
            cat "${WORK}/head.${i}" >&2
            exit 1
        }
        ;;
    *)
        echo "load_smoke: unexpected status ${CODE}" >&2
        cat "${WORK}/head.${i}" >&2
        exit 1
        ;;
    esac
done
echo "load_smoke: burst done — ${OK} planned, ${SHED} shed"
[ "${OK}" -ge 1 ] || { echo "load_smoke: no deploy succeeded" >&2; exit 1; }
[ "${SHED}" -ge 1 ] || { echo "load_smoke: single-slot pipeline shed nothing" >&2; exit 1; }

METRICS="$(curl -sf "http://${ADDR}/metrics")"
SHED_METRIC="$(printf '%s\n' "${METRICS}" | awk '/^ingest_shed_backlog/ {print $2}')"
if [ -z "${SHED_METRIC}" ] || [ "${SHED_METRIC}" -lt 1 ]; then
    echo "load_smoke: /metrics does not report the shed (ingest_shed_backlog=${SHED_METRIC:-missing})" >&2
    printf '%s\n' "${METRICS}" | grep '^ingest' >&2 || true
    exit 1
fi
echo "load_smoke: /metrics ingest_shed_backlog=${SHED_METRIC}"

# The daemon must still plan once the burst drains.
sleep 0.5
CODE="$(curl -s -o /dev/null -w '%{http_code}' -X POST "http://${ADDR}/v1/deploy" -d "$(body 99)")"
if [ "${CODE}" != "200" ]; then
    echo "load_smoke: post-burst deploy returned ${CODE}" >&2
    exit 1
fi
echo "load_smoke: PASS — backpressure shed ${SHED}/12, counters exported, daemon healthy"
