#!/usr/bin/env bash
# Multi-tenant smoke test: boot wsdeployd with a data directory, create
# two tenants, seed distinct durable state in each over both addressing
# forms (the X-Tenant header and the /v1/tenants/{tenant}/... path
# prefix), kill -9 the daemon, boot a fresh process on the same
# directory, and require every tenant's durable read surface to come
# back byte-identical — independently of its neighbour. CI runs this on
# every push; it is also handy locally: scripts/tenant_smoke.sh [port]
set -euo pipefail

PORT="${1:-8932}"
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
    "${BIN}" -addr "${ADDR}" -data "${DATA}" &
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

NET='{"name":"smoke","servers":[{"name":"S1","powerHz":1e9},{"name":"S2","powerHz":2e9},{"name":"S3","powerHz":3e9}],"bus":{"speedBps":1e8}}'
WF='workflow w op A 20M msg 7581B op B 30M msg 7581B op C 10M'

# seed <tenant>: give the tenant a fleet, a deployed workflow, a joined
# server, and a planning-ledger entry. acme is driven via the X-Tenant
# header, beta via the path prefix — both must land in the same place.
seed() {
    local tenant="$1"
    if [ "${tenant}" = "acme" ]; then
        local curl_t=(curl -sf -H "X-Tenant: ${tenant}")
        local base="http://${ADDR}/v1"
    else
        local curl_t=(curl -sf)
        local base="http://${ADDR}/v1/tenants/${tenant}"
    fi
    "${curl_t[@]}" -X PUT  "${base}/fleet" -d "{\"network\": ${NET}}" >/dev/null
    "${curl_t[@]}" -X POST "${base}/fleet/workflows" \
        -d "{\"id\": \"${tenant}-billing\", \"workflowWdl\": \"${WF}\"}" >/dev/null
    "${curl_t[@]}" -X POST "${base}/fleet/servers" \
        -d '{"name": "joined", "powerHz": 2.5e9}' >/dev/null
    "${curl_t[@]}" -X POST "${base}/deploy" \
        -d "{\"id\": \"${tenant}-plan\", \"workflowWdl\": \"${WF}\", \"network\": ${NET}}" >/dev/null
}

# capture <tenant> <prefix>: snapshot every durable read surface of one
# tenant into ${WORK}/<prefix>_<tenant>_*.json (always via header, so
# before/after files are comparable regardless of how state was seeded).
capture() {
    local tenant="$1" prefix="$2"
    for path in /v1/deployments /v1/fleet/snapshot /v1/fleet/status; do
        curl -sf -H "X-Tenant: ${tenant}" "http://${ADDR}${path}" \
            >"${WORK}/${prefix}_${tenant}$(echo "${path}" | tr / _).json"
    done
}

start
echo "tenant_smoke: creating tenants (pid ${PID})"
curl -sf -X POST "http://${ADDR}/v1/tenants" -d '{"name": "acme"}' >/dev/null
curl -sf -X POST "http://${ADDR}/v1/tenants" -d '{"name": "beta"}' >/dev/null

echo "tenant_smoke: seeding acme (header) and beta (path prefix)"
seed acme
seed beta
capture acme before
capture beta before

echo "tenant_smoke: kill -9 ${PID}"
kill -9 "${PID}"
wait "${PID}" 2>/dev/null || true
PID=""

start
echo "tenant_smoke: restarted (pid ${PID}), comparing both tenants"

FAIL=0
for tenant in acme beta; do
    capture "${tenant}" after
    for path in /v1/deployments /v1/fleet/snapshot /v1/fleet/status; do
        name="${tenant}$(echo "${path}" | tr / _)"
        if ! diff -u "${WORK}/before_${name}.json" "${WORK}/after_${name}.json"; then
            echo "tenant_smoke: tenant ${tenant} ${path} diverged after kill -9" >&2
            FAIL=1
        fi
    done
done

# The default tenant never got a fleet: it must still be empty (409).
CODE="$(curl -s -o /dev/null -w '%{http_code}' "http://${ADDR}/v1/fleet/status")"
if [ "${CODE}" != "409" ]; then
    echo "tenant_smoke: default tenant leaked state: fleet status ${CODE}, want 409" >&2
    FAIL=1
fi

echo "tenant_smoke: tenants after recovery: $(curl -sf "http://${ADDR}/v1/tenants")"
[ "${FAIL}" -eq 0 ] && echo "tenant_smoke: PASS — both tenants survived kill -9 byte-identically"
exit "${FAIL}"
