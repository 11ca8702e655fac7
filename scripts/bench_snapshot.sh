#!/usr/bin/env bash
# Benchmark snapshot: run the cost-model, portfolio-engine,
# chaos-recovery, ingest, WAL, cached-deploy and composite-snapshot
# benchmarks with -benchmem, each five times at a fixed iteration
# count, and fold the results into a JSON snapshot: per benchmark the
# median ns/op, B/op and allocs/op of the repeats with their min-max,
# and a host block (CPU model, GOMAXPROCS, Go version), so two
# snapshots compare like for like and a perf regression shows up as a
# reviewable diff instead of an anecdote.
#
#   scripts/bench_snapshot.sh [output.json]        # default BENCH_pr27.json
#   scripts/bench_snapshot.sh delta [base] [head]  # default BENCH_baseline.json -> BENCH_pr27.json
#
# BENCH_pr27.json is the committed point of comparison. BENCH_pr22.json
# was taken the same way before the deploy envelope was decoded in
# place, BENCH_pr20.json without the composite-snapshot benchmark, and
# BENCH_pr18.json without the cached-deploy one either; the older
# snapshots (BENCH_baseline.json, BENCH_pr8/9/10.json) hold one sample
# per benchmark. `delta` reads them all, and prints the per-benchmark
# change between any two snapshots (CI runs it non-blocking so drift
# shows up in the job log without gating merges).
#
# Every benchmark runs -count 5; BENCHTIME (default 20x) sets
# -benchtime. Benchmark names are recorded without the -GOMAXPROCS
# suffix go test appends; GOMAXPROCS goes in the host block instead.
set -euo pipefail

cd "$(dirname "$0")/.."

if [ "${1:-}" = "delta" ]; then
    BASE="${2:-BENCH_baseline.json}"
    HEAD="${3:-BENCH_pr27.json}"
    echo "bench: delta ${BASE} -> ${HEAD}" >&2
    awk '
    FNR == 1 { file++ }
    /"name":/ {
        match($0, /"name": "[^"]*"/)
        name = substr($0, RSTART + 9, RLENGTH - 10)
        ns = 0; al = 0
        if (match($0, /"ns_per_op": [0-9.eE+-]+/))     ns = substr($0, RSTART + 13, RLENGTH - 13)
        if (match($0, /"allocs_per_op": [0-9.eE+-]+/)) al = substr($0, RSTART + 17, RLENGTH - 17)
        if (file == 1) {
            if (!(name in base_ns)) order[++n] = name
            base_ns[name] = ns; base_al[name] = al
        } else {
            if (!(name in base_ns) && !(name in head_ns)) order[++n] = name
            head_ns[name] = ns; head_al[name] = al
        }
    }
    END {
        printf "%-44s  %12s  %12s  %8s  %s\n", "benchmark", "base ns/op", "head ns/op", "ns delta", "allocs/op"
        for (i = 1; i <= n; i++) {
            name = order[i]
            if (!(name in head_ns)) {
                printf "%-44s  %12s  %12s  %8s\n", name, base_ns[name], "-", "gone"
            } else if (!(name in base_ns)) {
                printf "%-44s  %12s  %12s  %8s  %s\n", name, "-", head_ns[name], "new", head_al[name]
            } else {
                pct = base_ns[name] > 0 ? (head_ns[name] - base_ns[name]) / base_ns[name] * 100 : 0
                printf "%-44s  %12s  %12s  %+7.1f%%  %s -> %s\n", \
                    name, base_ns[name], head_ns[name], pct, base_al[name], head_al[name]
            }
        }
    }' "${BASE}" "${HEAD}"
    exit 0
fi

OUT="${1:-BENCH_pr27.json}"
COUNT=5
BENCHTIME="${BENCHTIME:-20x}"
RAW="$(mktemp)"
trap 'rm -f "${RAW}"' EXIT

run() { # run <package> <bench regexp>
    echo "bench: go test -bench '$2' -benchmem -count ${COUNT} -benchtime ${BENCHTIME} $1" >&2
    go test -run '^$' -bench "$2" -benchmem -count "${COUNT}" -benchtime "${BENCHTIME}" "$1" |
        awk -v pkg="$1" '/^cpu: / || /^Benchmark/ {print pkg, $0}' >>"${RAW}"
}

run . 'BenchmarkPortfolio|BenchmarkCostEvaluate'
run ./internal/chaos 'BenchmarkChaosRecovery'
run ./internal/ingest 'BenchmarkIngest'
run ./internal/store 'BenchmarkWAL'
run ./internal/httpapi 'BenchmarkDeployCached|BenchmarkSnapshotNow'

awk -v benchtime="${BENCHTIME}" -v count="${COUNT}" -v gover="$(go env GOVERSION) $(go env GOOS)/$(go env GOARCH)" '
# median sorts the n values of metric m of benchmark k (insertion sort:
# n is the -count) and returns the middle one, or the mean of the two
# middle ones.
function median(k, m, n,    i, j, v, a) {
    for (i = 1; i <= n; i++) {
        v = vals[k, m, i] + 0
        for (j = i - 1; j >= 1 && a[j] > v; j--) a[j + 1] = a[j]
        a[j + 1] = v
    }
    lo[m] = a[1]; hi[m] = a[n]
    return n % 2 ? a[(n + 1) / 2] : (a[n / 2] + a[n / 2 + 1]) / 2
}
$2 == "cpu:" { cpu = $0; sub(/^[^ ]+ cpu: /, "", cpu); next }
{
    # <pkg> <name>-<GOMAXPROCS> <iters> then unit-tagged pairs:
    # benchmarks may emit custom metrics (e.g. incidents/op), so find
    # each standard unit and take the value preceding it instead of
    # trusting positions.
    name = $2; procs = 1
    if (match(name, /-[0-9]+$/)) { procs = substr(name, RSTART + 1); name = substr(name, 1, RSTART - 1) }
    k = $1 SUBSEP name
    if (!(k in runs)) { order[++nk] = k; pkg[k] = $1; bname[k] = name }
    r = ++runs[k]
    iters[k] = $3
    vals[k, "ns", r] = 0; vals[k, "bytes", r] = 0; vals[k, "allocs", r] = 0
    for (i = 4; i <= NF; i++) {
        if ($i == "ns/op") vals[k, "ns", r] = $(i - 1)
        else if ($i == "B/op") vals[k, "bytes", r] = $(i - 1)
        else if ($i == "allocs/op") vals[k, "allocs", r] = $(i - 1)
    }
}
END {
    printf "{\n"
    printf "  \"benchtime\": \"%s\",\n", benchtime
    printf "  \"count\": %d,\n", count
    printf "  \"host\": {\"cpu\": \"%s\", \"gomaxprocs\": %d, \"go\": \"%s\"},\n", cpu, procs, gover
    printf "  \"benchmarks\": [\n"
    for (i = 1; i <= nk; i++) {
        k = order[i]
        ns = median(k, "ns", runs[k]); bytes = median(k, "bytes", runs[k]); allocs = median(k, "allocs", runs[k])
        printf "    {\"package\": \"%s\", \"name\": \"%s\", \"runs\": %d, \"iterations\": %d, " \
            "\"ns_per_op\": %.10g, \"ns_per_op_min\": %.10g, \"ns_per_op_max\": %.10g, " \
            "\"bytes_per_op\": %.10g, \"bytes_per_op_min\": %.10g, \"bytes_per_op_max\": %.10g, " \
            "\"allocs_per_op\": %.10g, \"allocs_per_op_min\": %.10g, \"allocs_per_op_max\": %.10g}%s\n",
            pkg[k], bname[k], runs[k], iters[k],
            ns, lo["ns"], hi["ns"], bytes, lo["bytes"], hi["bytes"], allocs, lo["allocs"], hi["allocs"],
            i < nk ? "," : ""
    }
    printf "  ]\n}\n"
}' "${RAW}" >"${OUT}"

echo "bench: wrote $(grep -c '"name"' "${OUT}") benchmarks to ${OUT}" >&2
