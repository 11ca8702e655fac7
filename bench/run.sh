#!/usr/bin/env bash
# Builds the wsbench harness from source and runs it from the repository
# root with the arguments given, e.g.
#
#   bash bench/run.sh --workload deploy-cached --seed 1 --seconds 20 --trace 0
#
# Every file the Go toolchain and the harness write (build cache, module
# cache, temporary directories, binaries, daemon data) stays under
# .bench_build in the repository; no toolchain download is attempted.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/home" "$out/tmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off CGO_ENABLED=0

(cd "$root/bench" && go build -o "$out/wsbench" .)
cd "$root"
exec "$out/wsbench" "$@"
