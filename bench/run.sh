#!/usr/bin/env bash
# Builds solverbench and runs it with the given arguments. Run from the
# repository root:
#
#   bash bench/run.sh --workload hit-dense --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh compare A.json B.json
#
# Every build product, the Go build cache included, stays under .bench_build
# in the checkout, and no module is fetched: the benchmark module needs only
# the repository itself.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off

(cd bench && go build -o "$build/solverbench" ./solverbench)
exec "$build/solverbench" "$@"
