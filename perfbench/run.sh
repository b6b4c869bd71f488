#!/usr/bin/env bash
# Builds the benchmark and the bdrmapitd daemon it drives from this
# checkout's source, then runs one workload. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload infer-wide --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache, and the generated dataset cache
# all live under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd perfbench && go build -o "$out/" . repro/cmd/bdrmapitd) >&2
exec "$out/perfbench" --root "$root" --bin "$out" "$@"
