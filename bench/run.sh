#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it with the given
# arguments, e.g.
#
#   bash bench/run.sh --workload build-mst-100k --seed 1 --seconds 15 --trace 0
#   bash bench/run.sh --reps 5 --traced --out bench-report.json
#
# The Go build cache, module cache, tool configuration and the binary all
# stay under .bench_build/ at the checkout root. Outside a full checkout
# (no root go.mod beside bench/) the build fails and the script exits
# non-zero without printing a result.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/go-cache"
export GOPATH="$out/go-path"
export GOMODCACHE="$out/go-path/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

go -C "$root/bench" build -buildvcs=false -o "$out/kktbench" .
exec "$out/kktbench" "$@"
