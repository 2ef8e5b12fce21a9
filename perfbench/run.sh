#!/usr/bin/env bash
# Builds the benchmark from the checkout's own sources and runs it,
# passing every argument through:
#
#   bash perfbench/run.sh --workload paper-dynamic16 --seed 1 --seconds 30 --trace 0
#
# Everything the Go toolchain writes (build cache, temp files, telemetry)
# stays under .bench_build/ in the checkout.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
