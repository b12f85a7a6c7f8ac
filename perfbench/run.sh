#!/usr/bin/env bash
# Builds the benchmark from the checkout's own sources and runs it.
#
#   bash perfbench/run.sh --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the root of the repository. Everything the build writes
# (Go build cache, temporary files, the binary) goes under
# $CARGO_TARGET_DIR, or .bench_build when that is unset, inside the
# current directory.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out"
out=$(cd "$out" && pwd)

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOFLAGS=-mod=mod GOPROXY=off
export GOTOOLCHAIN=local GOWORK=off
export PERFBENCH_SPANS="$out"
mkdir -p "$GOTMPDIR"

(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
