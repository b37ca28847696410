#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root:
#
#	bash perfbench/run.sh --workload offline-agnews --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under .bench_build in the
# current directory: the Go build cache, the binary, temp files, and the
# trace files of traced runs.
set -euo pipefail
root=$(pwd)
src=$(cd "$(dirname "$0")" && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/gotmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/gotmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= CGO_ENABLED=0
(cd "$src" && go build -trimpath -o "$build/perfbench" .)
exec "$build/perfbench" -root "$root" "$@"
