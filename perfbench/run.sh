#!/usr/bin/env bash
# Builds the benchmark and dgserved from the checkout this script sits in,
# then runs the benchmark with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload registry-quick --seed 1 --seconds 30 --trace 0
#
# Everything it builds or writes stays under .bench_build/ at the checkout
# root: binaries, the Go build cache, spans, profiles and daemon caches.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOPATH="$build/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
cd "$here"
go build -o "$build/perfbench" .
go build -o "$build/dgserved" repro/cmd/dgserved
cd "$root"
exec "$build/perfbench" -dgserved "$build/dgserved" -out "$build/perfbench-out" "$@"
