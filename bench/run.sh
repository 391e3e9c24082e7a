#!/usr/bin/env bash
# Builds the benchmark from source and runs it, keeping everything the Go
# toolchain and the benchmark write inside <checkout>/.bench_build. Run from
# the root of a checkout:
#
#   bash bench/run.sh --workload scan_sweep --seed 1 --seconds 20 --trace 0
#
# It fails (before printing any result) when the repository's own packages
# are not there to build against.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/gotmp"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/gotmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false

go -C "$here" build -o "$build/censys-bench" .
exec "$build/censys-bench" -scratch "$build" "$@"
