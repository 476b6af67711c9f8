#!/usr/bin/env bash
# Builds the benchmark harness from source and runs it with the given
# arguments. This is the command BENCHMARK.json names; it is run from the
# root of a checkout:
#
#	bash benchmark/run.sh --workload deepcam_cold --seed 1 --seconds 10 --trace 0
#	bash benchmark/run.sh -repeat 5            # every workload, 5 runs each
#	bash benchmark/run.sh -compare a.json b.json
#
# Everything the build writes (object cache, module cache, the go command's
# own counters, the binary) stays under .bench_build/ in the checkout.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/scipp-benchmark" .)
exec "$build/scipp-benchmark" "$@"
