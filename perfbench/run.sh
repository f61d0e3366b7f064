#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments. Run it from the root of the checkout:
#
#	bash perfbench/run.sh --workload fleet-short --seed 1 --seconds 15 --trace 0
#
# Every build artifact, cache and scratch file stays under .bench_build/
# in the checkout. Without the repository's own go.mod one directory up
# the build fails and the script exits non-zero before printing a result.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -out "$out" "$@"
