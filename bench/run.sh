#!/usr/bin/env bash
# Builds the benchmark and runs one workload once. Run it from the
# repository root:
#
#   bash bench/run.sh --workload fleet_shift_tiered --seed 1 --seconds 10 --trace 0
#
# The benchmark is the test binary of the bench module (host-clock reads live
# in its _test.go files; see bench/doc.go). The build cache, temporary files
# and the binary stay under .bench_build/ in the current directory, which the
# root .gitignore lists. The last line of standard output is the result JSON.
set -euo pipefail

root=$PWD
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=

(cd "$root/bench" && go test -c -o "$out/bench.test" .) >&2
# bench/go.mod makes the benchmark a module of its own, which the root
# module's `go test ./...` does not reach; so every run first runs the
# package's tests (the 1/50-scale self-test, under a second) and stops if
# they fail.
(cd "$root/bench" && "$out/bench.test" -test.count=1) >&2
exec "$out/bench.test" "$@"
