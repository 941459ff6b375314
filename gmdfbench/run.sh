#!/usr/bin/env bash
# Builds the GMDF benchmark from the checkout's sources and runs it:
#
#   bash gmdfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout (Go build cache, temporary files, the binary, span files and
# same-seed fingerprints). Outside a checkout of the repository the build
# fails and the script exits non-zero without printing a result.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOPROXY=off GOFLAGS=-mod=mod GOTOOLCHAIN=local

(cd "$root/gmdfbench" && go build -o "$build/gmdfbench-bin" .)
exec "$build/gmdfbench-bin" -root "$root" -state .bench_build/gmdfbench-state "$@"
