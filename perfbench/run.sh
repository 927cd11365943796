#!/usr/bin/env bash
# Builds the FIRST benchmark from the sources of the checkout it is run in,
# then runs it with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload des-federate --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache and the Go tool's own state all live under
# .bench_build/ in the checkout, so nothing is read from or written to the
# user's home directory.
set -euo pipefail

root=$(pwd)
bench_dir=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export GOENV=off
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=

(cd "$bench_dir" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
