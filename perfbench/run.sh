#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload oltp-pipelined --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh compare <old-results-dir> <new-results-dir>
#
# Everything the build and the runs write stays under .bench_build/ in
# the checkout: the Go build cache, the binary, WAL directories, traces.
set -euo pipefail
root=$(pwd)
if [[ ! -f "$root/perfbench/go.mod" ]]; then
	echo "run.sh: run from the repository root" >&2
	exit 2
fi
out="$root/.bench_build/perfbench"
mkdir -p "$out"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOENV=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
