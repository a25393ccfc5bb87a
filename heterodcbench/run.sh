#!/usr/bin/env bash
# Builds heterodcbench from this checkout's sources and runs it with the
# given arguments. Run it from the repository root:
#
#   bash heterodcbench/run.sh --workload fleet --seed 1 --seconds 30 --trace 0
#
# The binary, the Go build cache and the span files all stay under
# .bench_build/ in the checkout. Outside a full checkout (no ../go.mod for
# the module replacement) the build fails and the script exits non-zero.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" GOMODCACHE="$out/go-path/pkg/mod" GOENV=off \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-buildvcs=false
(cd "$root/heterodcbench" && go build -o "$out/heterodcbench" .)
exec "$out/heterodcbench" "$@"
