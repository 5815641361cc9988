#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given
# arguments. Run from the repository root:
#
#   bash e2ebench/run.sh --workload serve_mixed --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, the toolchain's config and
# temporary files, the binary, and the benchmark's temporary registries.
set -euo pipefail

root="$PWD"
out="$root/.bench_build"
mkdir -p "$out/go-cache" "$out/go-path" "$out/tmp" "$out/config"
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTELEMETRY=off GOTOOLCHAIN=local
export GOFLAGS=-mod=mod GOPROXY=off GOSUMDB=off GOWORK=off

bin="$out/e2ebench"
(cd "$root/e2ebench" && go build -o "$bin" .)
exec "$bin" "$@"
