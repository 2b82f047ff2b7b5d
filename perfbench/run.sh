#!/usr/bin/env bash
# Builds cmd/master and the benchmark from this checkout, then runs the
# benchmark. Run it from the repository root:
#
#   bash perfbench/run.sh --workload quote-hot --seed 1 --seconds 10 --trace 0
#
# Binaries, the Go build cache and each run's scratch state stay under
# .bench_build; the last line of standard output is the JSON result.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" \
	GOENV=off GOWORK=off GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
go build -o "$out/bin/master" ./cmd/master >&2
(cd perfbench && go build -o "$out/bin/" ./cmd/bench ./cmd/tracedmaster) >&2
exec "$out/bin/bench" -bin "$out/bin" -work "$out" "$@"
