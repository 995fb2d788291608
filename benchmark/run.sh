#!/usr/bin/env bash
# Builds the benchmark from the source in this checkout and runs it with the
# given arguments. Run it from the repository root:
#
#   bash benchmark/run.sh --workload graphx-pr-th --seed 1 --seconds 10 --trace 0
#
# The Go build cache, temporary files and the binary all live under
# .bench_build/, so the build reads and writes nothing outside the checkout.
set -euo pipefail

if [[ ! -f benchmark/go.mod ]]; then
	echo "run.sh: run from the repository root" >&2
	exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod CGO_ENABLED=0

(cd benchmark && go build -o "$out/benchmark" .) >&2
exec "$out/benchmark" "$@"
