#!/usr/bin/env bash
# Builds the benchmark and the mapad daemon from this checkout, as plain
# (never -race) builds, then runs the benchmark with the given flags.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload serve-http --seed 1 --seconds 25 --trace 0
#
# Build outputs, the Go build cache and every file a run writes stay
# under $CARGO_TARGET_DIR (default .bench_build) in the checkout. The
# builds happen before the benchmark starts, so no set-up time includes
# them.
set -euo pipefail

out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out/bin" "$out/tmp" "$out/config"
out=$(cd "$out" && pwd)

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOFLAGS= GOENV=off CGO_ENABLED=0
export TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"

(cd perfbench && go build -o "$out/bin/perfbench" .)
go build -o "$out/bin/mapad" ./cmd/mapad
exec "$out/bin/perfbench" --mapad "$out/bin/mapad" --workdir "$out" "$@"
