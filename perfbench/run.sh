#!/usr/bin/env bash
# Builds the benchmark and approxd from source inside the checkout, then
# runs one workload. Every build product, cache and scratch file stays
# under .bench_build/ at the checkout root.
#
#   bash perfbench/run.sh --workload sweep --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. Exits non-zero, without a result,
# when the sources are missing or do not build.
set -euo pipefail

root="$(pwd)"
if [[ ! -f "$root/perfbench/go.mod" ]]; then
  echo "perfbench: run from the repository root" >&2
  exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/gocache" "$build/gopath" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=
# The go command otherwise starts a detached telemetry process that
# outlives this script; an "off" mode file keeps it from starting.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
printf 'off\n' > "$XDG_CONFIG_HOME/go/telemetry/mode"

(cd "$root" && go build -o "$build/approxd" ./cmd/approxd) >&2
(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2

exec "$build/perfbench" --approxd "$build/approxd" --out "$build/perfbench-out" "$@"
