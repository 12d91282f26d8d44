#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it; every argument is
# passed on (see main.go). Run it from the repository root:
#
#   bash perfbench/run.sh --workload point_uniform --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and span files stay under
# .bench_build/ in the repository root.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/unn.go" ]]; then
	echo "perfbench: run from the root of the unn repository (no go.mod/unn.go in $root)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp"
# Keep every file the Go toolchain writes (build cache, module path,
# temporary files, telemetry counters) inside the checkout, and never
# reach for the network.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -dir "$here" -out "$out" "$@"
