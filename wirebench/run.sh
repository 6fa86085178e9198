#!/usr/bin/env bash
# Builds rbrouter and the wire benchmark from source, then runs the
# benchmark. Run from the repository root:
#
#   bash wirebench/run.sh --workload direct --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache, member logs and span dumps all go
# under .bench_build/ in the repository root.
set -euo pipefail
root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/rbrouter" || ! -f "$root/wirebench/go.mod" ]]; then
	echo "wirebench: run from the repository root (cmd/rbrouter and wirebench/ must be present)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOFLAGS=-mod=mod GOTOOLCHAIN=local
go build -o "$out/bin/rbrouter" ./cmd/rbrouter
(cd "$root/wirebench" && go build -o "$out/bin/wirebench" .)
exec "$out/bin/wirebench" -root "$root" "$@"
