#!/usr/bin/env bash
# Builds the kronperf benchmark from source and runs it. Run it from the
# repository root; every argument is passed through:
#
#   bash kronperf/run.sh --workload serve-delta --seed 1 --seconds 20 --trace 0
#
# The build cache, the binary and each run's result file live under
# .bench_build/kronperf in the repository, so nothing is read or written
# outside it.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build/kronperf"
mkdir -p "$out"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOENV=off GOWORK=off GOTOOLCHAIN=local GOFLAGS=

commit=unknown
if [ -e "$root/.git" ]; then
	commit="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
fi

go -C "$root/kronperf" build -buildvcs=false -ldflags "-X main.commit=$commit" -o "$out/kronperf" . >&2
exec "$out/kronperf" --out "$out" "$@"
