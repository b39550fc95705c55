#!/usr/bin/env bash
# Builds the perfbench command from this checkout's sources and runs it
# with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload paper16 --seed 1 --seconds 40 --trace 0
#
# Everything the build writes (compiler cache, temporaries, the binary)
# and the sweep workload's result stores stay under .bench_build/.
set -euo pipefail

root="$(pwd)"
bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="${root}/.bench_build"
mkdir -p "${build}/gocache" "${build}/gomodcache" "${build}/tmp" "${build}/config"

# The go command also writes telemetry counters under the user config
# directory; point that into the build directory as well.
export XDG_CONFIG_HOME="${build}/config"
export GOCACHE="${build}/gocache"
export GOMODCACHE="${build}/gomodcache"
export GOTMPDIR="${build}/tmp"
export GOFLAGS="-mod=readonly"
export GOWORK=off
export GOTOOLCHAIN=local
export CGO_ENABLED=0

(cd "${bench}" && go build -o "${build}/perfbench" .) >&2
exec "${build}/perfbench" --workdir "${build}/work" "$@"
