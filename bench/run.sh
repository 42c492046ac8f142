#!/usr/bin/env bash
# Builds thermbench from source and runs it; every argument passes through
# (see bench/README.md). Build caches, binaries and temporary run files live
# under .bench_build/ at the repository root, so a run reads and writes
# nothing outside the checkout and needs no network.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
go -C "$root/bench" build -o "$out/thermbench" ./thermbench
exec "$out/thermbench" -root "$root" "$@"
