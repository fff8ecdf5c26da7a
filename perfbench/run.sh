#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the root of the
# checkout, passing every argument through:
#
#   bash perfbench/run.sh --workload sweep-paper --seed 1 --seconds 25 --trace 0
#
# Everything the build writes (binary, Go build cache, temp files) stays
# in .bench_build/ at the root of the checkout.
set -euo pipefail

bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench")"
out="$root/.bench_build"
mkdir -p "$out/tmp"

# The toolchain's default install location, for shells whose PATH lacks it.
command -v go >/dev/null || PATH="$PATH:/usr/local/go/bin"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOFLAGS= GOWORK=off GOTOOLCHAIN=local

(cd "$bench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
