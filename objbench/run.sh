#!/usr/bin/env bash
# Builds objbench from the source tree it sits in and runs it with the
# arguments given (--workload, --seed, --seconds, --trace). Run it from the
# repository root. Everything the build and the run write stays under
# .bench_build in the current directory: the Go build cache, the binary,
# the cluster's shard stores and the traced runs' span files.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$out/objbench" .) >&2
exec "$out/objbench" --workdir "$out" "$@"
