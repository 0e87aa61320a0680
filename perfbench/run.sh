#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ and runs it with the
# given arguments. Run it from the repository root, for example:
#
#   bash perfbench/run.sh --workload lfr-dist --seed 1 --seconds 25 --trace 0
#
# The Go build cache, module cache, temporary files and tool configuration
# all live under .bench_build/, so nothing outside the checkout is written.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/go-cache" \
	GOMODCACHE="$out/go-mod" \
	GOPATH="$out/go-path" \
	GOTMPDIR="$out/tmp" \
	TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" \
	GOENV=off \
	GOTOOLCHAIN=local \
	GOFLAGS=-buildvcs=false \
	GOPROXY=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
