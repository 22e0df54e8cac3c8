#!/usr/bin/env bash
# Builds the benchmark and the iscoped daemon from source into
# .bench_build/ (every Go cache and config directory included, so the
# run touches nothing outside the checkout), then runs one workload:
#
#   bash perfbench/run.sh --workload fair-fleet --seed 1 --seconds 20 --trace 0
#
# Run it from the root of a checkout. Build output goes to standard
# error; the last line of standard output is the result.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/home"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
	HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache" \
	GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOTELEMETRY=off GOWORK=off
(cd "$root/perfbench" && go build -o "$build/bin/perfbench" . && go build -o "$build/bin/iscoped" iscope/cmd/iscoped) >&2
exec "$build/bin/perfbench" -iscoped "$build/bin/iscoped" -work "$build/work" -traces "$build/traces" \
	-digests "$root/perfbench/digests.json" "$@"
