#!/usr/bin/env bash
# Builds and runs the benchmark from the root of a checkout:
#
#	bash cmd/bench/run.sh --workload serve-small --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write goes under .bench_build in the
# checkout: the Go build cache and temporary files, the go command's
# own counter files (it keeps them in the user's configuration
# directory, hence XDG_CONFIG_HOME), the binary, and a traced run's
# span files.
#
# The go command's telemetry is switched off in that private
# configuration directory before the first go command runs: with
# telemetry on it starts a detached child of its own to roll the
# counter files over, and that child outlives a build that fails at
# once (a directory without go.mod), which leaves a process behind.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/config/go/telemetry"
echo off >"$out/config/go/telemetry/mode"
GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	go build -o "$out/bench" ./cmd/bench
exec "$out/bench" "$@"
