#!/usr/bin/env bash
# Builds ndnd (from cmd/ndnd, unchanged) and the benchmark harness from
# this checkout into .bench_build/, then runs the harness with the
# arguments given, from the checkout root:
#
#   bash perfbench/run.sh --workload loopback-hit --seed 1 --seconds 10 --trace 0
#
# Every cache and build output stays inside .bench_build/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=
# A fresh config dir means Go telemetry mode "local", in which the go
# command forks a detached telemetry child that outlives this script.
# Mode "off" keeps the go command from starting it.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
printf 'off' >"$XDG_CONFIG_HOME/go/telemetry/mode"
go build -o "$out/ndnd" ./cmd/ndnd
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
