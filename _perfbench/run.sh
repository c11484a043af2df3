#!/usr/bin/env bash
# Builds the benchmark and the pcsid daemon from the checkout it is run in,
# then runs one workload. Run from the repository root:
#
#   bash _perfbench/run.sh --workload users-zipf --seed 1 --seconds 20 --trace 0
#
# Build products, the Go build cache, temporary files and the go command's
# own state (telemetry counters, GOPATH) all stay under .bench_build in the
# checkout. Build output goes to standard error, so the last line of
# standard output is the benchmark's JSON result.
set -euo pipefail
if [[ ! -f _perfbench/go.mod ]]; then
	echo "run.sh: run from the repository root" >&2
	exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
(cd _perfbench && go build -o "$out/perfbench" . && go build -o "$out/pcsid" repro/cmd/pcsid) >&2
exec "$out/perfbench" --pcsid "$out/pcsid" "$@"
