#!/usr/bin/env sh
# CI gate: build, vet (go vet + the repo's own invariant analyzers), then
# the full test suite under the race detector. Run from anywhere; operates
# on the repository containing this script.
set -eu

cd "$(dirname "$0")/.."

echo '== go build'
go build ./...

echo '== go vet'
go vet ./...

echo '== pcsi-vet (invariant analyzers)'
go run ./cmd/pcsi-vet ./...

echo '== pcsi-vet machine formats (SARIF artifact + json determinism)'
# SARIF for archive/code-scanning upload. pcsi-vet exits 1 when diagnostics
# fire, but the tree is clean here (the text run above already gated).
go run ./cmd/pcsi-vet -format sarif ./... > pcsi-vet.sarif
# The machine formats must be byte-identical across runs on the same tree.
go run ./cmd/pcsi-vet -format json ./... > /tmp/pcsi-vet-a.json
go run ./cmd/pcsi-vet -format json ./... > /tmp/pcsi-vet-b.json
cmp /tmp/pcsi-vet-a.json /tmp/pcsi-vet-b.json || { echo 'pcsi-vet -format json not byte-identical across runs' >&2; exit 1; }

echo '== gofmt'
badfmt=$(gofmt -l . | grep -v '^\.git' || true)
if [ -n "$badfmt" ]; then
    echo "gofmt needed on:" >&2
    echo "$badfmt" >&2
    exit 1
fi

echo '== go test -race'
go test -race ./...

echo '== fuzz smoke (10s per fuzzer: decoders of bytes from the network must not panic)'
go test -run '^$' -fuzz '^FuzzBinaryDecode$' -fuzztime=10s ./internal/wire
go test -run '^$' -fuzz '^FuzzJSONDecode$' -fuzztime=10s ./internal/wire
go test -run '^$' -fuzz '^FuzzReadFrame$' -fuzztime=10s ./internal/pcsinet

echo '== trace export smoke'
go run ./cmd/pcsictl trace e1 -o /tmp/t.json 2>/dev/null
go run ./cmd/pcsictl trace -verify /tmp/t.json

echo '== chaos smoke (seed sweep with fault injection; exits 1 on invariant violation)'
go run ./cmd/pcsictl chaos E4 -seeds 5

echo '== E13 overload smoke (QoS holds goodput >= 0.9x capacity, sheds under load; exits 1 on FAIL)'
go run ./cmd/pcsi-bench -run E13 > /tmp/e13-a.txt
go run ./cmd/pcsi-bench -run E13 > /tmp/e13-b.txt
cmp /tmp/e13-a.txt /tmp/e13-b.txt || { echo 'E13 not byte-identical across runs' >&2; exit 1; }

echo '== E14 cache smoke (colocated caches beat cache-off under Zipf fan-out; exits 1 on FAIL)'
go run ./cmd/pcsi-bench -run E14 > /tmp/e14-a.txt
go run ./cmd/pcsi-bench -run E14 > /tmp/e14-b.txt
cmp /tmp/e14-a.txt /tmp/e14-b.txt || { echo 'E14 not byte-identical across runs' >&2; exit 1; }
grep -q '\[PASS\] hot-keys-hit' /tmp/e14-a.txt || { echo 'E14 hit-rate shape check missing' >&2; exit 1; }
grep -q '\[PASS\] lease-zero-stale' /tmp/e14-a.txt || { echo 'E14 lease coherence check missing' >&2; exit 1; }

echo '== E15 faasfs smoke (transactional POSIX beats NFS and REST under concurrent writers; exits 1 on FAIL)'
go run ./cmd/pcsi-bench -run E15 > /tmp/e15-a.txt
go run ./cmd/pcsi-bench -run E15 > /tmp/e15-b.txt
cmp /tmp/e15-a.txt /tmp/e15-b.txt || { echo 'E15 not byte-identical across runs' >&2; exit 1; }
grep -q '\[PASS\] faasfs-serializable' /tmp/e15-a.txt || { echo 'E15 serializability check missing' >&2; exit 1; }
grep -q '\[PASS\] faasfs-beats-rest' /tmp/e15-a.txt || { echo 'E15 faasfs-vs-rest shape check missing' >&2; exit 1; }

echo '== dashboard smoke (telemetry plane; HTML + JSON timeline must be byte-identical across re-runs)'
go run ./cmd/pcsictl dash e13 -seed 1 -o /tmp/dash-a.html 2>/dev/null
go run ./cmd/pcsictl dash e13 -seed 1 -o /tmp/dash-b.html 2>/dev/null
cmp /tmp/dash-a.html /tmp/dash-b.html || { echo 'dash HTML not byte-identical across runs' >&2; exit 1; }
cmp /tmp/dash-a.json /tmp/dash-b.json || { echo 'dash JSON timeline not byte-identical across runs' >&2; exit 1; }
cp /tmp/dash-a.html pcsi-dash-e13.html
cp /tmp/dash-a.json pcsi-dash-e13.json

echo '== engine microbenchmark (regression gate vs committed BENCH_engine.json)'
# Fails (exit 1) if allocs/event regresses >10% or events/sec drops >10%
# against the committed baseline. Writes the fresh run as an artifact so a
# deliberate perf change can be reviewed and the baseline re-committed.
go run ./cmd/pcsi-bench -engine \
    -engine-baseline BENCH_engine.json \
    -engine-out pcsi-bench-engine.json

echo 'CI OK'
