#!/bin/sh
# bench.sh — regenerate the committed step-cost report reproducibly.
# Stdlib toolchain only.
#
#   sh scripts/bench.sh             # BENCH_scale.json
#   BENCH_SEED=7 sh scripts/bench.sh
#
# The report stamps go_version, gomaxprocs, num_cpu, and the VCS commit, so
# numbers taken on different machines are distinguishable; the RNG seed is
# fixed (default 1), so the *schedules* — steps, moves/step, daemon
# choices — are identical across regenerations and machines, and only the
# time columns move. Per-cell wall time of the experiments is the exp.cell_ns
# histogram that `pifexp -http` publishes; BENCH_service.json comes from
# `pifserve bench` and is virtual-time only. The report is the one step-cost
# record: BenchmarkStepSim and BenchmarkStepEvent in bench_test.go remain
# for `go test -bench`, but they time the report's ring cells again.
set -eu
cd "$(dirname "$0")/.."

SEED="${BENCH_SEED:-1}"

echo "== environment =="
go version
echo "GOMAXPROCS=${GOMAXPROCS:-default} (effective value is stamped inside the report)"

echo "== BENCH_scale.json (N up to 1M; sim vs event) =="
go run ./cmd/pifexp -seed "$SEED" -scale BENCH_scale.json

echo "bench OK"
