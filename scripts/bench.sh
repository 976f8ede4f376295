#!/bin/sh
# bench.sh — regenerate the committed benchmark reports reproducibly.
# Stdlib toolchain only.
#
#   sh scripts/bench.sh             # BENCH_sim.json + BENCH_scale.json + benchstat run
#   BENCH_SEED=7 sh scripts/bench.sh
#
# Both reports stamp go_version, gomaxprocs, and the VCS commit, so numbers
# taken on different machines are distinguishable; the RNG seed is fixed
# (default 1), so the *schedules* — steps, moves/step, daemon choices — are
# identical across regenerations and machines, and only the time columns
# move.
set -eu
cd "$(dirname "$0")/.."

SEED="${BENCH_SEED:-1}"

echo "== environment =="
go version
echo "GOMAXPROCS=${GOMAXPROCS:-default} (effective value is stamped inside the reports)"

echo "== BENCH_sim.json (N=64 hot path + full-suite experiment cell timings) =="
go run ./cmd/pifexp -parallel -seed "$SEED" -bench BENCH_sim.json > /dev/null

echo "== BENCH_scale.json (N up to 1M; generic vs event) =="
go run ./cmd/pifexp -only NONE -seed "$SEED" -scale BENCH_scale.json

echo "== benchstat-trackable engine micro-benchmarks =="
go test -run xxx -bench 'BenchmarkStepGeneric|BenchmarkStepFlat' \
    -benchmem -count=1 .

echo "bench OK"
