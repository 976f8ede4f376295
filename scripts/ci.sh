#!/bin/sh
# ci.sh — the full local verification pipeline. Stdlib toolchain only.
#
#   sh scripts/ci.sh               # format check, vet, build, tests, race, allocs
#   CI_FUZZ=1 sh scripts/ci.sh     # additionally smoke-fuzz the engine oracles
#   CI_EXPLORE=1 sh scripts/ci.sh  # additionally smoke the exhaustive explorer
#                                  # and pifcheck
#   CI_SERVICE=1 sh scripts/ci.sh  # additionally gate the pifserve bench grid
#                                  # (pinned small cell + byte-determinism)
#   CI_OVERHEAD=1 sh scripts/ci.sh # additionally gate telemetry overhead (timing-
#                                  # sensitive; needs a quiet box)
set -eu
cd "$(dirname "$0")/.."
mkdir -p artifacts

echo "== gofmt =="
fmt=$(gofmt -s -l .)
if [ -n "$fmt" ]; then
    echo "gofmt -s needed on:" >&2
    echo "$fmt" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...
# Passing an analyzer flag restricts go vet to that analyzer, so the
# unsafe.Pointer audit is a second pass on top of the default suite.
go vet -unsafeptr ./...

echo "== snapvet (model conformance, determinism, radius/observer contracts) =="
go run ./cmd/snapvet -tests ./...
go run ./cmd/snapvet -tests -json ./... > artifacts/snapvet.json
echo "snapvet findings artifact: artifacts/snapvet.json"

echo "== snapvet negative gate (planted-defect fixtures must yield exactly the expected findings) =="
go test ./internal/analysis/ -run 'TestGuardpure|TestWritelocal|TestDetrange|TestHotalloc|TestRadiusbound|TestObspure' -count=1

echo "== go build =="
go build ./...

echo "== go test (shuffled, repo-wide coverage artifact) =="
go test -shuffle=on -coverprofile=artifacts/coverage.out ./...
go tool cover -func=artifacts/coverage.out > artifacts/coverage.txt
tail -1 artifacts/coverage.txt

echo "== coverage floor (internal/explore >= 85% of statements) =="
go test ./internal/explore/ -coverprofile=artifacts/explore-cover.out -count=1 > /dev/null
explore_pct=$(go tool cover -func=artifacts/explore-cover.out | awk '/^total:/ { sub(/%/,"",$NF); print $NF }')
echo "internal/explore statement coverage: ${explore_pct}%"
awk -v p="$explore_pct" 'BEGIN { exit (p + 0 >= 85) ? 0 : 1 }' || {
    echo "internal/explore coverage ${explore_pct}% below the 85% floor" >&2
    exit 1
}

echo "== coverage floor (internal/telemetry >= 85% of statements) =="
go test ./internal/telemetry/ -coverprofile=artifacts/telemetry-cover.out -count=1 > /dev/null
telemetry_pct=$(go tool cover -func=artifacts/telemetry-cover.out | awk '/^total:/ { sub(/%/,"",$NF); print $NF }')
echo "internal/telemetry statement coverage: ${telemetry_pct}%"
awk -v p="$telemetry_pct" 'BEGIN { exit (p + 0 >= 85) ? 0 : 1 }' || {
    echo "internal/telemetry coverage ${telemetry_pct}% below the 85% floor" >&2
    exit 1
}

echo "== coverage floor (internal/event >= 85% of statements) =="
go test ./internal/event/ -coverprofile=artifacts/event-cover.out -count=1 > /dev/null
event_pct=$(go tool cover -func=artifacts/event-cover.out | awk '/^total:/ { sub(/%/,"",$NF); print $NF }')
echo "internal/event statement coverage: ${event_pct}%"
awk -v p="$event_pct" 'BEGIN { exit (p + 0 >= 85) ? 0 : 1 }' || {
    echo "internal/event coverage ${event_pct}% below the 85% floor" >&2
    exit 1
}

echo "== coverage floor (internal/analysis + dataflow >= 85% of statements) =="
go test ./internal/analysis/... -coverpkg=./internal/analysis/... -coverprofile=artifacts/analysis-cover.out -count=1 > /dev/null
analysis_pct=$(go tool cover -func=artifacts/analysis-cover.out | awk '/^total:/ { sub(/%/,"",$NF); print $NF }')
echo "internal/analysis (with dataflow) statement coverage: ${analysis_pct}%"
awk -v p="$analysis_pct" 'BEGIN { exit (p + 0 >= 85) ? 0 : 1 }' || {
    echo "internal/analysis coverage ${analysis_pct}% below the 85% floor" >&2
    exit 1
}

echo "== coverage floor (internal/service >= 85% of statements) =="
go test ./internal/service/ -coverprofile=artifacts/service-cover.out -count=1 > /dev/null
service_pct=$(go tool cover -func=artifacts/service-cover.out | awk '/^total:/ { sub(/%/,"",$NF); print $NF }')
echo "internal/service statement coverage: ${service_pct}%"
awk -v p="$service_pct" 'BEGIN { exit (p + 0 >= 85) ? 0 : 1 }' || {
    echo "internal/service coverage ${service_pct}% below the 85% floor" >&2
    exit 1
}

echo "== race: simulation engine, experiment executor, concurrent runtime, tracer =="
go test -race ./internal/sim/ ./internal/exp/ ./internal/runtime/ ./cmd/pifexp/ ./internal/obs/

echo "== race: flat engine (SoA kernels under event.Runner: differential grid, fuzz seeds) =="
go test -race ./internal/flat/

echo "== race: event engine (differential vs sim + latency properties) =="
go test -race ./internal/event/

echo "== race: counterexample hunter =="
go test -race ./internal/hunt/

echo "== race: exhaustive explorer (worker pool, one long-lived runner per worker) =="
go test -race ./internal/explore/

echo "== race: telemetry (concurrent engine writers + registry readers) =="
go test -race ./internal/telemetry/

echo "== race: service (open-loop generator + pipelined waves on sim/flat/event lanes) =="
go test -race ./internal/service/ ./cmd/pifserve/

echo "== race: soak (reduced horizon) =="
go test -race -short -run TestSoakManyWaves -count=1 .

echo "== allocation budget (zero allocs/step after warm-up, disabled tracer included; guard work of an explored transition; explorer bytes per state) =="
go test ./internal/sim/ -run 'TestZeroAllocs|TestCycleByteBudget|TestChoicesBufferReuse|TestCopyFromZeroAllocs' -count=1 -v
go test ./internal/explore/ -run 'TestSimEngineAllocs|TestSimEngineGuardWork|TestExplorerRetainedBytes' -count=1 -v
go test ./internal/obs/ -run TestDisabledTracerZeroAllocs -count=1 -v
go test ./internal/flat/ -run 'TestFlatCopyFromZeroAllocs' -count=1 -v
go test ./internal/event/ -run TestEventZeroAllocsPerStep -count=1 -v
go test ./internal/telemetry/ -run 'TestDisabledAllocs|TestEnabledSteadyStateAllocs' -count=1 -v

echo "== determinism (serial vs parallel, optimized vs reference) =="
go test ./internal/sim/ -run TestRunnerMatchesReference -count=1
go test ./internal/exp/ -run TestSerialParallelIdentical -count=1
go test ./cmd/pifexp/ -run TestParallelStdoutByteIdentical -count=1

echo "== determinism (flat engine bit-identical to generic) =="
go test ./internal/exp/ -run TestFlatEngineTablesByteIdentical -count=1
go test ./cmd/pifexp/ -run TestRunFlatEngineIdenticalStdout -count=1

echo "== determinism (event engine: differential vs sim, latency repeatability, guard-cache invariants) =="
go test ./internal/event/ -run 'TestEventMatchesThreeWay|TestEventTraceByteIdentical|TestEventRunDeterministic|TestEventLatencyMatchesInducedDaemon|TestEventGuardCacheFresh|TestReadersCoverGuardChanges' -count=1

echo "== determinism + pipelining (service: pipelined == serial payloads, canonical bytes stable) =="
go test ./internal/service/ -run 'TestPipelinedMatchesSerial|TestServiceDeterminism|TestScenarioDumpReplayBitIdentical' -count=1
go test . -run TestMultiInitiatorCrossEngine -count=1

echo "== determinism (telemetry: live wave spans == spans rebuilt from the trace, run-boundary rule) =="
go test ./internal/telemetry/ -run 'TestSpansFromTraceMatchesLive|TestWaveSpanLifecycle' -count=1

echo "== determinism (explore: violating runs across worker counts, liveness successor cache, stored enabled sets == fresh probes) =="
go test ./internal/explore/ -run 'TestViolatingRunDeterministicAcrossWorkers|TestLivenessCacheSound|TestExploredEnabledSetsMatchProbe' -count=1

echo "== hunt smoke (clean protocol must hunt clean on a 2x4 grid) =="
go run ./cmd/pifhunt hunt -topo grid:2x4 -trials 4 -steps 4000

if [ "${CI_EXPLORE:-0}" = "1" ]; then
    echo "== explore smoke (deterministic state counts pinned, exhaustive on line-3) =="
    go run ./cmd/pifexplore run -topo line:3 -init faults:3 -expect-states 209
    go run ./cmd/pifexplore run -topo star:4 -init faults:3 -depth 6 -expect-states 357
    go run ./cmd/pifexplore certify -json artifacts/explore-smoke.json
    cmp explore.json artifacts/explore-smoke.json
    echo "== pifcheck smoke (line-3 full domain verifies; the baseline's line-4 counterexample) =="
    go run ./cmd/pifcheck -topo line -n 3 > artifacts/pifcheck-snap.txt
    grep -q "47558 states" artifacts/pifcheck-snap.txt
    grep -q "^VERIFIED" artifacts/pifcheck-snap.txt
    if go run ./cmd/pifcheck -proto selfstab -topo line -n 4 > artifacts/pifcheck-selfstab.txt; then
        echo "pifcheck: the baseline passed on line-4" >&2
        exit 1
    fi
    grep -q "^    0: p0{" artifacts/pifcheck-selfstab.txt
    grep -q "PIF1 violated" artifacts/pifcheck-selfstab.txt
fi

if [ "${CI_SERVICE:-0}" = "1" ]; then
    echo "== service bench smoke (quick grid: pinned flat/ring:64 cell, byte-determinism) =="
    CI_SERVICE=1 go test ./cmd/pifserve/ -run TestServiceBenchSmoke -count=1 -v
fi

if [ "${CI_OVERHEAD:-0}" = "1" ]; then
    echo "== telemetry overhead gate (fully enabled <= 5% ns/step at N=100k) =="
    TELEMETRY_OVERHEAD=1 go test ./internal/telemetry/ -run TestTelemetryOverheadGate -count=1 -v
fi

if [ "${CI_FUZZ:-0}" = "1" ]; then
    echo "== fuzz smoke (engine oracles, injector recovery) =="
    go test ./internal/sim/ -run xxx -fuzz FuzzForceAged -fuzztime 10s
    go test ./internal/sim/ -run xxx -fuzz FuzzBitsetRoundAccounting -fuzztime 10s
    go test ./internal/fault/ -run xxx -fuzz FuzzInjectorRecovery -fuzztime 10s
    go test ./internal/flat/ -run xxx -fuzz FuzzFlatVsGeneric -fuzztime 10s
    go test ./internal/event/ -run xxx -fuzz FuzzThreeEngines -fuzztime 10s
    go test ./internal/hunt/ -run xxx -fuzz FuzzScenarioJSON -fuzztime 10s
    go test ./internal/service/ -run xxx -fuzz FuzzServicePipelined -fuzztime 10s
    go test . -run xxx -fuzz FuzzMultiNetworkWaves -fuzztime 10s
fi

echo "CI OK"
