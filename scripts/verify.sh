#!/bin/sh
# Tier-1 verification gates. Run from the repo root:
#
#   sh scripts/verify.sh
#
# Gates, in order of increasing cost:
#   0. gofmt -l              — every tracked Go file outside testdata/
#      is gofmt-clean (testdata/ holds analyzer fixtures, some of
#      them deliberately odd); deleting struct fields re-aligns
#      literals, which is where formatting drift slips in
#   1. go build ./...        — everything compiles
#   2. go vet ./...          — static analysis clean, twice: natively,
#      and as GOARCH=arm64, which builds the portable simd_noasm.go in
#      place of the amd64 assembly, so its stubs must keep every asm
#      signature (works offline: vet needs no cross toolchain)
#   3. fallvet ./...         — the repo's own invariant linter
#      (DESIGN.md §9 + §13): determinism, hotpath, hottrans,
#      checkedio, redorder, snapshot, exhaustive, floatdet. Built
#      once into bin/fallvet (cheaper than go run resolving the
#      source importer twice) and run in -diff mode against the
#      committed fallvet_baseline.json, so the gate is "no NEW
#      findings and the ledger is honest" — stale ledger entries
#      fail too. Runs before the tests because it is cheaper than
#      the suite and a violation explains itself better than a
#      flaky alloc count.
#   4. go test ./...         — full unit suite
#   5. go test -race ./...   — same suite under the race detector
#      (the streaming Detector is single-goroutine by contract, but
#      the trainer and evaluation harness fan out across workers)
#   6. fuzz smoke            — 10 s each on the hostile-input fuzz
#      targets: FuzzQuantLoad (model-image loader must never panic or
#      over-allocate on arbitrary bytes), FuzzNetworkLoad (the float
#      network's weight decoder, reached past a valid digest, must
#      never panic, never allocate by a claimed length, and either
#      load an image that re-saves byte for byte or reject it with
#      every weight untouched), FuzzPackedKernels (the simd assembly
#      against the scalar kernels bit for bit, on decoded shapes, zero
#      counts and raw value bits, on the route the host takes),
#      FuzzDetectorPush (the
#      streaming pipeline must survive arbitrary sensor input),
#      FuzzCascadePush (the cascade's decision guarantee — a decision
#      every stride, one-step tier moves — under arbitrary faults) and
#      FuzzIncrementalScore (the incremental inference engine must be
#      bit-identical to full-window batch rescoring on arbitrary
#      streams of wear, faults and gaps — the DESIGN §12 equivalence
#      oracle), and FuzzServeSession (the serving runtime against a
#      single-goroutine model of its ring, outbox and counters under
#      arbitrary programs of pushes, bursts past the ring, panics,
#      crash loops, quiesces, drains, closes and clock advances)
#   7. precision agreement   — the float32 path must agree with the
#      float64 path: the decision-agreement tests run the full
#      fault-injection sweep at both widths by name, and
#      FuzzPrecisionScore gets a 10 s smoke (arbitrary streams of
#      wear, faults and gaps must keep the f32/f64 score gap inside
#      the documented tolerance)
#   8. sweep determinism     — the fault sweeps over the plain detector
#      and over the cascade (one replay and one tally in internal/eval)
#      must each be bit-identical on 1 worker and 4 (run redundantly
#      from the suite, but cheap and load-bearing enough to gate by
#      name)
#   9. soak smoke            — the serving-runtime chaos soak at CI
#      size (16 streams, 2 injected mid-fall panics, burst/stall/
#      jitter profiles, one crash-loop) via fallserve -check: zero
#      missed deadlines on healthy sessions, bit-identical
#      post-restore decision streams, goroutine-leak check clean,
#      heap growth bounded
#  10. bench gate            — scripts/bench.sh -short: the hot-path
#      benchmarks run briefly with -benchmem; the gate fails when a
#      steady-state path that must be allocation-free (streaming push,
#      quantized predict, cascade/serve push, warm snapshots) reports
#      allocs/op > 0 OR B/op > 0, when the streaming CNN push drops
#      below 3x its pre-engine seed, when a SIMD kernel row
#      (Benchmark_Kernel_*) is less than 1.2x over its scalar
#      reference row at the same shape, or when any benchmark regresses
#      more than 15% in ns/op against the committed baseline
#      (Parallel_Fit excluded as scheduler-noise-dominated). The
#      comparison summary lands in results_ci.txt via the tee below.
#      The committed BENCH_baseline.json comes from a full
#      `sh scripts/bench.sh` run and is left untouched here.
#
# Append the run to results_ci.txt with:
#
#   sh scripts/verify.sh 2>&1 | tee -a results_ci.txt
set -e

echo "== gofmt -l (tracked Go files outside testdata/)"
test -z "$(gofmt -l $(git ls-files '*.go' | grep -v /testdata/))"
echo "== go build ./..."
go build ./...
echo "== go vet ./..."
go vet ./...
echo "== GOARCH=arm64 go vet ./..."
GOARCH=arm64 go vet ./...
echo "== fallvet -diff ./..."
go build -o bin/fallvet ./cmd/fallvet
./bin/fallvet -baseline fallvet_baseline.json -diff ./...
echo "== go test ./..."
go test ./...
echo "== go test -race ./..."
go test -race ./...
echo "== fuzz smoke: FuzzQuantLoad (10s)"
go test ./internal/quant -run='^$' -fuzz='^FuzzQuantLoad$' -fuzztime=10s
echo "== fuzz smoke: FuzzNetworkLoad (10s)"
go test ./internal/nn -run='^$' -fuzz='^FuzzNetworkLoad$' -fuzztime=10s
echo "== fuzz smoke: FuzzPackedKernels (10s)"
go test ./internal/nn -run='^$' -fuzz='^FuzzPackedKernels$' -fuzztime=10s
echo "== fuzz smoke: FuzzDetectorPush (10s)"
go test ./internal/edge -run='^$' -fuzz='^FuzzDetectorPush$' -fuzztime=10s
echo "== fuzz smoke: FuzzCascadePush (10s)"
go test ./internal/cascade -run='^$' -fuzz='^FuzzCascadePush$' -fuzztime=10s
echo "== fuzz smoke: FuzzIncrementalScore (10s)"
go test ./internal/edge -run='^$' -fuzz='^FuzzIncrementalScore$' -fuzztime=10s
echo "== fuzz smoke: FuzzServeSession (10s)"
go test ./internal/serve -run='^$' -fuzz='^FuzzServeSession$' -fuzztime=10s
echo "== precision agreement: f32 vs f64 decision sweep"
go test ./falldet -count=1 -run='^Test(Cascade)?PrecisionDecisionAgreement$' -v
echo "== fuzz smoke: FuzzPrecisionScore (10s)"
go test ./internal/edge -run='^$' -fuzz='^FuzzPrecisionScore$' -fuzztime=10s
echo "== sweep determinism: plain and cascade fault sweeps, workers 1 vs 4"
go test ./internal/eval -count=1 -run='^(TestEvaluateCascadeRobustnessWorkerCountInvariance|TestEvaluateRobustnessParallelIdentical)$' -v
echo "== soak smoke: fallserve -sessions 16 -panics 2 -check"
go run ./cmd/fallserve -sessions 16 -samples 600 -panics 2 -check
echo "== bench gate: scripts/bench.sh -short"
sh scripts/bench.sh -short
echo "== verify: all gates passed"
