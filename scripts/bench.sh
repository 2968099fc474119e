#!/bin/sh
# Benchmark-regression baseline. Runs the hot-path benchmarks with
# -benchmem and writes BENCH_baseline.json: per-benchmark ns/op, B/op,
# allocs/op, plus the speedup against the recorded pre-optimisation
# seed numbers (captured on the same container class before the
# allocation-free kernels landed).
#
#   sh scripts/bench.sh          # full run (2s per benchmark), rewrites the baseline
#   sh scripts/bench.sh -short   # CI gate (0.2s per benchmark), gate only
#
# The script fails when:
#   - a benchmark that must be allocation-free at steady state
#     (streaming push, quantized predict, cascade/serve push) reports a
#     non-zero allocs/op OR a non-zero B/op — bytes without allocs
#     means an amortised allocation is hiding in the averaging;
#   - the incremental streaming path loses its headline win: the
#     Benchmark_Edge_StreamingPushCNN speedup over the pre-engine seed
#     drops below 3x;
#   - a SIMD kernel row (Benchmark_Kernel_*, internal/nn) runs less
#     than 1.2x faster than its scalar reference row (the same name
#     with _Ref: the frozen Go kernel at f64, the simd Ref at f32) at
#     the same shape in the same run — the AVX kernels must stay worth
#     having at both widths;
#   - (short mode only) any benchmark regresses more than 15% in ns/op
#     against the committed BENCH_baseline.json. The Parallel_Fit
#     benchmarks are excluded from that gate: multi-worker fits are
#     dominated by scheduler noise at CI benchtimes.
# Short mode enforces the gates but leaves BENCH_baseline.json alone:
# the committed baseline is always a full-benchtime measurement. The
# full run repeats each benchmark -count 3 and records the fastest
# repetition — shared-container CPU steal makes single runs noisy, and
# min-of-N is the noise-resistant estimator for a regression baseline.
# allocs/op is taken as the max across repetitions (it must not vary).
# Short mode uses min-of-2 for the same reason: one cold repetition
# must not trip the 15% gate.
set -e
cd "$(dirname "$0")/.."

BENCHTIME=2s
MODE=full
OUT=BENCH_baseline.json
COUNT=3
if [ "$1" = "-short" ]; then
    BENCHTIME=0.2s
    MODE=short
    OUT=/dev/null
    COUNT=2
fi

PATTERN='Benchmark_Table3_Inference_|Benchmark_Edge_FloatInference|Benchmark_Edge_QuantizedInference|Benchmark_Edge_StreamingPush|Benchmark_Parallel_Fit_|Benchmark_Cascade_Push|Benchmark_Serve_SessionPush|Benchmark_Kernel_|Benchmark_Network_Load'
# The end-to-end rows live in the root package, the kernel rows next
# to the kernels they measure. -p 1 runs the two test binaries one
# after the other: side by side they would time each other's load.
PKGS='. ./internal/nn'

RAW=$(mktemp)
trap 'rm -f "$RAW"' EXIT

echo "== bench: go test -bench ($MODE, $BENCHTIME per benchmark, count=$COUNT)"
go test -p 1 -run '^$' -bench "$PATTERN" -benchmem -benchtime "$BENCHTIME" -count "$COUNT" $PKGS | tee "$RAW"

awk -v mode="$MODE" -v out="$OUT" '
BEGIN {
    # Pre-optimisation seed numbers (ns/op, allocs/op), recorded before
    # the scratch-buffer kernels: the denominator of speedup_vs_seed.
    seed_ns["Benchmark_Table3_Inference_CNN_400ms"] = 85396
    seed_ns["Benchmark_Table3_Inference_CNN_300ms"] = 66165
    seed_ns["Benchmark_Table3_Inference_CNN_200ms"] = 42050
    seed_ns["Benchmark_Table3_Inference_MLP_400ms"] = 19184
    seed_ns["Benchmark_Table3_Inference_LSTM_400ms"] = 286696
    seed_ns["Benchmark_Table3_Inference_ConvLSTM_400ms"] = 506354
    seed_ns["Benchmark_Table3_Inference_CNNBiGRU_400ms"] = 286256
    seed_ns["Benchmark_Edge_QuantizedInference"] = 73318
    seed_ns["Benchmark_Edge_StreamingPush"] = 232.3
    # Batch-rescore numbers captured immediately before the incremental
    # inference engine (DESIGN 12) landed: every stride re-ran the full
    # CNN over the assembled window, and snapshots allocated per image.
    seed_ns["Benchmark_Edge_StreamingPushCNN"] = 4519
    seed_ns["Benchmark_Cascade_PushPrimary"] = 4526
    seed_ns["Benchmark_Cascade_PushFallback"] = 1636
    seed_ns["Benchmark_Cascade_PushThreshold"] = 107.2
    seed_ns["Benchmark_Serve_SessionPush"] = 829.2
    seed_ns["Benchmark_Serve_SessionPushSnapshot"] = 876.7
    seed_allocs["Benchmark_Table3_Inference_CNN_400ms"] = 87
    seed_allocs["Benchmark_Table3_Inference_CNN_300ms"] = 87
    seed_allocs["Benchmark_Table3_Inference_CNN_200ms"] = 87
    seed_allocs["Benchmark_Table3_Inference_MLP_400ms"] = 31
    seed_allocs["Benchmark_Table3_Inference_LSTM_400ms"] = 25
    seed_allocs["Benchmark_Table3_Inference_ConvLSTM_400ms"] = 25
    seed_allocs["Benchmark_Table3_Inference_CNNBiGRU_400ms"] = 43
    seed_allocs["Benchmark_Edge_QuantizedInference"] = 59
    seed_allocs["Benchmark_Edge_StreamingPush"] = 0
    seed_allocs["Benchmark_Edge_StreamingPushCNN"] = 0
    seed_allocs["Benchmark_Cascade_PushPrimary"] = 0
    seed_allocs["Benchmark_Cascade_PushFallback"] = 0
    seed_allocs["Benchmark_Cascade_PushThreshold"] = 0
    seed_allocs["Benchmark_Serve_SessionPush"] = 0
    seed_allocs["Benchmark_Serve_SessionPushSnapshot"] = 0
    # Benchmarks whose steady state must never touch the allocator:
    # both allocs/op AND B/op must be exactly zero. A benchmark can
    # show 0 allocs/op with non-zero B/op when a periodic allocation
    # is amortised below 0.5 allocs/op by the averaging window — the
    # byte count is the sensitive detector for that leak.
    zero["Benchmark_Edge_StreamingPush"] = 1
    zero["Benchmark_Edge_StreamingPushCNN"] = 1
    zero["Benchmark_Edge_QuantizedInference"] = 1
    zero["Benchmark_Cascade_PushPrimary"] = 1
    zero["Benchmark_Cascade_PushFallback"] = 1
    zero["Benchmark_Cascade_PushThreshold"] = 1
    # The serving runtime adds ingress + worker + outbox around the
    # cascade; its steady-state path must not allocate either. Since
    # the envelope writer went append-based and the session ping-pongs
    # two snapshot buffers, that includes the Snapshot variant: a warm
    # checkpoint reuses its buffers end to end.
    zero["Benchmark_Serve_SessionPush"] = 1
    zero["Benchmark_Serve_SessionPushSnapshot"] = 1
    # The float32 instantiations ride the same scratch buffers through
    # generic code: width must never reintroduce an allocation.
    zero["Benchmark_Edge_StreamingPushCNN_F32"] = 1
    zero["Benchmark_Cascade_PushPrimary_F32"] = 1
    zero["Benchmark_Serve_SessionPush_F32"] = 1
    # A served CNN decision at one sample per packet (the paper cadence): the
    # caller-runs hand-off plus the real three-tier cascade, at both
    # widths.
    zero["Benchmark_Serve_SessionPushCNN"] = 1
    zero["Benchmark_Serve_SessionPushCNN_F32"] = 1
    # The runtime alone at that cadence: push, quiesce and outbox drain
    # around a no-op pipeline.
    zero["Benchmark_Serve_SessionPushStub"] = 1
    # Sixteen detectors of one model pushed round-robin: the shared
    # weight copy must not cost an allocation either.
    zero["Benchmark_Edge_StreamingPushCNN_Fleet16"] = 1
    # Headline gates: optimisations the engine must not silently lose.
    # The incremental conv/pool rings bought >4x over batch rescoring;
    # fail if the margin erodes below 3x even while ns/op stays within
    # the 15% regression gate of a drifting baseline.
    min_speedup["Benchmark_Edge_StreamingPushCNN"] = 3.0
    # Paired kernel gate: every SIMD kernel row must stay at least
    # 1.2x over its scalar reference row (name + "_Ref") measured in
    # the same run at the same shape, so the ratio is immune to
    # absolute container drift and guards both widths.
    kernel_min = 1.2
    n = 0
    bad = 0
}
/^Benchmark/ && /ns\/op/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    ns = $3; bytes = $5; allocs = $7
    if (name in idx) {
        # -count > 1: keep the fastest repetition, the most-allocating
        # allocs/op (which must not vary at steady state).
        i = idx[name]
        if (ns + 0 < nss[i] + 0) nss[i] = ns
        if (bytes + 0 < bs[i] + 0) bs[i] = bytes
        if (allocs + 0 > as[i] + 0) as[i] = allocs
    } else {
        idx[name] = n
        names[n] = name; nss[n] = ns; bs[n] = bytes; as[n] = allocs
        n++
    }
    if ((name in zero) && allocs + 0 != 0) {
        printf "bench: FAIL %s allocates %s objects/op, want 0\n", name, allocs > "/dev/stderr"
        bad = 1
    }
    if ((name in zero) && bytes + 0 != 0) {
        printf "bench: FAIL %s reports %s B/op, want 0 (amortised allocation on a must-be-zero path)\n", name, bytes > "/dev/stderr"
        bad = 1
    }
}
END {
    printf "{\n" > out
    printf "  \"generated_by\": \"scripts/bench.sh\",\n" >> out
    printf "  \"mode\": \"%s\",\n", mode >> out
    printf "  \"benchmarks\": [\n" >> out
    for (i = 0; i < n; i++) {
        name = names[i]
        printf "    {\"name\": \"%s\", \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s", \
            name, nss[i], bs[i], as[i] >> out
        if (name in seed_ns) {
            printf ", \"seed_ns_per_op\": %s, \"seed_allocs_per_op\": %s, \"speedup_vs_seed\": %.2f", \
                seed_ns[name], seed_allocs[name], seed_ns[name] / nss[i] >> out
        }
        printf "}%s\n", (i < n - 1 ? "," : "") >> out
    }
    printf "  ]\n}\n" >> out
    for (name in min_speedup) {
        if (!(name in idx)) {
            printf "bench: FAIL %s gated at %.1fx vs seed but never ran\n", name, min_speedup[name] > "/dev/stderr"
            bad = 1
            continue
        }
        sp = seed_ns[name] / (nss[idx[name]] + 0)
        if (sp < min_speedup[name]) {
            printf "bench: FAIL %s is %.2fx vs the %s ns/op seed, gate requires >= %.1fx\n", \
                name, sp, seed_ns[name], min_speedup[name] > "/dev/stderr"
            bad = 1
        } else {
            printf "== bench: %s holds %.2fx vs seed (gate %.1fx)\n", name, sp, min_speedup[name]
        }
    }
    kernels = 0
    for (i = 0; i < n; i++) {
        name = names[i]
        if (name !~ /^Benchmark_Kernel_/ || name ~ /_Ref$/) continue
        kernels++
        ref = name "_Ref"
        if (!(ref in idx)) {
            printf "bench: FAIL %s has no %s row to gate against\n", name, ref > "/dev/stderr"
            bad = 1
            continue
        }
        sp = (nss[idx[ref]] + 0) / (nss[i] + 0)
        if (sp < kernel_min) {
            printf "bench: FAIL %s is %.2fx over its scalar reference, gate requires >= %.1fx\n", \
                name, sp, kernel_min > "/dev/stderr"
            bad = 1
        } else {
            printf "== bench: %s holds %.2fx over %s (gate %.1fx)\n", name, sp, ref, kernel_min
        }
    }
    if (kernels == 0) {
        print "bench: FAIL no Benchmark_Kernel_ rows ran for the SIMD kernel gate" > "/dev/stderr"
        bad = 1
    }
    if (bad) exit 1
}
' "$RAW"

if [ "$MODE" = full ]; then
    echo "== bench: wrote BENCH_baseline.json"
else
    # Regression gate: every benchmark present in the committed
    # full-benchtime baseline must stay within 15% of its recorded
    # ns/op. min-of-2 above absorbs one cold repetition; 15% absorbs
    # the residual shared-container jitter. Parallel_Fit is excluded —
    # multi-worker training runs are scheduler-noise-dominated at
    # 0.2s benchtime and would make the gate flaky without making it
    # more sensitive on the paths this repo optimises.
    awk '
    FNR == NR {
        if (match($0, /"name": "[^"]*"/)) {
            nm = substr($0, RSTART + 9, RLENGTH - 10)
            if (match($0, /"ns_per_op": [0-9.]+/))
                base[nm] = substr($0, RSTART + 13, RLENGTH - 13) + 0
        }
        next
    }
    /^Benchmark/ && /ns\/op/ {
        name = $1
        sub(/-[0-9]+$/, "", name)
        ns = $3 + 0
        if (!(name in cur) || ns < cur[name]) cur[name] = ns
    }
    END {
        bad = 0
        checked = 0
        for (name in cur) {
            if (name ~ /^Benchmark_Parallel_Fit_/) continue
            if (!(name in base)) continue # new benchmark: no baseline until the next full run
            checked++
            if (cur[name] > base[name] * 1.15) {
                printf "bench: FAIL %s at %.4g ns/op regressed >15%% vs the committed baseline %.4g ns/op\n", \
                    name, cur[name], base[name] > "/dev/stderr"
                bad = 1
            }
        }
        if (checked == 0) {
            print "bench: FAIL regression gate matched zero benchmarks against BENCH_baseline.json" > "/dev/stderr"
            bad = 1
        }
        if (bad) exit 1
        printf "== bench: regression gate passed: %d benchmarks within 15%% of BENCH_baseline.json\n", checked
    }
    ' BENCH_baseline.json "$RAW"
    echo "== bench: gates passed (short mode leaves BENCH_baseline.json untouched)"
fi
