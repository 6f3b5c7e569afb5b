#!/usr/bin/env bash
# Tier-1 verification wrapper: configure, build, and run the full test
# suite. This is the command CI and pre-merge checks run.
#
# Usage:
#   scripts/check.sh               # default build + all tests, then
#                                  # bench/paper_repro at the full 600
#                                  # simulated s per scenario (fails on
#                                  # any broken paper shape check);
#                                  # --sanitize and --no-tracing end
#                                  # the same way
#   scripts/check.sh --sanitize    # ASan/UBSan build, obs-, hw-,
#                                  # channel-, then codec-labeled tests
#                                  # first, then the full suite
#   scripts/check.sh --no-tracing  # HYDRA_TRACING=OFF build: proves
#                                  # spans/traces compile out and the
#                                  # suite still passes without them
#   scripts/check.sh --bench-smoke # Release build, run the channel
#                                  # data-path benches, fail if any is
#                                  # >2x slower than the checked-in
#                                  # baseline (scripts/bench_baseline.json)
#                                  # or breaks a scripts/bench_gate.py
#                                  # overhead gate
#   scripts/check.sh --tsan        # ThreadSanitizer build, run the
#                                  # threaded-executor test label (the
#                                  # SPSC rings, timer injection, payload
#                                  # pool, span id generator, and the
#                                  # full TiVo run on the threaded engine),
#                                  # then the chaos and model labels
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR=build
CMAKE_ARGS=()
SANITIZE=0
BENCH_SMOKE=0
TSAN=0

for arg in "$@"; do
    case "$arg" in
      --sanitize)
        SANITIZE=1
        BUILD_DIR=build-sanitize
        CMAKE_ARGS+=(-DHYDRA_SANITIZE=ON)
        ;;
      --no-tracing)
        BUILD_DIR=build-notrace
        CMAKE_ARGS+=(-DHYDRA_TRACING=OFF)
        ;;
      --bench-smoke)
        BENCH_SMOKE=1
        BUILD_DIR=build
        CMAKE_ARGS+=(-DCMAKE_BUILD_TYPE=Release)
        ;;
      --tsan)
        TSAN=1
        BUILD_DIR=build-tsan
        CMAKE_ARGS+=(-DHYDRA_TSAN=ON)
        ;;
      *)
        echo "usage: $0 [--sanitize|--no-tracing|--bench-smoke|--tsan]" >&2
        exit 2
        ;;
    esac
done

cmake -B "$BUILD_DIR" -S . "${CMAKE_ARGS[@]}"
cmake --build "$BUILD_DIR" -j "$(nproc)"

if [ "$BENCH_SMOKE" -eq 1 ]; then
    # Wall-clock smoke of the zero-copy data path: the channel benches
    # plus the sim-engine pipeline rows (the deterministic executor's
    # per-hop dispatch cost; the threaded rows are excluded — real
    # threads on a shared box are too noisy for a regression gate)
    # and the L2 model rows (BM_CacheHousekeepingTick replays only the
    # sets the stream dirtied; a fall-back to the full per-line walk is
    # several times slower) and the MPEG rows (BM_MpegDecode
    # validates, then expands runs into reused buffers; a fall-back to
    # per-run vector inserts is ~4x slower. BM_EncodeMovie codes the
    # TiVo movie a word at a time; the byte-at-a-time encoder it
    # replaced is ~2.5x slower) and the event-kernel row with a Packet-sized (88 B) capture
    # (BM_SimulatorDispatch/capture:88: the callback runs in place
    # from the timer slab; a fall-back to heap-allocated closures or
    # heap-sifted callbacks is ~2x slower) and the channel control
    # plane (BM_ChannelLifecycle/remote:0|1: one stream's destroy +
    # create + connect + install) against the committed baseline.
    # Generous 2x threshold -- this catches "the fast path regressed
    # to deep copies" or "the cache stopped replaying", not
    # machine-to-machine noise.
    # Fleet end-to-end smoke first: the registry-size ladder (10k/100k
    # streams, threaded executor). The binary exits nonzero if a rung
    # fails to deliver cleanly; the 4-host >= 2x bar is bench_gate.py's
    # fleet gate below.
    "$BUILD_DIR/bench/fleet_scale"
    OUT="$BUILD_DIR/bench_smoke.json"
    # Note: the bundled google-benchmark wants a bare double here (no
    # trailing time unit).
    "$BUILD_DIR/bench/perf_micro" \
        --benchmark_filter='BM_HistogramRecord|BM_ChannelThroughput|BM_MulticastFanout|BM_FleetOpenLoop|BM_PipelineParallel.*threaded:0|BM_BatchedPipeline.*threaded:0|BM_CacheAccess|BM_CacheHousekeepingTick|BM_MpegDecode|BM_EncodeMovie|BM_SimulatorDispatch/capture:88|BM_ChannelLifecycle' \
        --benchmark_min_time=0.1 \
        --benchmark_format=json > "$OUT"
    echo "bench JSON written to $OUT"
    # Telemetry-engine budget: histogram record cost stays under
    # ~15 ns, the instrumented channel rows (hist:1) stay within 5%
    # of their uninstrumented hist:0 twins from the same run, and the
    # sampling profiler (profile:1) stays within 5% of its disabled
    # twin. A 5% bound needs quieter numbers than one 0.1 s pass on a
    # shared VM gives, so the gated benches run again with repetitions
    # and the gate reads the medians. Limits are env-overridable
    # (HYDRA_HIST_RECORD_NS_MAX, HYDRA_CHANNEL_RATIO_MAX,
    # HYDRA_PROFILER_RATIO_MAX). The batching gate pairs
    # BM_BatchedPipeline batch:64 rows against their batch:1 twins
    # (batched must not be slower at sites=4; HYDRA_BATCH_RATIO_MAX).
    # The fleet gate holds the BM_FleetOpenLoop 4-host/1-host
    # virtual-time goodput ratio at >= 2x (HYDRA_FLEET_SCALE_MIN).
    GATE_OUT="$BUILD_DIR/bench_gate.json"
    "$BUILD_DIR/bench/perf_micro" \
        --benchmark_filter='BM_ChannelThroughput|BM_HistogramRecord|BM_ProfilerOverhead|BM_BatchedPipeline|BM_FleetOpenLoop' \
        --benchmark_min_time=0.1 \
        --benchmark_repetitions=5 \
        --benchmark_enable_random_interleaving=true \
        --benchmark_report_aggregates_only=true \
        --benchmark_format=json > "$GATE_OUT"
    # One script reads both runs: the baseline smoke from the first,
    # the overhead gates from the second.
    python3 scripts/bench_gate.py scripts/bench_baseline.json "$OUT" \
        "$GATE_OUT"
    exit 0
fi

cd "$BUILD_DIR"
if [ "$TSAN" -eq 1 ]; then
    # Under TSan, only the threaded label matters: it exercises every
    # cross-thread structure (SPSC rings, the worker park/wake
    # protocol, worker timer/cancel injection into the shared
    # TimerQueue, the payload pool, atomic span ids) plus one full
    # TiVo scenario on the threaded engine.
    ctest -L threaded --output-on-failure
    # The chaos label adds the fault-injection paths under TSan: the
    # engine's seeded draws from network and worker threads, plus the
    # NIC-reset recovery protocol on the threaded engine.
    ctest -L chaos --output-on-failure
    # The model label: device, runtime, TiVo component and integration
    # suites. On the sim engine the model objects they drive take no
    # locks (exec::ModelMutex), so a model touched off the engine's
    # thread shows up here as a race.
    ctest -L model --output-on-failure
    exit 0
fi
if [ "$SANITIZE" -eq 1 ]; then
    # The obs label covers the subsystem with the most lock-free and
    # ring-buffer code — run it first for a fast sanitizer signal.
    ctest -L obs --output-on-failure
    # Then the cache model's flat-array pointer arithmetic (hw_test
    # plus the randomized differential test in property_test).
    ctest -L hw --output-on-failure
    # Then the channel lifecycle: endpoint and backlog Fifos, and the
    # fleet's flat per-pair sequence table (core_channel_test plus
    # fleet_test).
    ctest -L channel --output-on-failure
    # Then the wire parsers fed hostile input: the MPEG assembler and
    # validate-then-apply decoder (tivo_mpeg_test) and NFS-lite
    # (net_test), whose bounds must hold before anything is allocated.
    ctest -L codec --output-on-failure
fi
# Fault-injection + recovery paths first: a broken restart protocol
# should fail loudly before the full matrix runs.
ctest -L chaos --output-on-failure
ctest --output-on-failure -j "$(nproc)"
# The paper's TiVo evaluation at its full 600 simulated seconds per
# scenario (ctest's `paper` label runs it at 30 s against a golden
# file): a broken shape check exits 1 and fails this script.
./bench/paper_repro
