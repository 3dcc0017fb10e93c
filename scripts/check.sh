#!/usr/bin/env bash
# Repo check driver.
#
#   scripts/check.sh                 # build + fast tier-1 tests (no heavy
#                                   #   labels; includes the gateway unit
#                                   #   tests, `ctest -L gateway`)
#   scripts/check.sh --stress        # + pipelined-engine stress battery
#   scripts/check.sh --soak         # + fault-injection repair soak and the
#                                   #   scaled-down zipfian gateway soak
#   scripts/check.sh --metrics      # + observability exposition tests
#   scripts/check.sh --chaos        # + degraded-mode chaos battery (outages,
#                                   #   crash recovery, learned rates
#                                   #   steering Gets off a slow CSP,
#                                   #   corruption)
#   scripts/check.sh --codec        # + codec battery (`ctest -L codec`:
#                                   #   SIMD-vs-scalar differential tests,
#                                   #   SHA-NI-vs-scalar SHA-1, kernel
#                                   #   dispatch, buffer pool) run
#                                   #   under the dispatched kernel and
#                                   #   again forced to ssse3 and scalar
#   scripts/check.sh --stream       # + streaming tier: ARC chunk cache +
#                                   #   range-read suites (`ctest -L
#                                   #   stream`, also in the fast tier) and
#                                   #   50 repeats of the range-read
#                                   #   tests (readahead window, claim,
#                                   #   join) and the bench_streaming
#                                   #   bars (range byte accounting, warm
#                                   #   TTFB, readahead rebuffers)
#   scripts/check.sh --integrity    # + share-integrity tier (`ctest -L
#                                   #   integrity`, also in the fast tier):
#                                   #   per-share authentication, corrupt-
#                                   #   CSP isolation and quarantine,
#                                   #   legacy combinatorial
#                                   #   upgrade, scrub bit-rot healing,
#                                   #   the chunk read and write paths,
#                                   #   and the metadata store (object
#                                   #   format, straggler generations,
#                                   #   malformed metadata, List counts)
#   scripts/check.sh --perfbench    # + end-to-end benchmark smoke test
#                                   #   (perfbench/smoke_test.py): every
#                                   #   workload at tiny scale, untraced
#                                   #   and traced, every Get byte-checked
#                                   #   and the traced replay matched
#   scripts/check.sh --all          # every labeled suite
#   scripts/check.sh --bench        # + bench binaries with hard bars
#                                   #   (pipeline, degraded, repair, the
#                                   #   10k-client gateway soak, the
#                                   #   cross-user dedup economics run, the
#                                   #   integrity chaos bar, the fig12
#                                   #   codec gate with its >=10x AVX2
#                                   #   kernel bar, and the download-
#                                   #   selector quality bar vs the exact
#                                   #   MILP), then a strict delta
#                                   #   gate vs bench/baselines/
#   scripts/check.sh --asan         # ASan+UBSan build of the byte-
#                                   #   crunching kernels in build-asan/:
#                                   #   chunker_test in full (the lane
#                                   #   warm-ups index raw bytes near a
#                                   #   scan's limit, where an out-of-
#                                   #   bounds read is silent in Release),
#                                   #   crypto_test, codec_property_test,
#                                   #   secret_sharing_test, and
#                                   #   client_test (its Puts run the
#                                   #   multi-lane SHA-1 kernel, with its
#                                   #   idle and refilled lanes, through
#                                   #   Scatter and the planner's pooled
#                                   #   and inline id batches),
#                                   #   chunk_reader_test (a group
#                                   #   read's one multi-lane digest pass
#                                   #   reads raw pointers into share
#                                   #   buffers its fetched map holds),
#                                   #   record_log_test (replay scans
#                                   #   raw journal bytes up to a torn
#                                   #   tail, where an off-by-one read is
#                                   #   silent in Release), util_test
#                                   #   (Result's rvalue dereference, and
#                                   #   ZeroedBytes, which advises raw
#                                   #   address ranges) and
#                                   #   metadata_store_test (Fetch moves
#                                   #   each downloaded metadata share
#                                   #   into the decoder: a use after the
#                                   #   move is silent in Release; a
#                                   #   discovery pass reads known bases
#                                   #   as views into listed names)
#   scripts/check.sh --tsan         # ThreadSanitizer build of the stress
#                                   #   battery + gateway concurrency tests
#                                   #   + buffer-pool checkout + chunk
#                                   #   cache and readahead join + integrity
#                                   #   gather/heal + chunk writer uploads +
#                                   #   scrub repair + codec stress loop +
#                                   #   put journal + the CSP call layer
#                                   #   (core_test: concurrent calls from
#                                   #   pool threads book every record
#                                   #   once) + learned-rate booking from
#                                   #   readahead tasks + parallel split
#                                   #   and Put hashing in build-tsan/
#
# Flags compose: `scripts/check.sh --stress --bench`. The fast tier always
# runs first; labeled suites are opt-in so the default stays quick enough
# for a pre-commit hook.
set -euo pipefail

cd "$(dirname "$0")/.."

RUN_STRESS=0
RUN_SOAK=0
RUN_METRICS=0
RUN_CHAOS=0
RUN_CODEC=0
RUN_STREAM=0
RUN_INTEGRITY=0
RUN_BENCH=0
RUN_TSAN=0
RUN_ASAN=0
RUN_PERFBENCH=0

for arg in "$@"; do
  case "$arg" in
    --stress)  RUN_STRESS=1 ;;
    --soak)    RUN_SOAK=1 ;;
    --metrics) RUN_METRICS=1 ;;
    --chaos)   RUN_CHAOS=1 ;;
    --codec)   RUN_CODEC=1 ;;
    --stream)  RUN_STREAM=1 ;;
    --integrity) RUN_INTEGRITY=1 ;;
    --all)     RUN_STRESS=1; RUN_SOAK=1; RUN_METRICS=1; RUN_CHAOS=1; RUN_CODEC=1; RUN_STREAM=1; RUN_INTEGRITY=1 ;;
    --bench)   RUN_BENCH=1 ;;
    --tsan)    RUN_TSAN=1 ;;
    --asan)    RUN_ASAN=1 ;;
    --perfbench) RUN_PERFBENCH=1 ;;
    *) echo "unknown flag: $arg" >&2; exit 2 ;;
  esac
done

# Prefer Ninja for fresh build trees, but never force a generator onto an
# existing cache (cmake hard-errors on a generator mismatch).
configure() {
  local dir="$1"; shift
  local gen=()
  if [[ ! -f "$dir/CMakeCache.txt" ]] && command -v ninja >/dev/null 2>&1; then
    gen=(-G Ninja)
  fi
  cmake -B "$dir" -S . "${gen[@]}" "$@" >/dev/null
}

echo "== build =="
configure build
cmake --build build --parallel

echo "== tier-1 tests (fast, unlabeled) =="
ctest --test-dir build -LE 'stress|soak|metrics|chaos' --output-on-failure

if [[ "$RUN_STRESS" == 1 ]]; then
  echo "== stress: pipelined transfer engine =="
  ctest --test-dir build -L stress --output-on-failure
fi

if [[ "$RUN_SOAK" == 1 ]]; then
  echo "== soak: repair fault schedules + gateway zipfian soak =="
  ctest --test-dir build -L soak --output-on-failure
fi

if [[ "$RUN_METRICS" == 1 ]]; then
  echo "== metrics: observability exposition =="
  ctest --test-dir build -L metrics --output-on-failure
fi

if [[ "$RUN_CHAOS" == 1 ]]; then
  echo "== chaos: degraded-mode transfer engine =="
  ctest --test-dir build -L chaos --output-on-failure
fi

if [[ "$RUN_CODEC" == 1 ]]; then
  echo "== codec: differential battery on every kernel the host supports =="
  # Once under the CPUID-dispatched kernel, then forced down the ladder:
  # each kernel must agree with the scalar oracle byte for byte (the
  # forced runs fall back cleanly on hosts lacking the ISA).
  ctest --test-dir build -L codec --output-on-failure
  CYRUS_CODEC_KERNEL=ssse3 ctest --test-dir build -L codec --output-on-failure
  CYRUS_CODEC_KERNEL=scalar ctest --test-dir build -L codec --output-on-failure
fi

if [[ "$RUN_STREAM" == 1 ]]; then
  echo "== stream: chunk cache + range reads + streaming bars =="
  ctest --test-dir build -L stream --output-on-failure
  # A race in the readahead window, claim or join fails the tier here
  # instead of flaking once in N ctest runs.
  ./build/tests/chunk_cache_test --gtest_filter='RangeReadTest.*' --gtest_repeat=50 \
    --gtest_brief=1
  (cd build && ./bench/bench_streaming)
fi

if [[ "$RUN_INTEGRITY" == 1 ]]; then
  echo "== integrity: share authentication + corrupt-CSP isolation + scrub =="
  ctest --test-dir build -L integrity --output-on-failure
fi

if [[ "$RUN_PERFBENCH" == 1 ]]; then
  echo "== perfbench: every workload at tiny scale, results checked =="
  # A Put that plans its chunks wrongly reads back wrong bytes or breaks
  # the traced replay's chunk count, and fails here.
  python3 perfbench/smoke_test.py
fi

if [[ "$RUN_BENCH" == 1 ]]; then
  echo "== bench: pipeline / degraded / repair / gateway / dedup / integrity / selector bars =="
  # Each binary enforces its own hard bars and exits non-zero on a miss
  # (e.g. pipelined Put slower than sequential, gateway probe p99 blowing
  # the 1.5x isolation bar under 2x overload, any Get surfacing corrupt
  # plaintext in the integrity chaos run, the download selector's mean
  # ratio to the exact optimum above greedy-fastest's or the per-chunk
  # fixing loop's).
  (cd build &&
    ./bench/bench_pipeline &&
    ./bench/bench_degraded &&
    ./bench/bench_repair &&
    ./bench/bench_gateway &&
    ./bench/bench_dedup &&
    ./bench/bench_streaming &&
    ./bench/bench_integrity &&
    ./bench/bench_fig12_erasure &&
    ./bench/bench_ablation_selector)
  echo "== bench: delta vs bench/baselines (strict past 50%) =="
  # --strict turns gross movements into failures; the loose 50% threshold
  # keeps scheduler-level timing jitter advisory while still catching real
  # regressions the per-binary bars are too coarse to see.
  python3 scripts/bench_delta.py --strict --flag-pct 50 \
    build/BENCH_pipeline.json build/BENCH_degraded.json \
    build/BENCH_repair.json build/BENCH_gateway.json \
    build/BENCH_dedup.json build/BENCH_streaming.json \
    build/BENCH_integrity.json build/BENCH_codec.json
fi

if [[ "$RUN_TSAN" == 1 ]]; then
  echo "== tsan: stress battery + gateway concurrency under ThreadSanitizer =="
  configure build-tsan -DENABLE_TSAN=ON
  # The chunk writer's first upload pass runs ParallelFor from pipeline
  # workers, and scrub repair writes through the same writer. Every
  # connector call books into shared counters and the monitor's excess
  # window from whichever thread made it (core_test drives the call layer
  # from pool threads), while the driver's Gets read the window for
  # selection. A large Put
  # cuts its segments and hashes its chunk ids on the pool; the
  # chunker's per-byte oracle suite is single-threaded and takes minutes
  # under TSan, so the tier runs the rest of chunker_test.
  cmake --build build-tsan --parallel --target pipeline_stress_test thread_pool_test degraded_test gateway_test dedup_test buffer_pool_test chunk_cache_test integrity_test chunk_reader_test chunk_writer_test repair_test codec_stress_test robustness_test chunker_test client_test core_test
  (cd build-tsan && ./tests/thread_pool_test && ./tests/pipeline_stress_test && ./tests/degraded_test &&
    ./tests/gateway_test && ./tests/dedup_test &&
    ./tests/buffer_pool_test && ./tests/chunk_cache_test &&
    ./tests/integrity_test && ./tests/chunk_reader_test && ./tests/chunk_writer_test &&
    ./tests/repair_test && ./tests/codec_stress_test && ./tests/robustness_test &&
    ./tests/chunker_test --gtest_filter='-ChunkerOracleTest.*' && ./tests/client_test &&
    ./tests/core_test)
fi

if [[ "$RUN_ASAN" == 1 ]]; then
  echo "== asan: chunker, SHA-1, codec kernels, moved shares and record log under ASan+UBSan =="
  configure build-asan -DENABLE_SANITIZERS=ON
  cmake --build build-asan --parallel --target chunker_test crypto_test codec_property_test secret_sharing_test client_test chunk_reader_test record_log_test util_test metadata_store_test
  # UBSan only reports by default; make a report fail the tier.
  (cd build-asan && export UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 &&
    ./tests/chunker_test && ./tests/crypto_test && ./tests/codec_property_test &&
    ./tests/secret_sharing_test && ./tests/client_test && ./tests/chunk_reader_test &&
    ./tests/record_log_test && ./tests/util_test && ./tests/metadata_store_test)
fi

echo "OK"
