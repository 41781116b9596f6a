#!/usr/bin/env bash
# One-stop pre-merge check. Stages, cheapest first:
#
#   1. chiron-lint          — determinism, threading, layering, locking &
#                             allocation contract, gated on the committed
#                             baseline (DESIGN.md §5.13); cached, so an
#                             unchanged tree re-checks in under a second
#   2. header check         — every src/**/*.h compiles standalone
#   3. build + ctest        — Release tree with CHIRON_WERROR=ON, full suite
#                             three times over (--repeat until-fail:3), so
#                             a flaky test fails the stage
#   4. UBSan                — full suite under -fsanitize=undefined (no recover)
#   5. TSan                 — concurrency-heavy suites under -fsanitize=thread
#   6. ASan                 — same suites under -fsanitize=address
#   7. clang-tidy           — curated pinned profile over src/ via
#                             compile_commands.json (SKIPs only when the
#                             clang-tidy binary is absent)
#   8. observability        — fig3 harness with round log + metrics +
#                             tracing on, diffed across --threads 1 vs 8
#                             (DESIGN.md §5.9 determinism contract)
#   9. serving              — scripted chiron_serve session (hot reload
#                             mid-stream) diffed across serial vs
#                             parallel serving (DESIGN.md §5.10)
#  10. adversary            — zero-knob and thread-count byte-identity of
#                             adversarial runs, plus ASan on the adversary
#                             suites (DESIGN.md §5.11)
#  11. scale                — zero-knob byte-identity of the scaling knobs
#                             and 10k-node thread-count byte-identity of
#                             the economics plane, plus ASan on the plane
#                             and shard-tree suites (DESIGN.md §5.12)
#  12. pipeline            — round-pipeline determinism: fig3 byte-diff
#                             with --pipeline off vs on at --threads 1
#                             and 8, plus the pipelined run and suites
#                             under TSan (DESIGN.md §5.14)
#  13. benchmarks           — regenerates BENCH_substrate.json, so a perf
#                             regression (or a silently missing benchmark
#                             binary) fails the check instead of dropping
#                             out of the trajectory
#  14. perfbench            — the end-to-end benchmark's self-tests and a
#                             short run of every workload at --trace 0 and
#                             1; any non-zero exit (a build break against
#                             the library API or a failed output check)
#                             fails the stage
#  15. native-ISA bits      — a -DCHIRON_NATIVE=ON build (-march=native:
#                             wider vectors, FMA contraction) running the
#                             GEMM direct-vs-packed and batch ≡ singles
#                             suites, so the direct small-shape path fails
#                             loudly if its arithmetic ever drifts from the
#                             micro-kernel's (DESIGN.md §5.7)
#
# Each stage prints a PASS/FAIL banner with its wall time, the first
# failure stops the run, and either way a final summary table lists every
# stage that ran with its result and duration. Every stage uses its own
# build directory, so an up-to-date tree only pays incremental rebuilds.
#
# Usage: tools/check_all.sh
set -euo pipefail

cd "$(dirname "$0")/.."

SUMMARY=()

print_summary() {
  echo
  echo "==== summary ===="
  printf '%-6s %7s  %s\n' "result" "time" "stage"
  local row
  for row in "${SUMMARY[@]}"; do
    local result="${row%%|*}" rest="${row#*|}"
    local secs="${rest%%|*}" name="${rest#*|}"
    printf '%-6s %6ss  %s\n' "$result" "$secs" "$name"
  done
}

stage() {
  local name="$1"
  shift
  echo
  echo "==== stage $name ===="
  local t0=$SECONDS
  if "$@"; then
    local dt=$((SECONDS - t0))
    SUMMARY+=("PASS|$dt|$name")
    echo "==== PASS: $name (${dt}s) ===="
  else
    local dt=$((SECONDS - t0))
    SUMMARY+=("FAIL|$dt|$name")
    echo "==== FAIL: $name (${dt}s) ===="
    print_summary
    exit 1
  fi
}

build_and_ctest() {
  cmake -B build -S . -DCMAKE_BUILD_TYPE=Release -DCHIRON_WERROR=ON
  cmake --build build -j"$(nproc)"
  ctest --test-dir build --output-on-failure -j"$(nproc)" \
    --repeat until-fail:3
}

# Stage 15: the bit-identity suites that cross the direct/packed GEMM
# boundary, rebuilt for the host's own ISA.
native_bit_identity() {
  cmake -B build-native -S . -DCMAKE_BUILD_TYPE=Release -DCHIRON_NATIVE=ON \
    -DCHIRON_WERROR=ON
  cmake --build build-native -j"$(nproc)" \
    --target test_tensor test_nn test_rl test_serve
  build-native/tests/test_tensor \
    --gtest_filter='Gemm.DirectPathBitEqualsPackedPath:Gemm.ThreadCountNeverChangesBits'
  build-native/tests/test_nn \
    --gtest_filter='InferenceForward.*'
  build-native/tests/test_rl \
    --gtest_filter='GaussianPolicy.MeanBatchRowsBitIdenticalToSingles:ValueNet.ValueBatchRowsBitIdenticalToSingles'
  build-native/tests/test_serve \
    --gtest_filter='ServeEngine.BatchBitIdenticalToSingles:MechanismServer.ResponsesByteIdenticalAcrossWorkerCounts'
}

stage "1/15: chiron-lint (layering/locking/allocation contract)" tools/check_lint.sh
stage "2/15: header self-containment" tools/check_headers.sh
stage "3/15: build -Werror + full ctest" build_and_ctest
stage "4/15: UndefinedBehaviorSanitizer" tools/check_ubsan.sh
stage "5/15: ThreadSanitizer" tools/check_tsan.sh
stage "6/15: AddressSanitizer" tools/check_asan.sh
stage "7/15: clang-tidy" tools/check_tidy.sh
stage "8/15: observability determinism (threads 1 vs 8 diff)" tools/check_obs.sh
stage "9/15: serving determinism (serial vs parallel diff)" tools/check_serve.sh
stage "10/15: adversary contract (zero-knob + thread diff + ASan)" tools/check_adversary.sh
stage "11/15: scale contract (zero-knob + 10k thread diff + ASan)" tools/check_scale.sh
stage "12/15: pipeline determinism (off vs on diff + TSan)" tools/check_pipeline.sh
stage "13/15: substrate benchmarks -> BENCH_substrate.json" tools/bench_substrate.sh
stage "14/15: perfbench (self-tests + every workload, trace 0 and 1)" tools/check_perfbench.sh
stage "15/15: native-ISA bit identity (direct vs packed GEMM, batch vs singles)" native_bit_identity

print_summary
echo
echo "check_all: OK (all stages passed)"
