#!/usr/bin/env bash
# Builds the tree with ThreadSanitizer (CHIRON_SANITIZE=thread) and runs
# the suites that exercise the parallel runtime: the runtime unit tests,
# the federated-learning tests (parallel rounds + sharded evaluation),
# fault injection and the adversary plans (both planned in parallel),
# the metrics registry and the tensor kernels.
#
# Usage: tools/check_tsan.sh [build-dir]   (default: build-tsan)
set -euo pipefail

cd "$(dirname "$0")/.."
# shellcheck source=tools/sanitize_common.sh
source tools/sanitize_common.sh
BUILD_DIR="${1:-build-tsan}"

# Force multi-threaded paths even on small CI boxes so TSan has races to
# look for; the determinism tests set their own thread counts internally.
export CHIRON_THREADS="${CHIRON_THREADS:-8}"
export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}"

chiron_sanitizer_check thread "$BUILD_DIR" \
  test_runtime test_fl test_faults test_adversary test_obs test_tensor
echo "check_tsan: OK (runtime, fl, faults, adversary, obs and tensor suites" \
  "are TSan-clean)"
