#!/usr/bin/env bash
# End-to-end benchmark smoke check (perfbench/README.md).
#
# perfbench compiles src/ directly and calls parts of the library API
# (the economics plane, the fault and adversary plans, realize_round, the
# env accessors, the span phases), and every workload checks its own
# outputs (money invariants, escrow, digests, layer-table coverage). A
# change that breaks either only shows when the benchmark runs, so this
# stage runs it:
#
#   1. `perfbench/run.py --selftest` — builds the benchmark and runs its
#      self-tests;
#   2. every workload for a short run at --trace 0 and at --trace 1.
#
# Any non-zero exit fails the stage. The numbers are not compared with
# anything; runs this short only prove the benchmark builds and its
# checks pass.
#
# Usage: tools/check_perfbench.sh   (2 s per workload run)
set -euo pipefail

cd "$(dirname "$0")/.."
WORKLOADS=(train_blobs sweep_surrogate serve_1k serve_20k market_honest
           market_strategic)

python3 perfbench/run.py --selftest

for trace in 0 1; do
  for w in "${WORKLOADS[@]}"; do
    echo "check_perfbench: $w --trace $trace"
    if ! python3 perfbench/run.py --workload "$w" --seed 1 \
        --seconds 2 --trace "$trace" > /dev/null; then
      echo "check_perfbench: FAIL ($w --trace $trace exited non-zero)"
      exit 1
    fi
  done
done

echo "check_perfbench: OK (self-tests and all workloads at --trace 0 and 1)"
