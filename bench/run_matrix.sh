#!/bin/sh
# Run the whole test suite at scale, in one cell. The JIT configuration
# (opt level, summaries, OSR, speculative inlining, stack allocation,
# verifier level, deopt oracle) and the instrumentation (a tracer, the
# sampling + heap profilers, handed to each case's VMs) are not cells
# here: every differential, monotonicity and parity property draws them
# per case (Test_support.gen_config in test/test_support.ml) and prints
# every drawn field when it fails, so one `dune runtest` crosses them
# all. test_serving.ml's threaded suites (real worker domains whose
# reports must equal the single-domain replay's) always run. The cell
# runs the suite with MJVM_TEST_QCHECK_COUNT cases per property (500 by
# default).
#
# The suites refuse any MJVM_TEST_* variable or value that
# test/test_env.ml does not list, so a stale setting stops the cell.
#
# A failing cell prints its environment line (the exact rerun command)
# and the output tail. The run ends with one "N cells, F failed, T s"
# line; the exit code is non-zero iff the cell failed. A failing
# property prints its qcheck seed: QCHECK_SEED=<seed> with the same
# MJVM_TEST_QCHECK_COUNT reproduces it.
#
# Usage: bench/run_matrix.sh   (from the repository root)

cd "$(dirname "$0")/.."

MJVM_TEST_QCHECK_COUNT=${MJVM_TEST_QCHECK_COUNT:-500}
export MJVM_TEST_QCHECK_COUNT

log=$(mktemp)
trap 'rm -f "$log"' EXIT

start=$(date +%s)
echo "=== MJVM_TEST_QCHECK_COUNT=$MJVM_TEST_QCHECK_COUNT ==="
if dune runtest --force >"$log" 2>&1; then
  failed=0
  echo "    ok"
else
  failed=1
  echo "FAILED CELL: MJVM_TEST_QCHECK_COUNT=$MJVM_TEST_QCHECK_COUNT dune runtest --force"
  echo "last 40 lines of output:"
  tail -n 40 "$log" | sed 's/^/    | /'
fi

echo ""
echo "1 cells, $failed failed, $(($(date +%s) - start)) s"
exit "$failed"
