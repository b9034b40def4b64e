#!/bin/sh
# Run the tier-1 test suites under every VM configuration the matrix
# covers: optimization level (none / ea / pea) crossed with
# interprocedural escape summaries (on / off) crossed with on-stack
# replacement (on / off), every cell with the correctness tooling on; a
# separate sweep toggles speculative guarded inlining (on / off) across
# the optimization levels. The suites read the forced
# configuration from MJVM_TEST_OPT / MJVM_TEST_SUMMARIES /
# MJVM_TEST_OSR / MJVM_TEST_INLINING (see
# test/test_env.ml, which rejects any MJVM_TEST_* name or value it does
# not list); a differential or monotonicity failure in any cell is a
# real bug in that configuration. Two extra cells re-run the default
# configuration with the stack-allocation tier forced off
# (MJVM_TEST_STACKALLOC=off), alone and under the correctness tooling.
# One cell turns the speculation-safety verifier off. Two more re-run
# the default configuration with a global tracer installed
# (MJVM_TEST_TRACE=1) and with the global sampling + heap profilers
# installed (MJVM_TEST_PROFILE=1) to check that instrumentation never
# changes behaviour. Two serving cells re-run the suites with the
# multi-tenant harness in forced-replay mode and with real worker
# domains (MJVM_TEST_SERVE, see test/test_serving.ml).
#
# Cells: 12 (opt x summaries x osr) + 6 (inlining x opt) + 7 single
# cells = 25.
#
# Failures do not stop the sweep: every failing cell prints its
# environment line (the exact rerun command) first, then the output
# tail, and the remaining cells still run, so one broken cell cannot
# mask another. Every cell prints its wall time in seconds, and the
# sweep ends with one "N cells, F failed, T s" line. The exit code
# covers every cell — including the final ones — and is non-zero iff
# any cell failed.
#
# MJVM_TEST_QCHECK_COUNT scales the property-based suites up from their
# fast local defaults: every matrix cell runs 500+ random programs per
# differential property.
#
# The main sweep forces the correctness tooling on in every cell
# (MJVM_TEST_CHECK_LEVEL=every-phase, MJVM_TEST_ORACLE=on): the
# speculation-safety verifier audits the deopt metadata after every
# optimization phase and the oracle bisimulates every deoptimization
# against a shadow interpreter replay. Both only observe — they move no
# counter (the verify bench section's no_counter_drift gate) — so one
# sweep checks the configurations and the tooling together; the
# check-level=none cell keeps the verifier-off path covered.
#
# Usage: bench/run_matrix.sh   (from the repository root)

cd "$(dirname "$0")/.."

MJVM_TEST_QCHECK_COUNT=${MJVM_TEST_QCHECK_COUNT:-500}
export MJVM_TEST_QCHECK_COUNT

log=$(mktemp)
trap 'rm -f "$log"' EXIT

cells=0
failed_cells=0
sweep_start=$(date +%s)

# run_cell LABEL [VAR=value ...] — one matrix cell. Output is captured;
# on failure the env line is printed first (so the rerun command is the
# first thing in the failure report); the sweep continues and the
# failure is folded into the final exit code.
run_cell() {
  _label=$1
  shift
  cells=$((cells + 1))
  echo "=== $_label ==="
  _start=$(date +%s)
  if env "$@" dune runtest --force >"$log" 2>&1; then
    echo "    ok ($(($(date +%s) - _start)) s)"
  else
    echo ""
    echo "FAILED CELL ($(($(date +%s) - _start)) s): $* dune runtest --force"
    echo "last 40 lines of output:"
    tail -n 40 "$log" | sed 's/^/    | /'
    failed_cells=$((failed_cells + 1))
  fi
}

# A SPEC violation or a replay divergence in any cell is a compiler bug
# caught by the tooling rather than by a wrong answer downstream.
for opt in none ea pea; do
  for summaries in on off; do
    for osr in on off; do
      run_cell "opt=$opt summaries=$summaries osr=$osr check-level=every-phase oracle=on" \
        "MJVM_TEST_OPT=$opt" "MJVM_TEST_SUMMARIES=$summaries" "MJVM_TEST_OSR=$osr" \
        "MJVM_TEST_CHECK_LEVEL=every-phase" "MJVM_TEST_ORACLE=on"
    done
  done
done

# Speculative-inlining sweep: guarded inlining toggled against the
# optimization levels it interacts with (summaries on, the default).
# With inlining off every virtual call falls back to CHA-safe inlining
# or summaries; results and differential properties must not move
# either way. The inlining=off half doubles as the regression cell for
# the pre-inlining pipeline.
for inlining in on off; do
  for opt in none ea pea; do
    run_cell "inlining=$inlining opt=$opt" \
      "MJVM_TEST_INLINING=$inlining" "MJVM_TEST_OPT=$opt"
  done
done

# Stack-allocation tier off: every frame-bounded materialization falls
# back to a heap allocation. Results, differential properties and the
# interpreted-vs-compiled parity suites must not move; only the
# allocation counters may.
run_cell "stackalloc=off (frame-bounded materializations fall back to the heap)" \
  "MJVM_TEST_STACKALLOC=off"
# And crossed with the correctness tooling: with stack allocation off no
# SPEC12 rule should ever fire and no deopt should ever promote.
run_cell "stackalloc=off check-level=every-phase oracle=on" \
  "MJVM_TEST_STACKALLOC=off" "MJVM_TEST_CHECK_LEVEL=every-phase" "MJVM_TEST_ORACLE=on"

run_cell "check-level=none (verifier fully off: production-shaped config)" \
  "MJVM_TEST_CHECK_LEVEL=none"
run_cell "trace=on (default configuration, global tracer installed)" "MJVM_TEST_TRACE=1"
run_cell "profile=on (default configuration, global sampling + heap profilers installed)" \
  "MJVM_TEST_PROFILE=1"

# Serving cells: the multi-tenant harness in forced-replay mode (the
# same single-threaded schedule CI pins), and with real worker domains
# (MJVM_TEST_SERVE=real unlocks the threaded-vs-replay equality and
# threaded storm-isolation suites in test_serving.ml).
run_cell "serve=replay (multi-tenant harness, deterministic schedule)" \
  "MJVM_TEST_SERVE=replay"
run_cell "serve=real (multi-tenant harness, real worker domains)" \
  "MJVM_TEST_SERVE=real"

echo ""
echo "$cells cells, $failed_cells failed, $(($(date +%s) - sweep_start)) s"
if [ "$failed_cells" -gt 0 ]; then
  exit 1
fi
exit 0
