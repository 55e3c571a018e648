#!/usr/bin/env bash
# Runs the 13 paper programs (Table I, Figs. 2b-4, the MIPS comparison and
# the eight ablations) from the repo root, on the suite in
# mann_bench_cache/. Prints each program's output in a log group, as CI
# shows it, and writes it to OUT_DIR/<program>.txt, so that two builds'
# outputs compare with `diff -r`.
#
#   scripts/paper_outputs.sh BUILD_DIR OUT_DIR
#
# Runs every program, then exits 1 if any of them failed (2 on bad usage).
set -uo pipefail

if [[ $# -ne 2 ]]; then
  echo "usage: $0 BUILD_DIR OUT_DIR" >&2
  exit 2
fi
build=$(cd "$1" && pwd) || exit 2
mkdir -p "$2" && out=$(cd "$2" && pwd) || exit 2
cd "$(dirname "$0")/.." || exit 2

failed=()
for program in table1_measurements fig2b_logit_mixture \
    fig3_ith_sweep fig4_per_task compare_mips \
    ablate_adder_tree ablate_fifo_depth ablate_fixed_point \
    ablate_hops ablate_host_link ablate_host_pipelining \
    ablate_ith_calibration ablate_sparse_read; do
  echo "::group::$program"
  if ! "$build/bench/$program" | tee "$out/$program.txt"; then
    failed+=("$program")
  fi
  echo "::endgroup::"
done

if [[ ${#failed[@]} -gt 0 ]]; then
  echo "failed: ${failed[*]}" >&2
  exit 1
fi
