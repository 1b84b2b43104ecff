#!/usr/bin/env bash
# End-to-end check of the BatchSource determinism contract: gnndm_train
# must print byte-identical output whether batches are prepared inline
# (--loader-workers=0) or by 1/4/8 producer workers at prefetch depths 1
# and 16, single-worker and distributed (--workers=4) alike. The same
# holds across SIMD tiers: a scalar run and an auto run print the same
# training lines and save the same checkpoint bytes. Run by ctest as
# `loader_cli_identity`.
set -euo pipefail

TRAIN_BIN="${1:?usage: loader_identity.sh <path-to-gnndm_train>}"
WORKDIR="$(mktemp -d)"
trap 'rm -rf "${WORKDIR}"' EXIT

COMMON_ARGS=(--dataset=arxiv_s --epochs=2 --batch_size=256 --fanouts=5,5
             --hidden=16 --seed=7)

run() {
  local name="$1"
  shift
  "${TRAIN_BIN}" "${COMMON_ARGS[@]}" "$@" > "${WORKDIR}/${name}.out"
}

run baseline --loader-workers=0
run w1_d1 --loader-workers=1 --queue-depth=1
run w4_d1 --loader-workers=4 --queue-depth=1
run w4_d16 --loader-workers=4 --queue-depth=16
run w8_d16 --loader-workers=8 --queue-depth=16
# Compute-thread count composes with loader workers without changing a bit.
run w4_t4 --loader-workers=4 --queue-depth=8 --threads=4

# Distributed: every simulated worker's batches come from the same plane.
run dist_baseline --workers=4 --loader-workers=0
run dist_w0_d1 --workers=4 --loader-workers=0 --queue-depth=1
run dist_w0_d8 --workers=4 --loader-workers=0 --queue-depth=8
run dist_w2_d1 --workers=4 --loader-workers=2 --queue-depth=1
run dist_w2_d8 --workers=4 --loader-workers=2 --queue-depth=8
run dist_w2_t4 --workers=4 --loader-workers=2 --queue-depth=8 --threads=4

# SIMD tiers: --hidden=48 GraphSAGE GEMMs reach the widest register
# block (32 columns) and its 16-column edge, which --hidden=16 never does.
run sage_scalar --model=graphsage --hidden=48 --simd=scalar \
  --save="${WORKDIR}/sage_scalar.gnck"
run sage_auto --model=graphsage --hidden=48 \
  --save="${WORKDIR}/sage_auto.gnck"

status=0
compare() {
  local baseline="$1" variant="$2"
  # Only the training lines: the partitioner line carries wall-clock
  # partition_time, which differs run to run.
  grep -E '^(epoch|test accuracy)' "${WORKDIR}/${baseline}.out" \
    > "${WORKDIR}/${baseline}.core"
  grep -E '^(epoch|test accuracy)' "${WORKDIR}/${variant}.out" \
    > "${WORKDIR}/${variant}.core"
  if [[ ! -s "${WORKDIR}/${baseline}.core" ]]; then
    echo "FAIL: ${baseline} printed no training lines" >&2
    status=1
  fi
  if ! diff -u "${WORKDIR}/${baseline}.core" "${WORKDIR}/${variant}.core"; then
    echo "FAIL: ${variant} output differs from ${baseline}" >&2
    status=1
  fi
}

for variant in w1_d1 w4_d1 w4_d16 w8_d16 w4_t4; do
  if ! diff -u "${WORKDIR}/baseline.out" "${WORKDIR}/${variant}.out"; then
    echo "FAIL: ${variant} output differs from inline baseline" >&2
    status=1
  fi
done
for variant in dist_w0_d1 dist_w0_d8 dist_w2_d1 dist_w2_d8 dist_w2_t4; do
  compare dist_baseline "${variant}"
done
compare sage_scalar sage_auto
if ! cmp "${WORKDIR}/sage_scalar.gnck" "${WORKDIR}/sage_auto.gnck"; then
  echo "FAIL: --simd=auto checkpoint differs from --simd=scalar" >&2
  status=1
fi

if [[ ${status} -eq 0 ]]; then
  echo "PASS: training output byte-identical across loader configurations and SIMD tiers"
fi
exit ${status}
