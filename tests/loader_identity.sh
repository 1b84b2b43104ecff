#!/usr/bin/env bash
# End-to-end check of the BatchSource determinism contract: gnndm_train
# must train the same model whether batches are prepared inline
# (--loader-workers=0) or by 1/4/8 producer workers at prefetch depths 1
# and 16, at any compute-thread count and with telemetry on or off,
# single-worker and distributed (--workers=4) alike; full-graph training
# (--full_batch) holds across threads and telemetry too. The same holds
# across SIMD tiers: a scalar run and an auto run. Every run saves its
# checkpoint, which must be byte-identical (cmp) to its baseline's, and
# prints the same training lines. Zero-copy runs, whose producers only
# sample while the first layer reads the feature rows in place, train the
# same model as their extract-load baselines, which stage the rows: the
# same checkpoint, loss and accuracy. Run by ctest as
# `loader_cli_identity`.
set -euo pipefail

TRAIN_BIN="${1:?usage: loader_identity.sh <path-to-gnndm_train>}"
WORKDIR="$(mktemp -d)"
trap 'rm -rf "${WORKDIR}"' EXIT

COMMON_ARGS=(--dataset=arxiv_s --epochs=2 --batch_size=256 --fanouts=5,5
             --hidden=16 --seed=7)

# Trains one configuration and saves its checkpoint as <name>.gnck.
run() {
  local name="$1"
  shift
  "${TRAIN_BIN}" "${COMMON_ARGS[@]}" "$@" --save="${WORKDIR}/${name}.gnck" \
    > "${WORKDIR}/${name}.out"
}

run baseline --loader-workers=0
run w1_d1 --loader-workers=1 --queue-depth=1
run w4_d1 --loader-workers=4 --queue-depth=1
run w4_d16 --loader-workers=4 --queue-depth=16
run w8_d16 --loader-workers=8 --queue-depth=16
# Compute-thread count composes with loader workers without changing a bit.
run w4_t4 --loader-workers=4 --queue-depth=8 --threads=4
# Telemetry only observes.
run w2_notelemetry --loader-workers=2 --telemetry=0

# Distributed: every simulated worker's batches come from the same plane.
run dist_baseline --workers=4 --loader-workers=0
run dist_w0_d1 --workers=4 --loader-workers=0 --queue-depth=1
run dist_w0_d8 --workers=4 --loader-workers=0 --queue-depth=8
run dist_w2_d1 --workers=4 --loader-workers=2 --queue-depth=1
run dist_w2_d8 --workers=4 --loader-workers=2 --queue-depth=8
run dist_w2_t4 --workers=4 --loader-workers=2 --queue-depth=8 --threads=4
run dist_w2_notelemetry --workers=4 --loader-workers=2 --telemetry=0

# Full-graph training: one batch per epoch, the same model at any
# compute-thread count and with telemetry on or off.
run full_baseline --full_batch
run full_t4 --full_batch --threads=4
run full_notelemetry --full_batch --telemetry=0

# Zero-copy: no staging copy, the same model as extract-load.
run zc_baseline --transfer=zero-copy
run zc_dist --transfer=zero-copy --workers=4 --loader-workers=2
run zc_full --transfer=zero-copy --full_batch

# SIMD tiers: --hidden=48 GraphSAGE GEMMs reach the widest register
# block (32 columns) and its 16-column edge, which --hidden=16 never does.
run sage_scalar --model=graphsage --hidden=48 --simd=scalar
run sage_auto --model=graphsage --hidden=48

status=0
compare() {
  local baseline="$1" variant="$2"
  # Only the training lines: the partitioner line carries wall-clock
  # partition_time, and the checkpoint line its path.
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
  if ! cmp "${WORKDIR}/${baseline}.gnck" "${WORKDIR}/${variant}.gnck"; then
    echo "FAIL: ${variant} checkpoint differs from ${baseline}'s" >&2
    status=1
  fi
}

# Like compare, for a run under another transfer engine: its virtual
# epoch seconds and stage shares follow the engine's cost model, so only
# the loss, accuracy and checkpoint must match.
compare_model() {
  local baseline="$1" variant="$2"
  local keep='s/^(epoch +[0-9]+ +loss [^ ]+ +val [^ ]+).*/\1/'
  grep -E '^(epoch|test accuracy)' "${WORKDIR}/${baseline}.out" |
    sed -E "${keep}" > "${WORKDIR}/${baseline}.model"
  grep -E '^(epoch|test accuracy)' "${WORKDIR}/${variant}.out" |
    sed -E "${keep}" > "${WORKDIR}/${variant}.model"
  if ! diff -u "${WORKDIR}/${baseline}.model" "${WORKDIR}/${variant}.model"; then
    echo "FAIL: ${variant} trained differently from ${baseline}" >&2
    status=1
  fi
  if ! cmp "${WORKDIR}/${baseline}.gnck" "${WORKDIR}/${variant}.gnck"; then
    echo "FAIL: ${variant} checkpoint differs from ${baseline}'s" >&2
    status=1
  fi
}

for variant in w1_d1 w4_d1 w4_d16 w8_d16 w4_t4 w2_notelemetry; do
  compare baseline "${variant}"
done
for variant in dist_w0_d1 dist_w0_d8 dist_w2_d1 dist_w2_d8 dist_w2_t4 \
               dist_w2_notelemetry; do
  compare dist_baseline "${variant}"
done
for variant in full_t4 full_notelemetry; do
  compare full_baseline "${variant}"
done
compare sage_scalar sage_auto
compare_model baseline zc_baseline
compare_model dist_baseline zc_dist
compare_model full_baseline zc_full

if [[ ${status} -eq 0 ]]; then
  echo "PASS: checkpoints and training output byte-identical across loader configurations, threads, telemetry, SIMD tiers and transfer engines, full-batch included"
fi
exit ${status}
