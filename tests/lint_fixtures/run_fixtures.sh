#!/usr/bin/env bash
# Golden-file harness for gnndm_lint: each fixture in this directory is
# linted in isolation (`--fixture`) and its output must match the
# committed .expected beside it byte for byte. Run by ctest as
# `lint_fixture_golden`. Regenerate a golden after an intentional change:
#   gnndm_lint --fixture tests/lint_fixtures/foo.cc > tests/lint_fixtures/foo.expected
set -euo pipefail

LINT_BIN="${1:?usage: run_fixtures.sh <path-to-gnndm_lint> <fixture-dir>}"
FIXTURE_DIR="${2:?usage: run_fixtures.sh <path-to-gnndm_lint> <fixture-dir>}"

status=0
shopt -s nullglob
# Top-level fixtures exercise the per-file rules with minimal cases;
# history/ holds real findings reduced from the parent of the commit that
# fixed them (each header cites it); effects/ holds the call-graph /
# effect-analysis corpus (overload sets, FunctionRef lambdas, virtual
# overrides, recursive cycles, ParallelFor bodies);
# src/<m>/ fixtures are linted as src/<m>/<name>, for module-scoped rules.
fixtures=("${FIXTURE_DIR}"/*.cc "${FIXTURE_DIR}"/*.h "${FIXTURE_DIR}"/effects/*.cc
          "${FIXTURE_DIR}"/history/*.cc "${FIXTURE_DIR}"/src/*/*.cc)
if [[ ${#fixtures[@]} -eq 0 ]]; then
  echo "FAIL: no fixtures found in ${FIXTURE_DIR}" >&2
  exit 1
fi

for cc in "${fixtures[@]}"; do
  golden="${cc%.*}.expected"
  if [[ ! -f "${golden}" ]]; then
    echo "FAIL: missing golden ${golden}" >&2
    status=1
    continue
  fi
  if ! "${LINT_BIN}" --fixture "${cc}" | diff -u "${golden}" -; then
    echo "FAIL: ${cc} output differs from $(basename "${golden}")" >&2
    status=1
  fi
done

if [[ ${status} -eq 0 ]]; then
  echo "PASS: ${#fixtures[@]} lint fixtures match their goldens"
fi
exit ${status}
