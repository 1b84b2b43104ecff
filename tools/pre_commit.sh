#!/usr/bin/env bash
# Pre-commit gate: run gnndm_lint when any C++ source is staged and
# gnndm_jsonlint on every staged .json file. Wire it up with:
#   ln -s ../../tools/pre_commit.sh .git/hooks/pre-commit
#
# The lint always analyzes the whole repo (the layering pass and the
# call-graph contracts are graph properties — a staged file can break a
# contract in an unstaged one), but it only runs at all when a staged
# file could affect it. A commit is rejected when it adds an unsuppressed
# finding — including the call-graph contracts (parallel-context,
# hot-path-alloc) — or leaves an orphan suppression (unused-suppression
# is itself a finding).
# GNNDM_BUILD_DIR overrides the build tree (default: ./build).
set -euo pipefail

REPO_ROOT="$(git rev-parse --show-toplevel)"
BUILD_DIR="${GNNDM_BUILD_DIR:-${REPO_ROOT}/build}"
cd "${REPO_ROOT}"

mapfile -t staged < <(git diff --cached --name-only --diff-filter=ACMR)
if [[ ${#staged[@]} -eq 0 ]]; then
  exit 0
fi

cpp_staged=()
json_staged=()
for f in "${staged[@]}"; do
  case "$f" in
    *.cc|*.h) cpp_staged+=("$f") ;;
    *.json) json_staged+=("$f") ;;
    tools/layers.txt) cpp_staged+=("$f") ;;  # manifest edits re-lint too
  esac
done

ensure_tool() {
  local target="$1" path="$2"
  if [[ ! -x "${path}" ]]; then
    if [[ -d "${BUILD_DIR}" ]]; then
      cmake --build "${BUILD_DIR}" --target "${target}" >/dev/null
    else
      echo "pre_commit: ${path} missing and no build dir at ${BUILD_DIR}" >&2
      echo "pre_commit: run: cmake -B build -S . && cmake --build build --target ${target}" >&2
      return 1
    fi
  fi
}

status=0

if [[ ${#cpp_staged[@]} -gt 0 ]]; then
  LINT="${BUILD_DIR}/tools/gnndm_lint"
  ensure_tool gnndm_lint "${LINT}" || exit 1
  if ! "${LINT}" "${REPO_ROOT}"; then
    echo "pre_commit: gnndm_lint failed (call-graph findings print the" >&2
    echo "  chain — fix the code or add" >&2
    echo "  'gnndm-lint: suppress(<rule>): <why>' at the flagged line)" >&2
    status=1
  fi
fi

if [[ ${#json_staged[@]} -gt 0 ]]; then
  JSONLINT="${BUILD_DIR}/tools/gnndm_jsonlint"
  ensure_tool gnndm_jsonlint_cli "${JSONLINT}" || exit 1
  if ! "${JSONLINT}" "${json_staged[@]}"; then
    echo "pre_commit: gnndm_jsonlint failed on staged JSON" >&2
    status=1
  fi
fi

exit ${status}
