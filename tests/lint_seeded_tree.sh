#!/usr/bin/env bash
# The two tree-level lint rules, on a seeded tree: `layering` needs the
# tools/layers.txt manifest and the include graph, and
# `metric-name-registry` needs src/common/telemetry_names.h, so neither
# can fire on a single-file fixture. The tree holds one upward include and
# one unregistered instrument name, and gnndm_lint must exit 1 with
# exactly those two findings. Run by ctest as `lint_seeded_tree`.
set -euo pipefail

LINT_BIN="${1:?usage: lint_seeded_tree.sh <path-to-gnndm_lint>}"
WORKDIR="$(mktemp -d)"
trap 'rm -rf "${WORKDIR}"' EXIT

ROOT="${WORKDIR}/tree"
mkdir -p "${ROOT}/tools" "${ROOT}/src/common" "${ROOT}/src/graph" \
  "${ROOT}/src/core"

cat > "${ROOT}/tools/layers.txt" <<'EOF'
layer common
layer graph
layer core
EOF

cat > "${ROOT}/src/common/telemetry_names.h" <<'EOF'
#ifndef GNNDM_COMMON_TELEMETRY_NAMES_H_
#define GNNDM_COMMON_TELEMETRY_NAMES_H_

namespace gnndm {
namespace telemetry_names {

inline constexpr char kGraphLoads[] = "graph.loads";

}  // namespace telemetry_names
}  // namespace gnndm

#endif  // GNNDM_COMMON_TELEMETRY_NAMES_H_
EOF

cat > "${ROOT}/src/graph/csr.h" <<'EOF'
#ifndef GNNDM_GRAPH_CSR_H_
#define GNNDM_GRAPH_CSR_H_

namespace gnndm {

struct Csr {
  int num_vertices = 0;
};

}  // namespace gnndm

#endif  // GNNDM_GRAPH_CSR_H_
EOF

# Defect 1: common (layer 0) includes graph (layer 1).
cat > "${ROOT}/src/common/util.h" <<'EOF'
#ifndef GNNDM_COMMON_UTIL_H_
#define GNNDM_COMMON_UTIL_H_

#include "graph/csr.h"

#endif  // GNNDM_COMMON_UTIL_H_
EOF

# Defect 2: kGraphSaves is not in the registry; kGraphLoads is.
cat > "${ROOT}/src/core/counts.cc" <<'EOF'
#include "common/telemetry_names.h"

namespace gnndm {

void CountLoad() {
  telemetry::GetCounter(telemetry_names::kGraphLoads).Increment();
}

void CountSave() {
  telemetry::GetCounter(telemetry_names::kGraphSaves).Increment();
}

}  // namespace gnndm
EOF

status=0
"${LINT_BIN}" "${ROOT}" > "${WORKDIR}/lint.out" 2>&1 || status=$?
if [[ ${status} -ne 1 ]]; then
  echo "FAIL: gnndm_lint exited ${status} on the seeded tree, expected 1" >&2
  cat "${WORKDIR}/lint.out" >&2
  exit 1
fi

grep -oE '^[^ ]+:[0-9]+: \[[a-z-]+\]' "${WORKDIR}/lint.out" \
  > "${WORKDIR}/found" || true
cat > "${WORKDIR}/want" <<'EOF'
src/common/util.h:4: [layering]
src/core/counts.cc:10: [metric-name-registry]
EOF
if ! diff -u "${WORKDIR}/want" "${WORKDIR}/found"; then
  echo "FAIL: seeded-tree findings differ from the two seeded defects" >&2
  cat "${WORKDIR}/lint.out" >&2
  exit 1
fi

echo "PASS: gnndm_lint reports exactly the seeded layering and registry defects"
