#!/usr/bin/env bash
# gnndm_traceq and gnndm_jsonlint share one JSON grammar: a trace that
# gnndm_jsonlint rejects must make gnndm_traceq exit 1, its documented
# code for a malformed trace. Each probe breaks a well-formed one-span
# trace in exactly one place. Run by ctest as `traceq_rejects_malformed`.
set -euo pipefail

TRACEQ="${1:?usage: traceq_malformed.sh <gnndm_traceq> <gnndm_jsonlint>}"
JSONLINT="${2:?usage: traceq_malformed.sh <gnndm_traceq> <gnndm_jsonlint>}"
WORKDIR="$(mktemp -d)"
trap 'rm -rf "${WORKDIR}"' EXIT

# printf %b expands \x01 into the raw control byte.
trace() {
  printf '{"traceEvents": [{"name": "%b", "ph": "X", "pid": 2, "tid": 0, "ts": %s, "dur": 2}]}\n' \
    "$1" "$2" > "${WORKDIR}/$3.json"
}

trace 'nn' 1 control
trace 'nn' 1-2 number_minus
trace 'nn' 1.2.3 number_two_points
trace 'nn' - number_bare_minus
trace 'n\x01n' 1 raw_control_char
trace 'n\\uZZZZn' 1 non_hex_escape

status=0
expect() {
  local probe="$1" want="$2" got=0
  "${TRACEQ}" --trace="${WORKDIR}/${probe}.json" > /dev/null 2>&1 || got=$?
  if [[ ${got} -ne ${want} ]]; then
    echo "FAIL: gnndm_traceq exited ${got} on ${probe}, want ${want}" >&2
    status=1
  fi
  got=0
  "${JSONLINT}" "${WORKDIR}/${probe}.json" > /dev/null 2>&1 || got=$?
  if [[ $(( got != 0 )) -ne $(( want != 0 )) ]]; then
    echo "FAIL: gnndm_jsonlint exited ${got} on ${probe}" >&2
    status=1
  fi
}

expect control 0
for probe in number_minus number_two_points number_bare_minus \
             raw_control_char non_hex_escape; do
  expect "${probe}" 1
done

if [[ ${status} -eq 0 ]]; then
  echo "PASS: gnndm_traceq rejects every malformed probe with exit 1"
fi
exit ${status}
