// Per-file lint rules (see the catalogue in DESIGN.md §11), the
// metric-name registry pass, and the unordered-container matcher the
// effect pass shares with them.
#ifndef GNNDM_TOOLS_LINT_RULES_H_
#define GNNDM_TOOLS_LINT_RULES_H_

#include <set>
#include <string>
#include <vector>

#include "lint/source_file.h"

namespace gnndm_lint {

/// Names declared (anywhere in the token stream) with an unordered
/// container type. Over-approximates on purpose — see the rule comment.
std::set<std::string> UnorderedNames(const std::vector<const Token*>& toks);

/// Runs every per-file rule on `f`.
void RunFileRules(const SourceFile& f);

/// Repo pass: every GetCounter/GetGauge/GetHistogram call site in src/
/// and bench/ names its instrument through src/common/telemetry_names.h.
void CheckMetricNameRegistry(const std::vector<SourceFile>& files);

}  // namespace gnndm_lint

#endif  // GNNDM_TOOLS_LINT_RULES_H_
