// Interprocedural effect analysis over the src/ call graph: per-function
// intrinsic effects (allocates / locks / blocks / io) scanned from token
// patterns, propagated bottom-up to a fixpoint, then checked against the
// two contracts, each a walk from its roots:
//   - parallel-context: no locks/blocks/io reachable from a ParallelFor
//     body, or from loop-resident call paths of a producer-thread body
//     (one-time thread setup is exempt, as are static-local
//     initializers, which run once);
//   - hot-path-alloc: no allocation on a per-iteration path of a
//     `// gnndm-hot` function (inside its loops, or anywhere below a call
//     made in one) or anywhere below a ParallelFor body, however many
//     unannotated calls down it happens.
// Findings carry the call chain from the root so the diagnostic shows
// *why* a line is hot or parallel.
#ifndef GNNDM_TOOLS_LINT_EFFECTS_H_
#define GNNDM_TOOLS_LINT_EFFECTS_H_

#include <string>
#include <vector>

#include "lint/callgraph.h"
#include "lint/source_file.h"

namespace gnndm_lint {

/// Fills own_effects/origins for every function, zeroes the boundary
/// files (parallel_for / thread_pool / flight_recorder / lock_order),
/// and propagates callee effects into `effects` until a fixpoint.
void ComputeEffects(const std::vector<SourceFile>& files, CallGraph& g);

/// parallel-context rule (requires ComputeEffects first).
void CheckParallelContext(const std::vector<SourceFile>& files,
                          const CallGraph& g);

/// hot-path-alloc rule (requires ComputeEffects first).
void CheckHotPathAlloc(const std::vector<SourceFile>& files,
                       const CallGraph& g);

/// Machine-readable export (byte-stable across runs on the same tree).
void WriteEffectsJson(const std::string& path,
                      const std::vector<SourceFile>& files,
                      const CallGraph& g);

}  // namespace gnndm_lint

#endif  // GNNDM_TOOLS_LINT_EFFECTS_H_
