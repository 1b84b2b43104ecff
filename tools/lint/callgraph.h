// Repo-wide call graph built from the token stream: function/lambda
// definitions with body extents, class hierarchy for virtual dispatch,
// and per-call-site resolution by qualified name with class/namespace
// scope tracking. Conservative-edge policy:
//   - every lambda gets an implicit edge from its lexically enclosing
//     function (the encloser either runs it or hands it to a runner it
//     chose, so it owns the lambda's effects) — this is call-site
//     inlining, deliberately NOT an edge from ParallelFor/Submit to the
//     lambda, which would collapse every parallel body into one
//     context-insensitive blob;
//   - invoking a FunctionRef/std::function *parameter* adds no edge: the
//     caller that materialized the callable already owns its effects;
//   - a member call whose receiver type is known dispatches to the
//     method on that class, its bases (inherited definition), and every
//     derived override (virtual dispatch); unknown receivers fall back
//     to every method with that name;
//   - a bare function name used as an argument (function pointer) edges
//     to its unique free-function definition when one exists.
// Lambdas handed to ParallelFor/ParallelFor2D are marked parallel
// roots; lambdas handed to a worker std::thread (emplace_back/push_back/
// thread in a file that owns threads) are producer roots — the effect
// pass walks contracts from those roots.
#ifndef GNNDM_TOOLS_LINT_CALLGRAPH_H_
#define GNNDM_TOOLS_LINT_CALLGRAPH_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "lint/source_file.h"

namespace gnndm_lint {

/// Per-function effect bits, inferred bottom-up over the call graph.
enum Effect : uint8_t {
  kEffAllocates = 1,  // PR 6 hot-path-alloc patterns
  kEffLocks = 2,      // acquires a mutex (.lock()/.try_lock())
  kEffBlocks = 4,     // waits: CondVar wait family, sleep, join
  kEffIo = 8,         // file/stream IO
  kEffRawRng = 16,    // rand()/time()/clock()/random_device
};

/// "allocates+locks" — stable display order, "-" for the empty mask.
std::string EffectNames(uint8_t mask);

enum class CallKind : uint8_t {
  kRepo,           // resolved to >= 1 repo function definition
  kExternal,       // std::/libc/macro/builtin — assumed effect-free
  kCallableParam,  // invokes a FunctionRef/std::function parameter
  kFnRef,          // function name passed as an argument (pointer edge)
  kUnresolved,     // looked like a repo call but nothing matched
};

struct CallSite {
  size_t caller = 0;  // index into CallGraph::fns
  size_t line = 0;
  std::string name;   // simple callee name as written
  std::vector<size_t> callees;  // fn indices (kRepo / kFnRef)
  CallKind kind = CallKind::kExternal;
  bool in_loop = false;      // call token carries kInLoop
  bool in_parallel = false;  // call token carries kInParallel
  bool static_decl = false;  // initializer of a static/thread_local local
  bool is_member = false;
};

/// One intrinsic effect occurrence inside a function body.
struct EffectOrigin {
  uint8_t effect = 0;
  size_t line = 0;
  std::string what;      // the offending token / pattern
  bool in_loop = false;  // inside a loop within the owning function
  bool in_parallel = false;
};

constexpr size_t kNoFn = static_cast<size_t>(-1);

struct FunctionInfo {
  std::string qual;  // ns::Class::Name, or <encloser-qual>::lambda@<line>
  std::string name;  // simple name; "lambda@<line>" for lambdas
  std::string cls;   // owning class simple name ("" for free functions)
  size_t file = 0;   // index into the analyzed file vector
  size_t line = 0;
  size_t body_begin = 0;  // CodeTokens index of the '{'
  size_t body_end = 0;    // CodeTokens index one past the '}'
  uint32_t body_depth = 0;  // loop nesting at the '{' (see loop_depth)
  size_t parent = kNoFn;  // lexical encloser (lambdas)
  bool is_lambda = false;
  bool is_operator = false;
  bool hot = false;            // direct // gnndm-hot annotation
  bool parallel_root = false;  // lambda argument of a ParallelFor* call
  bool producer_root = false;  // lambda handed to a worker std::thread
  uint8_t own_effects = 0;     // intrinsic
  uint8_t effects = 0;         // transitive (after PropagateEffects)
  std::vector<EffectOrigin> origins;  // intrinsic effect witnesses
  std::vector<size_t> sites;          // indices into CallGraph::sites
};

struct CallGraphStats {
  size_t functions = 0;
  size_t lambdas = 0;
  size_t src_call_sites = 0;  // non-operator named call sites in src/
  size_t resolved_repo = 0;
  size_t external = 0;
  size_t callable_param = 0;
  size_t unresolved = 0;
};

struct CallGraph {
  std::vector<FunctionInfo> fns;
  std::vector<CallSite> sites;
  std::map<std::string, std::vector<size_t>> by_name;  // simple name -> fns
  // Per file, per CodeTokens index: loop nesting depth at that token.
  // `in_loop` relative to a function F is depth > F.body_depth — the
  // scope scanner's absolute kInLoop bit would leak an enclosing loop
  // into a lambda defined inside it (`for (...) spawn([]{ entry(); })`
  // does NOT run `entry()` per iteration of anything inside the lambda).
  std::vector<std::vector<uint32_t>> loop_depth;
  CallGraphStats stats;
};

CallGraph BuildCallGraph(const std::vector<SourceFile>& files);

/// Audited work-sharing substrate: ParallelFor, ThreadPool, the crash
/// flight recorder, and the lock-order checker. Their internals
/// legitimately lock/block/allocate (that is their job), so their
/// effects are forced empty — callers inherit nothing from going
/// through them.
bool IsBoundaryFile(const std::string& rel);

/// src/common/ infrastructure: effects propagate *through* these files,
/// but contract traversal does not descend into them — findings are
/// reported at the call site into the infra function, where user code
/// can fix or justify them.
bool IsInfraFile(const std::string& rel);

}  // namespace gnndm_lint

#endif  // GNNDM_TOOLS_LINT_CALLGRAPH_H_
