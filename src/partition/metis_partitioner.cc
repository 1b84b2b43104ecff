#include "partition/metis_partitioner.h"

#include <algorithm>
#include <deque>
#include <numeric>
#include <utility>

#include "common/logging.h"
#include "common/rng.h"
#include "common/telemetry.h"
#include "common/timer.h"
#include "graph/csr_graph.h"
#include "partition/partitioner.h"

namespace gnndm {
namespace {

/// Weighted graph used internally across coarsening levels.
struct WGraph {
  std::vector<uint64_t> offsets;   // n + 1
  std::vector<uint32_t> adj;       // neighbor ids
  std::vector<uint32_t> eweights;  // parallel to adj
  std::vector<uint64_t> vweights;  // n * nc, row-major
  uint32_t n = 0;
  int nc = 1;

  uint64_t vw(uint32_t v, int c) const { return vweights[v * nc + c]; }
};

WGraph FromCsr(const CsrGraph& graph,
               const std::vector<uint32_t>& vertex_weights, int nc) {
  WGraph g;
  g.n = graph.num_vertices();
  g.nc = nc;
  g.offsets.assign(graph.offsets().begin(), graph.offsets().end());
  g.adj.assign(graph.adjacency().begin(), graph.adjacency().end());
  g.eweights.assign(g.adj.size(), 1);
  g.vweights.assign(vertex_weights.begin(), vertex_weights.end());
  return g;
}

/// Heavy-edge matching: greedily pairs each unmatched vertex with its
/// unmatched neighbor of maximum edge weight. Returns match[v] (= v for
/// unmatched singletons).
std::vector<uint32_t> HeavyEdgeMatch(const WGraph& g, Rng& rng) {
  std::vector<uint32_t> match(g.n, UINT32_MAX);
  std::vector<uint32_t> order(g.n);
  std::iota(order.begin(), order.end(), 0u);
  rng.Shuffle(order);
  for (uint32_t v : order) {
    if (match[v] != UINT32_MAX) continue;
    uint32_t best = v;
    uint32_t best_w = 0;
    for (uint64_t e = g.offsets[v]; e < g.offsets[v + 1]; ++e) {
      uint32_t u = g.adj[e];
      if (u == v || match[u] != UINT32_MAX) continue;
      if (g.eweights[e] > best_w) {
        best_w = g.eweights[e];
        best = u;
      }
    }
    match[v] = best;
    match[best] = v;
  }
  return match;
}

/// Per-run workspace for Coarsen, reused across levels: `slot[cu]` is
/// coarse vertex cu's index in the row being built, or kNoSlot, and
/// `row_weight[slot]` is that neighbour's merged edge weight.
struct CoarsenScratch {
  static constexpr uint32_t kNoSlot = UINT32_MAX;
  std::vector<uint32_t> slot;
  std::vector<uint32_t> row_weight;
};

/// Contracts matched pairs into a coarser graph; fills `coarse_of` with
/// each fine vertex's coarse id.
WGraph Coarsen(const WGraph& g, const std::vector<uint32_t>& match,
               std::vector<uint32_t>& coarse_of, CoarsenScratch& scratch) {
  coarse_of.assign(g.n, UINT32_MAX);
  uint32_t next = 0;
  for (uint32_t v = 0; v < g.n; ++v) {
    if (coarse_of[v] != UINT32_MAX) continue;
    uint32_t partner = match[v];
    coarse_of[v] = next;
    coarse_of[partner] = next;  // partner may equal v
    ++next;
  }

  WGraph coarse;
  coarse.n = next;
  coarse.nc = g.nc;
  coarse.vweights.assign(static_cast<size_t>(next) * g.nc, 0);
  coarse.offsets.assign(next + 1, 0);
  // Every fine edge that survives contraction lands in one coarse row, so
  // the fine edge count bounds the coarse one; the level is trimmed to
  // its exact size below because every level lives until uncoarsening.
  coarse.adj.reserve(g.adj.size());
  coarse.eweights.reserve(g.adj.size());
  if (scratch.slot.size() < next) {
    scratch.slot.resize(next, CoarsenScratch::kNoSlot);
  }

  // Coarse ids follow the lower-numbered member of each pair, so visiting
  // those members in order builds the coarse rows in order, each from its
  // one or two fine rows. Parallel edges merge through `slot`, and the
  // row's unique neighbor ids are then sorted: the same neighbor-ordered,
  // merged row a sort of the raw (neighbor, weight) pairs gave.
  for (uint32_t v = 0; v < g.n; ++v) {
    const uint32_t partner = match[v];
    if (partner < v) continue;  // built with its pair's lower member
    const uint32_t cv = coarse_of[v];
    for (int c = 0; c < g.nc; ++c) {
      uint64_t w = g.vw(v, c);
      if (partner != v) w += g.vw(partner, c);
      coarse.vweights[static_cast<size_t>(cv) * g.nc + c] = w;
    }
    const uint64_t row_begin = coarse.adj.size();
    scratch.row_weight.clear();
    for (uint32_t member : {v, partner}) {
      for (uint64_t e = g.offsets[member]; e < g.offsets[member + 1]; ++e) {
        const uint32_t cu = coarse_of[g.adj[e]];
        if (cu == cv) continue;  // intra-pair edge disappears
        uint32_t& slot = scratch.slot[cu];
        if (slot == CoarsenScratch::kNoSlot) {
          slot = static_cast<uint32_t>(scratch.row_weight.size());
          coarse.adj.push_back(cu);
          scratch.row_weight.push_back(g.eweights[e]);
        } else {
          scratch.row_weight[slot] += g.eweights[e];
        }
      }
      if (partner == v) break;
    }
    std::sort(coarse.adj.begin() + row_begin, coarse.adj.end());
    for (uint64_t i = row_begin; i < coarse.adj.size(); ++i) {
      uint32_t& slot = scratch.slot[coarse.adj[i]];
      coarse.eweights.push_back(scratch.row_weight[slot]);
      slot = CoarsenScratch::kNoSlot;
    }
    coarse.offsets[cv + 1] = coarse.adj.size();
  }
  coarse.adj.shrink_to_fit();
  coarse.eweights.shrink_to_fit();
  return coarse;
}

struct BalanceState {
  // part_weight[p * nc + c]
  std::vector<uint64_t> part_weight;
  std::vector<uint64_t> target;       // per constraint
  std::vector<uint64_t> max_allowed;  // per constraint
  uint32_t num_parts = 0;
  int nc = 1;

  void Init(const WGraph& g, uint32_t parts, double imbalance) {
    num_parts = parts;
    nc = g.nc;
    part_weight.assign(static_cast<size_t>(parts) * nc, 0);
    target.assign(nc, 0);
    max_allowed.assign(nc, 0);
    for (uint32_t v = 0; v < g.n; ++v) {
      for (int c = 0; c < nc; ++c) target[c] += g.vw(v, c);
    }
    for (int c = 0; c < nc; ++c) {
      target[c] = (target[c] + parts - 1) / parts;
      // A zero-total constraint is vacuous; give it unlimited headroom.
      max_allowed[c] =
          target[c] == 0
              ? UINT64_MAX
              : static_cast<uint64_t>((1.0 + imbalance) *
                                      static_cast<double>(target[c])) +
                    1;
    }
  }

  void Add(const WGraph& g, uint32_t v, uint32_t p) {
    for (int c = 0; c < nc; ++c) {
      part_weight[static_cast<size_t>(p) * nc + c] += g.vw(v, c);
    }
  }
  void Remove(const WGraph& g, uint32_t v, uint32_t p) {
    for (int c = 0; c < nc; ++c) {
      part_weight[static_cast<size_t>(p) * nc + c] -= g.vw(v, c);
    }
  }
  bool Fits(const WGraph& g, uint32_t v, uint32_t p) const {
    for (int c = 0; c < nc; ++c) {
      if (part_weight[static_cast<size_t>(p) * nc + c] + g.vw(v, c) >
          max_allowed[c]) {
        return false;
      }
    }
    return true;
  }
  /// Weight of part p on the primary (first) constraint.
  uint64_t Primary(uint32_t p) const {
    return part_weight[static_cast<size_t>(p) * nc];
  }
};

/// Greedy region growing on the coarsest graph: BFS-grow each part until
/// its primary-constraint weight reaches the target, then move on.
std::vector<uint32_t> InitialPartition(const WGraph& g, uint32_t parts,
                                       double imbalance, Rng& rng) {
  std::vector<uint32_t> part(g.n, UINT32_MAX);
  BalanceState balance;
  balance.Init(g, parts, imbalance);

  std::vector<uint32_t> order(g.n);
  std::iota(order.begin(), order.end(), 0u);
  rng.Shuffle(order);
  size_t cursor = 0;
  auto next_unassigned = [&]() -> uint32_t {
    while (cursor < order.size() && part[order[cursor]] != UINT32_MAX) {
      ++cursor;
    }
    return cursor < order.size() ? order[cursor] : UINT32_MAX;
  };

  for (uint32_t p = 0; p + 1 < parts; ++p) {
    uint32_t start = next_unassigned();
    if (start == UINT32_MAX) break;
    std::deque<uint32_t> frontier{start};
    while (!frontier.empty() &&
           balance.Primary(p) < balance.target[0]) {
      uint32_t v = frontier.front();
      frontier.pop_front();
      if (part[v] != UINT32_MAX) continue;
      part[v] = p;
      balance.Add(g, v, p);
      for (uint64_t e = g.offsets[v]; e < g.offsets[v + 1]; ++e) {
        uint32_t u = g.adj[e];
        if (part[u] == UINT32_MAX) frontier.push_back(u);
      }
      // Restart from a fresh seed if the region ran out of frontier.
      if (frontier.empty() && balance.Primary(p) < balance.target[0]) {
        uint32_t fresh = next_unassigned();
        if (fresh == UINT32_MAX) break;
        frontier.push_back(fresh);
      }
    }
  }
  // Everything left goes to the last part.
  for (uint32_t v = 0; v < g.n; ++v) {
    if (part[v] == UINT32_MAX) {
      part[v] = parts - 1;
      balance.Add(g, v, parts - 1);
    }
  }
  return part;
}

/// Boundary FM-style refinement: greedily move boundary vertices to the
/// adjacent part with the highest positive cut gain, subject to balance.
void Refine(const WGraph& g, std::vector<uint32_t>& part, uint32_t parts,
            double imbalance, int passes, Rng& rng) {
  BalanceState balance;
  balance.Init(g, parts, imbalance);
  for (uint32_t v = 0; v < g.n; ++v) balance.Add(g, v, part[v]);

  std::vector<uint32_t> order(g.n);
  std::iota(order.begin(), order.end(), 0u);
  std::vector<uint64_t> link(parts, 0);
  for (int pass = 0; pass < passes; ++pass) {
    rng.Shuffle(order);
    uint64_t moves = 0;
    for (uint32_t v : order) {
      const uint32_t home = part[v];
      // Edge weight from v into each part.
      std::fill(link.begin(), link.end(), 0);
      bool boundary = false;
      for (uint64_t e = g.offsets[v]; e < g.offsets[v + 1]; ++e) {
        uint32_t p = part[g.adj[e]];
        link[p] += g.eweights[e];
        if (p != home) boundary = true;
      }
      if (!boundary) continue;
      uint32_t best_part = home;
      int64_t best_gain = 0;
      for (uint32_t p = 0; p < parts; ++p) {
        if (p == home || link[p] == 0) continue;
        int64_t gain = static_cast<int64_t>(link[p]) -
                       static_cast<int64_t>(link[home]);
        if (gain > best_gain) {
          balance.Remove(g, v, home);
          if (balance.Fits(g, v, p)) {
            best_gain = gain;
            best_part = p;
          }
          balance.Add(g, v, home);
        }
      }
      if (best_part != home) {
        balance.Remove(g, v, home);
        balance.Add(g, v, best_part);
        part[v] = best_part;
        ++moves;
      }
    }
    if (moves == 0) break;
  }
}

}  // namespace

std::vector<uint32_t> MultilevelPartition(
    const CsrGraph& graph, const std::vector<uint32_t>& vertex_weights,
    int num_constraints, uint32_t num_parts, uint64_t seed,
    const MultilevelOptions& options) {
  GNNDM_CHECK(num_parts >= 1);
  GNNDM_CHECK(vertex_weights.size() ==
              static_cast<size_t>(graph.num_vertices()) * num_constraints);
  if (num_parts == 1) {
    return std::vector<uint32_t>(graph.num_vertices(), 0);
  }
  Rng rng(seed);

  // Coarsening phase.
  std::vector<WGraph> levels;
  std::vector<std::vector<uint32_t>> projections;  // fine -> coarse ids
  levels.push_back(FromCsr(graph, vertex_weights, num_constraints));
  {
    TRACE_SPAN("partition.coarsen");
    const uint32_t coarsen_target =
        std::max<uint32_t>(num_parts * options.coarsen_target_per_part, 64);
    CoarsenScratch scratch;
    while (levels.back().n > coarsen_target &&
           static_cast<int>(levels.size()) < options.max_coarsen_levels) {
      const WGraph& fine = levels.back();
      std::vector<uint32_t> match = HeavyEdgeMatch(fine, rng);
      std::vector<uint32_t> coarse_of;
      WGraph coarse = Coarsen(fine, match, coarse_of, scratch);
      if (coarse.n >= fine.n) break;  // matching stalled
      projections.push_back(std::move(coarse_of));
      levels.push_back(std::move(coarse));
    }
  }

  // Initial partition on the coarsest level.
  std::vector<uint32_t> part;
  {
    TRACE_SPAN("partition.init");
    part = InitialPartition(levels.back(), num_parts, options.imbalance, rng);
    Refine(levels.back(), part, num_parts, options.imbalance,
           options.refine_passes, rng);
  }

  // Uncoarsen with refinement at every level.
  {
    TRACE_SPAN("partition.refine");
    for (size_t level = projections.size(); level-- > 0;) {
      const std::vector<uint32_t>& coarse_of = projections[level];
      std::vector<uint32_t> fine_part(coarse_of.size());
      for (uint32_t v = 0; v < coarse_of.size(); ++v) {
        fine_part[v] = part[coarse_of[v]];
      }
      part = std::move(fine_part);
      Refine(levels[level], part, num_parts, options.imbalance,
             options.refine_passes, rng);
    }
  }
  return part;
}

std::vector<uint32_t> MetisCluster(const CsrGraph& graph,
                                   uint32_t num_clusters, uint64_t seed) {
  // Single constraint: vertex count.
  std::vector<uint32_t> weights(graph.num_vertices(), 1);
  return MultilevelPartition(graph, weights, /*num_constraints=*/1,
                             num_clusters, seed);
}

PartitionResult MetisPartitioner::Partition(const PartitionInput& input,
                                            uint32_t num_parts,
                                            uint64_t seed) const {
  WallTimer timer;
  const VertexId n = input.graph.num_vertices();
  RoleMasks masks = MakeRoleMasks(n, input.split);

  // Build the constraint matrix for this mode. The first (primary)
  // constraint is always the training-vertex count.
  int nc = 0;
  switch (mode_) {
    case MetisMode::kV:
      nc = 1;  // train
      break;
    case MetisMode::kVE:
      nc = 2;  // train, degree
      break;
    case MetisMode::kVET:
      nc = 4;  // train, val, test, degree
      break;
  }
  std::vector<uint32_t> weights(static_cast<size_t>(n) * nc, 0);
  for (VertexId v = 0; v < n; ++v) {
    uint32_t* row = weights.data() + static_cast<size_t>(v) * nc;
    row[0] = masks.is_train[v];
    if (mode_ == MetisMode::kVE) {
      row[1] = input.graph.degree(v);
    } else if (mode_ == MetisMode::kVET) {
      row[1] = masks.is_val[v];
      row[2] = masks.is_test[v];
      row[3] = input.graph.degree(v);
    }
  }

  PartitionResult result;
  result.num_parts = num_parts;
  result.assignment =
      MultilevelPartition(input.graph, weights, nc, num_parts, seed);
  result.seconds = timer.Seconds();
  GNNDM_DCHECK_OK(result.Validate(input.graph.num_vertices()));
  return result;
}

std::string MetisPartitioner::name() const {
  switch (mode_) {
    case MetisMode::kV:
      return "Metis-V";
    case MetisMode::kVE:
      return "Metis-VE";
    case MetisMode::kVET:
      return "Metis-VET";
  }
  return "Metis-?";
}

}  // namespace gnndm
