#include "partition/metis_partitioner.h"

#include <algorithm>
#include <deque>
#include <numeric>
#include <utility>

#include "common/logging.h"
#include "common/rng.h"
#include "common/telemetry.h"
#include "common/telemetry_names.h"
#include "common/timer.h"
#include "graph/csr_graph.h"
#include "partition/partitioner.h"

namespace gnndm {
namespace {

/// Weighted graph used internally across coarsening levels. Each row is
/// sorted by neighbour id, with parallel edges merged into one weight.
struct WGraph {
  std::vector<uint64_t> offsets;   // n + 1
  std::vector<uint32_t> adj;       // neighbor ids
  std::vector<uint32_t> eweights;  // parallel to adj
  std::vector<uint64_t> vweights;  // n * nc, row-major
  std::vector<uint32_t> members;   // input vertices merged into each
  uint32_t n = 0;
  int nc = 1;
  /// Every entry (v, u) has a twin (u, v) of the same weight. Contraction
  /// keeps the twins, so the input's flag holds at every level.
  bool symmetric = true;

  uint64_t vw(uint32_t v, int c) const { return vweights[v * nc + c]; }
};

/// True iff u is in v's row exactly when v is in u's. Rows are sorted and
/// duplicate-free, so visiting the rows in order hands each row u its
/// mirrored ids in ascending order, and one cursor per row checks them.
bool IsSymmetric(const CsrGraph& graph) {
  const std::vector<EdgeId>& offsets = graph.offsets();
  const std::vector<VertexId>& adj = graph.adjacency();
  const VertexId n = graph.num_vertices();
  if (n == 0) return true;
  std::vector<EdgeId> cursor(offsets.begin(), offsets.end() - 1);
  for (VertexId v = 0; v < n; ++v) {
    for (EdgeId e = offsets[v]; e < offsets[v + 1]; ++e) {
      const VertexId u = adj[e];
      if (cursor[u] == offsets[u + 1] || adj[cursor[u]] != v) return false;
      ++cursor[u];
    }
  }
  for (VertexId u = 0; u < n; ++u) {
    if (cursor[u] != offsets[u + 1]) return false;
  }
  return true;
}

WGraph FromCsr(const CsrGraph& graph,
               const std::vector<uint32_t>& vertex_weights, int nc) {
  WGraph g;
  g.n = graph.num_vertices();
  g.nc = nc;
  g.offsets.assign(graph.offsets().begin(), graph.offsets().end());
  g.adj.assign(graph.adjacency().begin(), graph.adjacency().end());
  g.eweights.assign(g.adj.size(), 1);
  g.vweights.assign(vertex_weights.begin(), vertex_weights.end());
  g.members.assign(g.n, 1);
  g.symmetric = IsSymmetric(graph);
  return g;
}

/// CSR rows with edge weights, as Coarsen's scratch holds them.
struct Rows {
  std::vector<uint64_t> offsets;
  std::vector<uint32_t> adj;
  std::vector<uint32_t> eweights;
};

/// Counting transpose of the first `n` rows of `in` into `out`, whose
/// arrays must already hold `n` + 1 offsets and every entry: row u of
/// `out` lists, in ascending order, each row v of `in` whose list holds u,
/// with that entry's weight. Both are a Rows or a WGraph. `cursor` is
/// workspace.
template <typename In, typename Out>
void Transpose(uint32_t n, const In& in, Out& out,
               std::vector<uint64_t>& cursor) {
  std::fill(out.offsets.begin(), out.offsets.begin() + n + 1, 0);
  for (uint64_t e = 0; e < in.offsets[n]; ++e) ++out.offsets[in.adj[e] + 1];
  for (uint32_t u = 0; u < n; ++u) out.offsets[u + 1] += out.offsets[u];
  cursor.assign(out.offsets.begin(), out.offsets.begin() + n);
  for (uint32_t v = 0; v < n; ++v) {
    for (uint64_t e = in.offsets[v]; e < in.offsets[v + 1]; ++e) {
      const uint64_t at = cursor[in.adj[e]]++;
      out.adj[at] = v;
      out.eweights[at] = in.eweights[e];
    }
  }
}

/// Per-run workspace for matching and Coarsen, reused across levels so
/// that a level allocates only its own exactly-sized arrays.
struct CoarsenScratch {
  static constexpr uint32_t kNoSlot = UINT32_MAX;
  /// slot[cu]: coarse neighbour cu's index in the row being merged, or
  /// kNoSlot.
  std::vector<uint32_t> slot;
  /// The merged rows, each in first-seen neighbour order.
  Rows merged;
  /// Their transpose, for an asymmetric level only.
  Rows transposed;
  std::vector<uint64_t> cursor;
  /// 2-hop matching's lists: hub u's candidates are
  /// hub_members[hub_offsets[u]..hub_offsets[u + 1]).
  std::vector<uint64_t> hub_offsets;
  std::vector<uint32_t> hub_members;
};

constexpr uint32_t kUnmatched = UINT32_MAX;

/// METIS's cap on the size of a coarse vertex (its maxvwgt): a pair may
/// merge only if the result weighs at most 1.5 x total / coarsen target
/// on every constraint and holds at most that share of the input's
/// vertices. Uncapped heavy-edge matching grows clusters around hubs and
/// leaves a coarsest graph too lumpy to balance.
class MatchCaps {
 public:
  MatchCaps(const WGraph& input, uint32_t coarsen_target)
      : vweight_(input.nc, 0) {
    for (uint32_t v = 0; v < input.n; ++v) {
      for (int c = 0; c < input.nc; ++c) vweight_[c] += input.vw(v, c);
    }
    auto cap = [&](uint64_t total) {
      return static_cast<uint64_t>(1.5 * static_cast<double>(total) /
                                   coarsen_target);
    };
    for (uint64_t& w : vweight_) w = cap(w);
    members_ = cap(input.n);
  }

  bool Fit(const WGraph& g, uint32_t v, uint32_t u) const {
    if (uint64_t{g.members[v]} + g.members[u] > members_) return false;
    for (int c = 0; c < g.nc; ++c) {
      if (g.vw(v, c) + g.vw(u, c) > vweight_[c]) return false;
    }
    return true;
  }

 private:
  std::vector<uint64_t> vweight_;  // per constraint
  uint64_t members_ = 0;
};

/// One 2-hop round (LaSalle et al., METIS's Match_2HopAny): every vertex
/// lists its unmatched neighbours of degree below `max_degree`, in
/// `order`, and pairs each, from the front of the list, with the last
/// one behind it that `caps` allow. Returns the new unmatched count.
uint64_t TwoHopMatch(const WGraph& g, const MatchCaps& caps,
                     const std::vector<uint32_t>& order, uint32_t max_degree,
                     uint64_t unmatched, std::vector<uint32_t>& match,
                     CoarsenScratch& scratch) {
  auto candidate = [&](uint32_t v) {
    const uint64_t degree = g.offsets[v + 1] - g.offsets[v];
    return match[v] == kUnmatched && degree > 0 && degree < max_degree;
  };
  std::vector<uint64_t>& offsets = scratch.hub_offsets;
  std::vector<uint32_t>& members = scratch.hub_members;
  offsets.assign(static_cast<size_t>(g.n) + 1, 0);
  for (uint32_t v = 0; v < g.n; ++v) {
    if (!candidate(v)) continue;
    for (uint64_t e = g.offsets[v]; e < g.offsets[v + 1]; ++e) {
      ++offsets[g.adj[e] + 1];
    }
  }
  for (uint32_t u = 0; u < g.n; ++u) offsets[u + 1] += offsets[u];
  members.resize(offsets[g.n]);
  scratch.cursor.assign(offsets.begin(), offsets.end() - 1);
  for (uint32_t v : order) {
    if (!candidate(v)) continue;
    for (uint64_t e = g.offsets[v]; e < g.offsets[v + 1]; ++e) {
      members[scratch.cursor[g.adj[e]]++] = v;
    }
  }
  // `back` passes only matched entries, so a candidate that did not fit
  // one front vertex is still offered to the next.
  for (uint32_t hub : order) {
    uint64_t back = offsets[hub + 1];
    for (uint64_t front = offsets[hub]; front < back; ++front) {
      const uint32_t v = members[front];
      if (match[v] != kUnmatched) continue;
      while (back > front + 1 && match[members[back - 1]] != kUnmatched) {
        --back;
      }
      for (uint64_t i = back; --i > front;) {
        const uint32_t u = members[i];
        if (match[u] == kUnmatched && caps.Fit(g, v, u)) {
          match[v] = u;
          match[u] = v;
          unmatched -= 2;
          break;
        }
      }
    }
  }
  return unmatched;
}

/// The 2-hop rounds: each runs while more than `unmatched_share` of the
/// level is still unmatched (METIS's UNMATCHEDFOR2HOP = 0.1, then 1.5x
/// and 2x that), taking vertices of degree below `max_degree`.
struct TwoHopRound {
  double unmatched_share;
  uint32_t max_degree;
};
constexpr TwoHopRound kTwoHopRounds[] = {{0.10, 2}, {0.15, 3}, {0.20, 64}};

/// Pairs the vertices of one level; returns match[v] (= v for
/// singletons). One shuffle of the level orders every pass:
///  1. heavy-edge matching pairs each unmatched vertex with its unmatched
///     neighbour of maximum edge weight that `caps` allows, and each
///     isolated vertex with the last isolated one still single;
///  2. the 2-hop rounds then pair unmatched vertices that share a
///     neighbour, which is what hubs leave behind.
std::vector<uint32_t> Match(const WGraph& g, const MatchCaps& caps, Rng& rng,
                            CoarsenScratch& scratch) {
  std::vector<uint32_t> match(g.n, kUnmatched);
  std::vector<uint32_t> order(g.n);
  std::iota(order.begin(), order.end(), 0u);
  rng.Shuffle(order);
  uint64_t unmatched = g.n;
  auto pair = [&](uint32_t v, uint32_t u) {
    match[v] = u;
    match[u] = v;
    unmatched -= 2;
  };
  uint32_t island = kUnmatched;
  for (uint32_t v : order) {
    if (match[v] != kUnmatched) continue;
    if (g.offsets[v] == g.offsets[v + 1]) {
      if (island != kUnmatched && caps.Fit(g, island, v)) {
        pair(island, v);
        island = kUnmatched;
      } else {
        island = v;
      }
      continue;
    }
    uint32_t best = kUnmatched;
    uint32_t best_w = 0;
    for (uint64_t e = g.offsets[v]; e < g.offsets[v + 1]; ++e) {
      const uint32_t u = g.adj[e];
      if (u == v || match[u] != kUnmatched || g.eweights[e] <= best_w) {
        continue;
      }
      if (caps.Fit(g, v, u)) {
        best_w = g.eweights[e];
        best = u;
      }
    }
    if (best != kUnmatched) pair(v, best);
  }
  for (const TwoHopRound& round : kTwoHopRounds) {
    if (static_cast<double>(unmatched) <= round.unmatched_share * g.n) break;
    unmatched = TwoHopMatch(g, caps, order, round.max_degree, unmatched,
                            match, scratch);
  }
  for (uint32_t v = 0; v < g.n; ++v) {
    if (match[v] == kUnmatched) match[v] = v;
  }
  return match;
}

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
  coarse.symmetric = g.symmetric;
  coarse.vweights.assign(static_cast<size_t>(next) * g.nc, 0);
  coarse.members.resize(next);
  if (scratch.slot.size() < next) {
    scratch.slot.resize(next, CoarsenScratch::kNoSlot);
  }
  // Every fine edge that survives contraction lands in one coarse row, so
  // the fine edge count bounds the merged rows. The scratch only grows, so
  // it is sized once, by the input level.
  Rows& merged = scratch.merged;
  merged.offsets.resize(static_cast<size_t>(next) + 1);
  if (merged.adj.size() < g.adj.size()) {
    merged.adj.resize(g.adj.size());
    merged.eweights.resize(g.adj.size());
  }

  // Coarse ids follow the lower-numbered member of each pair, so visiting
  // those members in order builds the coarse rows in order, each from its
  // one or two fine rows. Parallel edges merge through `slot`.
  uint64_t end = 0;
  for (uint32_t v = 0; v < g.n; ++v) {
    const uint32_t partner = match[v];
    if (partner < v) continue;  // built with its pair's lower member
    const uint32_t cv = coarse_of[v];
    for (int c = 0; c < g.nc; ++c) {
      uint64_t w = g.vw(v, c);
      if (partner != v) w += g.vw(partner, c);
      coarse.vweights[static_cast<size_t>(cv) * g.nc + c] = w;
    }
    coarse.members[cv] =
        g.members[v] + (partner != v ? g.members[partner] : 0);
    const uint64_t row_begin = end;
    for (uint32_t member : {v, partner}) {
      for (uint64_t e = g.offsets[member]; e < g.offsets[member + 1]; ++e) {
        const uint32_t cu = coarse_of[g.adj[e]];
        if (cu == cv) continue;  // intra-pair edge disappears
        uint32_t& slot = scratch.slot[cu];
        if (slot == CoarsenScratch::kNoSlot) {
          slot = static_cast<uint32_t>(end - row_begin);
          merged.adj[end] = cu;
          merged.eweights[end] = g.eweights[e];
          ++end;
        } else {
          merged.eweights[row_begin + slot] += g.eweights[e];
        }
      }
      if (partner == v) break;
    }
    for (uint64_t i = row_begin; i < end; ++i) {
      scratch.slot[merged.adj[i]] = CoarsenScratch::kNoSlot;
    }
    merged.offsets[cv + 1] = end;
  }

  // A counting transpose lists each row's neighbours in ascending order.
  // The transpose of a symmetric level is the level itself, so one pass
  // gives the sorted rows; an asymmetric level takes a second.
  coarse.offsets.resize(static_cast<size_t>(next) + 1);
  coarse.adj.resize(end);
  coarse.eweights.resize(end);
  if (g.symmetric) {
    Transpose(next, merged, coarse, scratch.cursor);
  } else {
    Rows& t = scratch.transposed;
    t.offsets.resize(static_cast<size_t>(next) + 1);
    if (t.adj.size() < end) {
      t.adj.resize(end);
      t.eweights.resize(end);
    }
    Transpose(next, merged, t, scratch.cursor);
    Transpose(next, t, coarse, scratch.cursor);
  }
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
/// A part never gives up its last vertex.
void Refine(const WGraph& g, std::vector<uint32_t>& part, uint32_t parts,
            double imbalance, int passes, Rng& rng) {
  BalanceState balance;
  balance.Init(g, parts, imbalance);
  std::vector<uint32_t> part_size(parts, 0);
  for (uint32_t v = 0; v < g.n; ++v) {
    balance.Add(g, v, part[v]);
    ++part_size[part[v]];
  }

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
      if (!boundary || part_size[home] == 1) continue;
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
        --part_size[home];
        ++part_size[best_part];
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
    const MatchCaps caps(levels.front(), coarsen_target);
    CoarsenScratch scratch;
    while (levels.back().n > coarsen_target) {
      const WGraph& fine = levels.back();
      std::vector<uint32_t> match = Match(fine, caps, rng, scratch);
      std::vector<uint32_t> coarse_of;
      WGraph coarse = Coarsen(fine, match, coarse_of, scratch);
      if (coarse.n == fine.n) break;  // nothing matched
      // METIS's stop rule: a level that keeps more than 85% of its
      // vertices is the last.
      const bool last = coarse.n > 0.85 * fine.n;
      projections.push_back(std::move(coarse_of));
      levels.push_back(std::move(coarse));
      if (last) break;
    }
  }
  if (telemetry::Enabled()) {
    telemetry::GetGauge(telemetry_names::kPartitionCoarsenLevels)
        .Set(static_cast<int64_t>(projections.size()));
    telemetry::GetGauge(telemetry_names::kPartitionCoarsestVertices)
        .Set(levels.back().n);
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
