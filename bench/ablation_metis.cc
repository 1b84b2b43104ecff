// Quality of the multilevel partitioner (DESIGN.md §2 and §8), averaged
// over partition seeds 1..N on each dataset and part count:
//  - the Metis-extend modes (V, VE, VET): edge cut and each balance
//    quantity's max / mean part weight, the numbers a change to the
//    engine is judged by;
//  - its knobs in Metis-V mode (refinement passes, coarsening stop point,
//    imbalance tolerance), documenting why the defaults are what they
//    are.
// Exits nonzero if a partition is invalid or leaves a part empty.
//
// Usage: ablation_metis [--datasets=arxiv_s,reddit_s,products_s]
//                       [--parts=4,8] [--seeds=3]
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/flags.h"
#include "common/table.h"
#include "common/timer.h"
#include "graph/csr_graph.h"
#include "graph/dataset.h"
#include "graph/stats.h"
#include "partition/metis_partitioner.h"
#include "partition/partitioner.h"

namespace gnndm {
namespace {

/// The quantities the Metis-extend modes balance, in the VET constraint
/// order of MetisPartitioner::Partition: train, val and test vertex
/// counts, then degree. Every row reports all four, so a mode's balance
/// shows next to what it leaves unbalanced.
constexpr int kQuantities = 4;
const char* const kQuantityNames[kQuantities] = {"train", "val", "test",
                                                 "degree"};

/// Means over seeds of one configuration's partitions.
struct Quality {
  double edge_cut = 0.0;
  double balance[kQuantities] = {};
  double seconds = 0.0;
};

class Harness {
 public:
  Harness(const Dataset& ds, int seeds) : ds_(ds), seeds_(seeds) {
    RoleMasks masks = MakeRoleMasks(ds.graph.num_vertices(), ds.split);
    const VertexId n = ds.graph.num_vertices();
    weights_.assign(static_cast<size_t>(n) * kQuantities, 0);
    for (VertexId v = 0; v < n; ++v) {
      uint32_t* row = weights_.data() + static_cast<size_t>(v) * kQuantities;
      row[0] = masks.is_train[v];
      row[1] = masks.is_val[v];
      row[2] = masks.is_test[v];
      row[3] = ds.graph.degree(v);
    }
  }

  /// Partitions with `partition(seed)` for seeds 1..N and averages;
  /// `config` names the configuration in error messages.
  template <typename PartitionFn>
  Quality Measure(uint32_t parts, const std::string& config,
                  PartitionFn partition) {
    Quality q;
    for (int seed = 1; seed <= seeds_; ++seed) {
      WallTimer timer;
      PartitionResult result;
      result.num_parts = parts;
      result.assignment = partition(static_cast<uint64_t>(seed));
      q.seconds += timer.Seconds();
      Check(result, config, seed);
      q.edge_cut += static_cast<double>(result.EdgeCut(ds_.graph));
      std::vector<double> part_weight(static_cast<size_t>(parts) *
                                      kQuantities);
      for (VertexId v = 0; v < ds_.graph.num_vertices(); ++v) {
        for (int c = 0; c < kQuantities; ++c) {
          part_weight[c * parts + result.assignment[v]] +=
              weights_[static_cast<size_t>(v) * kQuantities + c];
        }
      }
      for (int c = 0; c < kQuantities; ++c) {
        q.balance[c] += ImbalanceFactor(std::vector<double>(
            part_weight.begin() + c * parts,
            part_weight.begin() + (c + 1) * parts));
      }
    }
    q.edge_cut /= seeds_;
    for (double& b : q.balance) b /= seeds_;
    q.seconds /= seeds_;
    return q;
  }

  /// The train column alone: Metis-V's one constraint.
  std::vector<uint32_t> TrainWeights() const {
    std::vector<uint32_t> out(ds_.graph.num_vertices());
    for (size_t v = 0; v < out.size(); ++v) out[v] = weights_[v * kQuantities];
    return out;
  }

  bool failed() const { return failed_; }

 private:
  void Check(const PartitionResult& result, const std::string& config,
             int seed) {
    Status status = result.Validate(ds_.graph.num_vertices());
    std::vector<bool> used(result.num_parts, false);
    for (uint32_t p : result.assignment) {
      if (p < result.num_parts) used[p] = true;
    }
    for (bool u : used) {
      if (!u && status.ok()) status = Status::Internal("empty part");
    }
    if (!status.ok()) {
      std::fprintf(stderr, "ablation_metis: %s x%u %s seed %d: %s\n",
                   ds_.name.c_str(), result.num_parts, config.c_str(), seed,
                   status.ToString().c_str());
      failed_ = true;
    }
  }

  const Dataset& ds_;
  const int seeds_;
  std::vector<uint32_t> weights_;  // n x kQuantities, row-major
  bool failed_ = false;
};

std::vector<std::string> Row(const std::string& dataset, uint32_t parts,
                             const std::string& config, const Quality& q) {
  std::vector<std::string> row = {dataset, std::to_string(parts), config,
                                  Table::Num(q.edge_cut, 0)};
  for (double b : q.balance) row.push_back(Table::Num(b, 3));
  row.push_back(Table::Num(q.seconds, 4));
  return row;
}

std::vector<std::string> Header(const std::string& config) {
  std::vector<std::string> header = {"dataset", "parts", config, "edge_cut"};
  for (const char* name : kQuantityNames) {
    header.push_back(std::string(name) + "_imb");
  }
  header.push_back("seconds");
  return header;
}

int Run(const Flags& flags) {
  const std::vector<uint32_t> part_counts =
      flags.GetPositiveList("parts", "4,8");
  const int seeds =
      static_cast<int>(std::max<int64_t>(1, flags.GetInt("seeds", 3)));
  const std::string over = " (mean over seeds 1.." + std::to_string(seeds) +
                           "; *_imb = max / mean part weight)";

  Table modes("Ablation: Metis-extend modes" + over);
  modes.SetHeader(Header("mode"));
  Table knobs("Ablation: multilevel partitioner knobs (Metis-V mode)" + over);
  knobs.SetHeader(Header("config"));

  bool failed = false;
  for (const Dataset& ds :
       bench::LoadAllOrDie(flags, "arxiv_s,reddit_s,products_s")) {
    Harness harness(ds, seeds);
    const std::vector<uint32_t> train = harness.TrainWeights();
    for (uint32_t parts : part_counts) {
      for (MetisMode mode : {MetisMode::kV, MetisMode::kVE, MetisMode::kVET}) {
        MetisPartitioner metis(mode);
        const Quality q = harness.Measure(parts, metis.name(),
                                          [&](uint64_t seed) {
          return metis.Partition({ds.graph, ds.split}, parts, seed)
              .assignment;
        });
        modes.AddRow(Row(ds.name, parts, metis.name(), q));
      }

      auto knob = [&](const std::string& name, MultilevelOptions options) {
        const Quality q = harness.Measure(parts, name, [&](uint64_t seed) {
          return MultilevelPartition(ds.graph, train, /*num_constraints=*/1,
                                     parts, seed, options);
        });
        knobs.AddRow(Row(ds.name, parts, name, q));
      };
      MultilevelOptions defaults;
      knob("defaults", defaults);
      MultilevelOptions no_refine = defaults;
      no_refine.refine_passes = 0;
      knob("refine_passes=0", no_refine);
      MultilevelOptions heavy_refine = defaults;
      heavy_refine.refine_passes = 8;
      knob("refine_passes=8", heavy_refine);
      MultilevelOptions shallow = defaults;
      shallow.coarsen_target_per_part = 200;
      knob("coarsen_target=200/part", shallow);
      MultilevelOptions tight = defaults;
      tight.imbalance = 0.02;
      knob("imbalance=2%", tight);
      MultilevelOptions loose = defaults;
      loose.imbalance = 0.30;
      knob("imbalance=30%", loose);
    }
    failed = failed || harness.failed();
  }
  bench::Emit(modes, flags, "ablation_metis_modes");
  bench::Emit(knobs, flags, "ablation_metis");
  return failed ? 1 : 0;
}

}  // namespace
}  // namespace gnndm

int main(int argc, char** argv) {
  gnndm::Flags flags(argc, argv);
  return gnndm::Run(flags);
}
