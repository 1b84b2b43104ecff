#include "core/attribution.h"

#include <string>

#include "common/table.h"
#include "common/telemetry.h"
#include "common/telemetry_names.h"

namespace gnndm {

namespace {

/// Share of `part` in `total`, in per-mille (integer so it can live in a
/// gauge); 0 when the total is empty.
int64_t PerMille(double part, double total) {
  if (total <= 0.0) return 0;
  return static_cast<int64_t>(1000.0 * part / total);
}

/// The consumer's wall time: reorder-ring wait, NN compute and the
/// optimizer step — the denominator of loader starvation.
double ConsumerWall(const EpochAttribution& e) {
  return e.wall_queue_wait + e.wall_compute + e.wall_optimizer;
}

/// Adds the nine stage seconds of `from` (a batch record or an epoch
/// total) into `into` with plain +=.
template <typename Stages>
void AddStages(const Stages& from, EpochAttribution& into) {
  into.sample += from.sample;
  into.extract += from.extract;
  into.load += from.load;
  into.compute += from.compute;
  into.wall_sample += from.wall_sample;
  into.wall_gather += from.wall_gather;
  into.wall_queue_wait += from.wall_queue_wait;
  into.wall_compute += from.wall_compute;
  into.wall_optimizer += from.wall_optimizer;
}

}  // namespace

const char* BottleneckName(Bottleneck b) {
  switch (b) {
    case Bottleneck::kSampleBound:
      return "sample-bound";
    case Bottleneck::kGatherBound:
      return "gather-bound";
    case Bottleneck::kTransferBound:
      return "transfer-bound";
    case Bottleneck::kComputeBound:
      return "compute-bound";
    case Bottleneck::kLoaderStarved:
      return "loader-starved";
  }
  return "?";
}

Bottleneck BottleneckVerdict(const EpochAttribution& totals,
                             bool has_producers) {
  // Loader starvation is a wall-clock phenomenon: when the consumer
  // waited through more than half of its wall time, the producers cannot
  // keep up.
  const double consumer_wall = ConsumerWall(totals);
  if (has_producers && consumer_wall > 0.0 &&
      totals.wall_queue_wait > 0.5 * consumer_wall) {
    return Bottleneck::kLoaderStarved;
  }
  const double transfer = totals.extract + totals.load;
  // Tie priority prep > transfer > compute: >= keeps the paper's
  // batch-preparation default when stages are equal (e.g. all zero).
  if (totals.sample >= transfer && totals.sample >= totals.compute) {
    return totals.wall_gather > totals.wall_sample ? Bottleneck::kGatherBound
                                                   : Bottleneck::kSampleBound;
  }
  if (transfer >= totals.compute) return Bottleneck::kTransferBound;
  return Bottleneck::kComputeBound;
}

EpochAttribution AttributeEpoch(uint32_t epoch,
                                const std::vector<BatchAttribution>& batches,
                                double pipeline_seconds,
                                size_t loader_workers) {
  EpochAttribution out;
  out.epoch = epoch;
  out.batches = batches.size();
  out.pipeline_seconds = pipeline_seconds;
  // Plain += in delivery order — the bit-exactness contract with
  // EpochStats (see header). Do not reorder or tree-reduce.
  for (const BatchAttribution& b : batches) AddStages(b, out);
  out.verdict = BottleneckVerdict(out, loader_workers > 0);
  return out;
}

Bottleneck SteadyStateVerdict(const std::vector<EpochAttribution>& epochs) {
  if (epochs.empty()) return Bottleneck::kSampleBound;
  if (epochs.size() == 1) return epochs.front().verdict;
  // Steady state = every epoch after the first; re-derive one verdict
  // from the summed stages rather than majority-voting per-epoch labels
  // so a long run with a noisy epoch still lands on the dominant stage.
  EpochAttribution steady;
  bool starvable = false;
  for (size_t i = 1; i < epochs.size(); ++i) {
    AddStages(epochs[i], steady);
    if (epochs[i].verdict == Bottleneck::kLoaderStarved) starvable = true;
  }
  return BottleneckVerdict(steady, starvable);
}

Table AttributionReport(const std::vector<EpochAttribution>& epochs) {
  Table table("pipeline stall attribution (virtual stage seconds)");
  table.SetHeader({"epoch", "batches", "sample", "extract", "load",
                   "compute", "queue_wait(w)", "verdict"});
  for (const EpochAttribution& e : epochs) {
    table.AddRow({std::to_string(e.epoch), std::to_string(e.batches),
                  Table::Num(e.sample, 6), Table::Num(e.extract, 6),
                  Table::Num(e.load, 6), Table::Num(e.compute, 6),
                  Table::Num(e.wall_queue_wait, 6),
                  BottleneckName(e.verdict)});
  }
  table.AddRow({"steady", "", "", "", "", "", "",
                BottleneckName(SteadyStateVerdict(epochs))});
  return table;
}

void PublishAttributionMetrics(const EpochAttribution& epoch) {
  if (!telemetry::Enabled()) return;
  namespace names = telemetry_names;
  const double total =
      epoch.sample + epoch.extract + epoch.load + epoch.compute;
  telemetry::GetGauge(names::kAttribVerdict)
      .Set(static_cast<int64_t>(epoch.verdict));
  telemetry::GetGauge(names::kAttribSamplePm)
      .Set(PerMille(epoch.sample, total));
  telemetry::GetGauge(names::kAttribTransferPm)
      .Set(PerMille(epoch.extract + epoch.load, total));
  telemetry::GetGauge(names::kAttribComputePm)
      .Set(PerMille(epoch.compute, total));
  telemetry::GetGauge(names::kAttribQueueWaitPm)
      .Set(PerMille(epoch.wall_queue_wait, ConsumerWall(epoch)));
}

}  // namespace gnndm
