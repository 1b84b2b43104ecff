#ifndef GNNDM_COMMON_TELEMETRY_NAMES_H_
#define GNNDM_COMMON_TELEMETRY_NAMES_H_

#include <cstdint>
#include <string>

namespace gnndm {
namespace telemetry_names {

/// The one registry of telemetry instrument names. Every
/// GetCounter/GetGauge/GetHistogram call site in src/ and bench/ must
/// name its instrument through a constant declared here (enforced by the
/// `metric-name-registry` lint rule), so a typo'd name fails lint instead
/// of silently creating a second instrument that splits the series.
///
/// Naming follows `subsystem.name` (DESIGN.md §9). Keep the list sorted
/// by subsystem.

// attribution (per-epoch stall attribution; DESIGN.md §14)
inline constexpr char kAttribVerdict[] = "attrib.verdict";
inline constexpr char kAttribSamplePm[] = "attrib.sample_pm";
inline constexpr char kAttribTransferPm[] = "attrib.transfer_pm";
inline constexpr char kAttribComputePm[] = "attrib.compute_pm";
inline constexpr char kAttribQueueWaitPm[] = "attrib.queue_wait_pm";

// cache
inline constexpr char kCacheHits[] = "cache.hits";
inline constexpr char kCacheMisses[] = "cache.misses";
inline constexpr char kCacheBuilds[] = "cache.builds";
inline constexpr char kCacheCapacityRows[] = "cache.capacity_rows";

// dist
inline constexpr char kDistStructureBytes[] = "dist.structure_bytes";
inline constexpr char kDistFeatureBytes[] = "dist.feature_bytes";
inline constexpr char kDistPeerContacts[] = "dist.peer_contacts";
inline constexpr char kDistRounds[] = "dist.rounds";
inline constexpr char kDistSyncBytes[] = "dist.sync_bytes";
inline constexpr char kDistRoundSeconds[] = "dist.round_seconds";

// loader (batch data plane)
inline constexpr char kLoaderBatches[] = "loader.batches";
inline constexpr char kLoaderWorkerWindowWaits[] = "loader.worker_window_waits";
inline constexpr char kLoaderReorderOccupancy[] = "loader.reorder_occupancy";
inline constexpr char kLoaderProducerWaitSeconds[] =
    "loader.producer_wait_seconds";
inline constexpr char kLoaderConsumerWaitSeconds[] =
    "loader.consumer_wait_seconds";

// parallel (ParallelFor layer)
inline constexpr char kParallelLoops[] = "parallel.loops";
inline constexpr char kParallelSerialLoops[] = "parallel.serial_loops";
inline constexpr char kParallelChunks[] = "parallel.chunks";
inline constexpr char kParallelImbalance[] = "parallel.imbalance";

// partition (multilevel Metis engine)
inline constexpr char kPartitionCoarsenLevels[] = "partition.coarsen_levels";
inline constexpr char kPartitionCoarsestVertices[] =
    "partition.coarsest_vertices";

// pool (shared ThreadPool)
inline constexpr char kPoolTasks[] = "pool.tasks";

// sampling
inline constexpr char kSamplingSubgraphs[] = "sampling.subgraphs";
inline constexpr char kSamplingSeeds[] = "sampling.seeds";
inline constexpr char kSamplingVertices[] = "sampling.vertices";
inline constexpr char kSamplingEdges[] = "sampling.edges";

// transfer
inline constexpr char kTransferRequests[] = "transfer.requests";
inline constexpr char kTransferBytes[] = "transfer.bytes";
inline constexpr char kTransferRows[] = "transfer.rows";

/// The one sanctioned dynamic instrument name: per-producer-worker
/// produced counts. Callers resolve the name once outside the hot loop.
inline std::string LoaderWorkerProduced(uint32_t worker_id) {
  return "loader.worker" + std::to_string(worker_id) + ".produced";
}

}  // namespace telemetry_names
}  // namespace gnndm

#endif  // GNNDM_COMMON_TELEMETRY_NAMES_H_
