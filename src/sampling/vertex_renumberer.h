#ifndef GNNDM_SAMPLING_VERTEX_RENUMBERER_H_
#define GNNDM_SAMPLING_VERTEX_RENUMBERER_H_

#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "graph/csr_graph.h"

namespace gnndm {

/// Timestamped dense global→local id map for sampler vertex renumbering.
///
/// Replaces the per-hop std::unordered_map<VertexId, uint32_t>: lookups
/// and inserts are a single array access, and Reset() is an O(1)
/// generation bump instead of a rehash/clear, so steady-state sampling
/// does no hashing and no heap allocation. The cost is one array of
/// {stamp, slot} pairs sized to the graph's vertex count, kept alive
/// across Sample() calls as per-sampler scratch — the classic
/// dense-workspace trade every production sampler makes once graphs fit
/// in memory. A vertex's stamp and slot share one 8-byte entry, so a
/// lookup of a random vertex touches one cache line, not two.
///
/// Slot assignment is caller-driven (insertion order), so a sampler
/// switching to this map assigns exactly the local ids it assigned with
/// the hash map — sampled subgraphs stay bit-identical.
///
/// Not thread-safe; one instance per SamplerScratch, and one scratch per
/// calling thread (see NeighborSampler::Sample) — which is what lets a
/// single const sampler be shared by the BatchSource producer workers.
class VertexRenumberer {
  struct Entry {
    uint32_t stamp = 0;
    uint32_t slot = 0;
  };

 public:
  static constexpr uint32_t kAbsent = std::numeric_limits<uint32_t>::max();

  /// The current generation of the map as a value: the entry array and
  /// the stamp. A hot loop keeps its copy in registers, where byte stores
  /// elsewhere in the loop (which may alias any memory) cannot force the
  /// map's fields to be reloaded on every insert. Valid until the next
  /// Reset.
  class Generation {
   public:
    /// As VertexRenumberer::InsertOrGet.
    std::pair<uint32_t, bool> InsertOrGet(VertexId v, uint32_t next_slot) {
      Entry& entry = entries_[v];
      if (entry.stamp == stamp_) return {entry.slot, false};
      entry = {stamp_, next_slot};
      return {next_slot, true};
    }

   private:
    friend class VertexRenumberer;
    Generation(Entry* entries, uint32_t stamp)
        : entries_(entries), stamp_(stamp) {}

    Entry* entries_;
    uint32_t stamp_;
  };

  /// Starts a new empty generation over the id universe [0, num_ids).
  /// O(1) amortized: grows the array on first use or when the graph
  /// grows, otherwise just bumps the generation stamp.
  void Reset(VertexId num_ids) {
    if (entries_.size() < num_ids) entries_.resize(num_ids);
    if (++epoch_ == 0) {
      // u32 generation wrapped: stale stamps could collide, refill once
      // every ~4 billion resets.
      for (Entry& entry : entries_) entry.stamp = 0;
      epoch_ = 1;
    }
  }

  /// If `v` is absent, inserts it with local id `next_slot` and returns
  /// {next_slot, true}; otherwise returns {existing slot, false}.
  std::pair<uint32_t, bool> InsertOrGet(VertexId v, uint32_t next_slot) {
    return generation().InsertOrGet(v, next_slot);
  }

  Generation generation() { return {entries_.data(), epoch_}; }

  /// Set-style membership insert: true if `v` was newly added.
  bool Insert(VertexId v) { return InsertOrGet(v, 0).second; }

  bool Contains(VertexId v) const { return entries_[v].stamp == epoch_; }

  /// Test-only: force the generation counter so a test can exercise the
  /// u32 wraparound refill without 4 billion Reset() calls.
  void set_epoch_for_testing(uint32_t epoch) { epoch_ = epoch; }
  uint32_t epoch_for_testing() const { return epoch_; }

  /// Local id of `v`, or kAbsent if not inserted this generation.
  uint32_t Find(VertexId v) const {
    return entries_[v].stamp == epoch_ ? entries_[v].slot : kAbsent;
  }

 private:
  std::vector<Entry> entries_;
  uint32_t epoch_ = 0;
};

}  // namespace gnndm

#endif  // GNNDM_SAMPLING_VERTEX_RENUMBERER_H_
