// Storage for a batch of RR sets (the paper's R) with the inverted index
// needed by the greedy max-coverage step and exact memory accounting for
// the Figure 12 experiment.
#ifndef TIMPP_RRSET_RR_COLLECTION_H_
#define TIMPP_RRSET_RR_COLLECTION_H_

#include <cstdint>
#include <span>
#include <vector>

#include "util/types.h"

namespace timpp {

/// Flat, append-only container of RR sets.
///
/// Sets are stored back-to-back in one node array with an offset array
/// (CSR layout). Every append path grows the arrays geometrically, so a
/// collection filled batch by batch is copied O(1) times per set. After all sets are added, BuildIndex() materializes the
/// inverted node -> set-ids index used by coverage computations. Adding
/// after BuildIndex() invalidates the index (checked in debug builds via
/// index_built()).
class RRCollection {
 public:
  explicit RRCollection(NodeId num_nodes) : num_nodes_(num_nodes) {
    offsets_.push_back(0);
  }

  /// Appends one RR set; returns its id. `width` is w(R) from Equation 1.
  RRSetId Add(std::span<const NodeId> nodes, uint64_t width);

  /// Bulk-appends every set of `shard` in shard order — the merge half of
  /// the sampling engine's shard-append protocol: worker threads fill
  /// private shard collections concurrently, then the engine appends the
  /// shards in worker order, which (with index-seeded sampling) yields a
  /// collection identical to a sequential run. One memmove per array
  /// instead of per-set Add calls. Invalidates the index.
  void AppendShard(const RRCollection& shard);

  /// Bulk-appends sets [first, first + count) of `src` in order — the
  /// range-copy primitive behind the engine's chunk-ordered shard merge
  /// and the serving layer's shared-prefix reuse (a request's slice of a
  /// shared collection is byte-identical to sampling it fresh). Ranges
  /// past src.num_sets() are clamped. Invalidates the index.
  void AppendRange(const RRCollection& src, size_t first, size_t count);

  /// Bulk-appends sets stored back to back: set i is the next `sizes[i]`
  /// entries of `nodes`, with width `widths[i]` (equal span lengths for
  /// sizes and widths; Σ sizes == nodes.size()). The decode half of the
  /// RR-shard format: one insert per array instead of per-set Adds.
  /// Invalidates the index.
  void AppendPacked(std::span<const NodeId> nodes,
                    std::span<const uint64_t> sizes,
                    std::span<const uint64_t> widths);

  /// Number of stored sets (the paper's θ once sampling finishes).
  size_t num_sets() const { return offsets_.size() - 1; }

  /// Total nodes across all sets.
  size_t total_nodes() const { return nodes_.size(); }

  /// Number of nodes the host graph has (index width).
  NodeId num_graph_nodes() const { return num_nodes_; }

  /// Nodes of set `id`.
  std::span<const NodeId> Set(RRSetId id) const {
    return {nodes_.data() + offsets_[id], nodes_.data() + offsets_[id + 1]};
  }

  /// Width w(R) of set `id`.
  uint64_t Width(RRSetId id) const { return widths_[id]; }

  /// Start offset of set `id` into the flat node array; `id` may equal
  /// num_sets() (the end offset), so a range's node count is
  /// Offset(b) - Offset(a).
  EdgeIndex Offset(size_t id) const { return offsets_[id]; }

  /// Sum of widths over all sets.
  uint64_t TotalWidth() const { return total_width_; }

  /// Builds (or rebuilds) the inverted index. O(total_nodes).
  void BuildIndex();
  bool index_built() const { return index_built_; }

  /// Releases the inverted index (sets untouched). Budgeted phases that
  /// alternate indexed greedy solves with further sampling call this
  /// before any DataBytes-vs-budget comparison: a stale index would
  /// otherwise be double-charged (once as resident bytes, once as the
  /// rebuild estimate) and latch the budget spuriously.
  void DropIndex();

  /// Ids of the sets containing node `v`. Requires BuildIndex().
  std::span<const RRSetId> SetsContaining(NodeId v) const {
    return {index_sets_.data() + index_offsets_[v],
            index_sets_.data() + index_offsets_[v + 1]};
  }

  /// Number of sets containing `v` (the initial greedy coverage count).
  uint64_t CoverageCount(NodeId v) const {
    return index_offsets_[v + 1] - index_offsets_[v];
  }

  /// Fraction of sets that contain at least one node of `seeds` — the
  /// paper's F_R(S). O(Σ |sets containing seeds|) via the index.
  double CoveredFraction(std::span<const NodeId> seeds) const;

  /// Heap bytes of set storage plus index (Figure 12's memory metric).
  /// Capacity-based: counts what the allocator holds, including growth
  /// slack.
  size_t MemoryBytes() const;

  /// Heap bytes actually filled with data (capacities excluded). This is
  /// the basis of OverMemoryBudget: unlike MemoryBytes it is a pure
  /// function of the stored sets, never of the allocation pattern, so
  /// budget stops land at the same set regardless of how the collection
  /// was filled (per-set Add vs bulk AppendShard; sequential vs parallel
  /// engine paths).
  size_t DataBytes() const;

  /// Memory-budget hook: a soft cap on DataBytes() consulted by producers
  /// that can stop early. The sampling engine checks it at its fixed,
  /// thread-count-independent batch boundaries, so the cap may be
  /// overshot by up to one batch. 0 (the default) means unlimited. The
  /// collection itself never rejects an Add — enforcement is the
  /// producer's job, which keeps append hot paths branch-free.
  void set_memory_budget(size_t bytes) { memory_budget_ = bytes; }
  size_t memory_budget() const { return memory_budget_; }
  bool OverMemoryBudget() const {
    return memory_budget_ != 0 && DataBytes() > memory_budget_;
  }

  /// Drops every set with id >= `num_sets`, keeping the prefix. Used by
  /// budgeted selection to fall back to the largest under-budget prefix
  /// after the sampling engine's batch-granular budget stop overshoots;
  /// the dropped sets are recoverable exactly via per-index regeneration.
  /// Invalidates the index. Capacity is not released (DataBytes shrinks,
  /// MemoryBytes does not).
  void TruncateTo(size_t num_sets);

  /// Releases everything (budget excepted).
  void Clear();

 private:
  NodeId num_nodes_;
  size_t memory_budget_ = 0;
  std::vector<EdgeIndex> offsets_;   // per-set start into nodes_
  std::vector<NodeId> nodes_;        // concatenated set members
  std::vector<uint64_t> widths_;     // per-set w(R)
  uint64_t total_width_ = 0;

  bool index_built_ = false;
  std::vector<EdgeIndex> index_offsets_;  // per-node start into index_sets_
  std::vector<RRSetId> index_sets_;
};

}  // namespace timpp

#endif  // TIMPP_RRSET_RR_COLLECTION_H_
