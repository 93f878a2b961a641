// Disk spill tier for RR-set stream prefixes.
//
// Budgeted selection keeps only a prefix of the θ sampled RR sets
// resident; the suffix used to be *regenerated* from the per-index RNG on
// every greedy round (O(passes × sampling cost)). RRSpillStore instead
// writes evicted index ranges as sequential rr_serialization shard files
// ("chunks") and streams them back one chunk at a time — sequential disk
// reads replace repeated graph traversals, and the replayed sets are
// byte-identical to the sampled originals (the shard format round-trips
// members, widths and per-set edge counts exactly, so seeds/θ/LB match the
// regeneration path bit for bit).
//
// One store holds one engine's global index space: chunks are appended in
// increasing index order (gaps allowed — IMM spills its sampling phase and
// its selection phase into the same store even when the phases are
// separated by discarded ranges) and never overlap. Readers address sets
// by global index; ranges the store does not cover simply fall back to
// engine regeneration at the caller (VisitRange reports how far it got).
//
// Replay is synchronous and uncached: each chunk a visit reaches is read
// with one sequential read, decoded, visited and dropped. A greedy round
// is one VisitRange over the whole spilled range and serving preloads
// read forward, so a small chunk cache would never hit (traced budgeted
// TIM+ runs loaded 32,050 chunks with 0 hits); the page cache already
// keeps recently written chunk files warm.
//
// Thread-safe: a single mutex serializes spills, loads and visits. The
// store is the budget path's slow tier — correctness and bounded memory
// (one decoded chunk resident per visit) matter more than reader
// concurrency here.
//
// Files live in a per-store unique subdirectory of `options.dir` and are
// deleted by the destructor.
#ifndef TIMPP_RRSET_RR_SPILL_H_
#define TIMPP_RRSET_RR_SPILL_H_

#include <cstdint>
#include <functional>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "rrset/rr_collection.h"
#include "util/status.h"
#include "util/types.h"

namespace timpp {

struct RRSpillOptions {
  /// Parent directory for this store's chunk files (created if missing).
  std::string dir;
  /// Sets per chunk file. Chunk size bounds both the spill write batches
  /// and the resident footprint of a loaded chunk.
  uint64_t sets_per_chunk = 4096;
};

/// Counters for spill accounting (monotone; snapshot via stats()).
struct RRSpillStats {
  uint64_t chunks_written = 0;
  uint64_t sets_written = 0;
  uint64_t bytes_written = 0;
  /// Chunk-file loads: one per chunk a visit or read reaches.
  uint64_t chunk_loads = 0;
  /// Always 0 (there is no chunk cache); kept because perfbench reads it.
  uint64_t chunk_hits = 0;
  /// Sets streamed back to visitors/readers.
  uint64_t sets_read = 0;
  /// Always 0 (replay is synchronous); kept because perfbench reads them.
  uint64_t prefetch_issued = 0;
  uint64_t prefetch_hits = 0;
  uint64_t sync_fallback_reads = 0;
};

class RRSpillStore {
 public:
  using Filter = std::function<bool(uint64_t index)>;
  using Visitor =
      std::function<void(uint64_t index, std::span<const NodeId> nodes)>;

  /// `num_graph_nodes` validates reloaded shard node ids (same check the
  /// distributed merge applies).
  RRSpillStore(NodeId num_graph_nodes, RRSpillOptions options);
  ~RRSpillStore();

  RRSpillStore(const RRSpillStore&) = delete;
  RRSpillStore& operator=(const RRSpillStore&) = delete;

  /// Spills sets [local_first, local_first + count) of `src` — which hold
  /// the RR sets of global indices [global_first, global_first + count) —
  /// as one or more chunk files. `per_set_edges`, when non-empty, is
  /// indexed by local set id (rr_serialization's convention) and must
  /// cover the range; when empty, zero edge counts are recorded (readers
  /// that only need members and widths — selection — are unaffected).
  /// `global_first` must be >= the store's current end_index(): chunks
  /// are append-only in index space, gaps allowed.
  Status SpillRange(const RRCollection& src,
                    std::span<const uint64_t> per_set_edges,
                    size_t local_first, size_t count, uint64_t global_first);

  /// Whether every index of [first, first + count) is in some chunk.
  bool Covers(uint64_t first, uint64_t count) const;

  /// Largest e <= first + limit with [first, e) fully chunk-covered
  /// (== first when the store has nothing at `first`).
  uint64_t CoveredEnd(uint64_t first, uint64_t limit) const;

  /// Exclusive end of the highest chunk (0 when nothing spilled).
  uint64_t end_index() const;

  /// Streams the stored sets of [first, first + count) through `visit` in
  /// index order, skipping indices `filter` rejects (filter may be null).
  /// Advances `*stopped_at` to the end of the covered-and-visited prefix:
  /// first + count when fully covered, the first uncovered index on a
  /// coverage gap, or the failed chunk's start on an I/O/corruption error
  /// (in which case the error Status is returned and the caller
  /// regenerates from `*stopped_at`). `sets_visited` (optional) counts
  /// sets actually delivered to `visit`.
  Status VisitRange(uint64_t first, uint64_t count, const Filter& filter,
                    const Visitor& visit, uint64_t* stopped_at,
                    uint64_t* sets_visited = nullptr);

  /// Appends the stored sets of [first, first + count) to `*out` (and
  /// their edge counts to `*edges`, if non-null) in index order. Fails
  /// with NotFound if the range is not fully covered; on any failure
  /// nothing is appended. Serving uses this to preload an evicted shared
  /// prefix back into cache chunks.
  Status ReadRange(uint64_t first, uint64_t count, RRCollection* out,
                   std::vector<uint64_t>* edges);

  RRSpillStats stats() const;

  /// The per-store chunk directory (empty until the first spill).
  std::string directory() const;

 private:
  struct Chunk {
    uint64_t first = 0;
    uint64_t count = 0;
    std::string path;
    uint64_t bytes = 0;
  };
  /// Creates the unique chunk subdirectory on first use.
  Status EnsureDirLocked();

  /// Returns the manifest position of the chunk containing `index`, or
  /// chunks_.size() when uncovered.
  size_t FindChunkLocked(uint64_t index) const;

  /// Reads and decodes chunk `chunk_index` into the empty `*sets` and
  /// `*edges`.
  Status LoadChunkLocked(size_t chunk_index, RRCollection* sets,
                         std::vector<uint64_t>* edges);

  /// Largest e <= first + limit with [first, e) fully chunk-covered.
  uint64_t CoveredEndLocked(uint64_t first, uint64_t limit) const;

  /// Reads a chunk file's bytes.
  Status ReadChunkBytesSync(const Chunk& chunk, std::string* bytes) const;

  const NodeId num_graph_nodes_;
  const RRSpillOptions options_;

  mutable std::mutex mu_;
  std::string dir_;             // unique subdir; empty until first spill
  std::vector<Chunk> chunks_;   // sorted by first, non-overlapping
  RRSpillStats stats_;
};

}  // namespace timpp

#endif  // TIMPP_RRSET_RR_SPILL_H_
