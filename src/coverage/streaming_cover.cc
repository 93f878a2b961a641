#include "coverage/streaming_cover.h"

#include <algorithm>
#include <vector>

#include "util/bit_vector.h"
#include "util/types.h"

namespace timpp {

size_t MaxPrefixUnderDataBudget(const RRCollection& rr, size_t budget_bytes) {
  // DataBytes of a p-set prefix (no index): p+1 offsets, p widths, and the
  // members of the first p sets.
  size_t nodes = 0;
  size_t prefix = 0;
  for (size_t id = 0; id < rr.num_sets(); ++id) {
    nodes += rr.Set(static_cast<RRSetId>(id)).size();
    const size_t bytes = (id + 2) * sizeof(EdgeIndex) +
                         (id + 1) * sizeof(uint64_t) + nodes * sizeof(NodeId);
    if (bytes > budget_bytes) break;
    prefix = id + 1;
  }
  return prefix;
}

bool IndexedDataBytesFitBudget(const RRCollection& rr, size_t budget_bytes) {
  const size_t index_bytes =
      (static_cast<size_t>(rr.num_graph_nodes()) + 1) * sizeof(EdgeIndex) +
      rr.total_nodes() * sizeof(RRSetId);
  return rr.DataBytes() + index_bytes <= budget_bytes;
}

StreamingCoverResult StreamingGreedyMaxCover(SamplingEngine& engine,
                                             const RRCollection& cache,
                                             uint64_t first_index,
                                             uint64_t total_sets, int k,
                                             RRSpillStore* spill) {
  const NodeId n = engine.graph().num_nodes();
  StreamingCoverResult result;
  if (k <= 0 || n == 0 || total_sets == 0) return result;

  const uint64_t cached = std::min<uint64_t>(cache.num_sets(), total_sets);
  std::vector<uint64_t> counts(n);
  // One flag serves both roles: a node is a chosen seed iff it is out of
  // the running for future picks.
  std::vector<char> selected(n, 0);
  // Liveness of each of the θ sets (local index = global - first_index).
  // A set dies the first time a pass sees it covered by the selected
  // seeds; dead sets are skipped in the cache and never regenerated again
  // (seeds only grow, so death is permanent).
  BitVector dead(total_sets);

  // Counts one live set's members; kills the set instead when a selected
  // seed already covers it.
  const auto absorb = [&](uint64_t local, std::span<const NodeId> set) {
    for (NodeId v : set) {
      if (selected[v]) {
        dead.Set(local);
        return;
      }
    }
    for (NodeId v : set) ++counts[v];
  };

  for (int round = 0; round < k; ++round) {
    // Recompute live-coverage counts from scratch: one pass over the
    // cached prefix, one regeneration pass over the uncached suffix.
    // Recomputation equals GreedyMaxCover's incremental decrements, so
    // every round picks the identical node.
    std::fill(counts.begin(), counts.end(), 0);
    for (uint64_t i = 0; i < cached; ++i) {
      if (dead.Get(i)) continue;
      absorb(i, cache.Set(static_cast<RRSetId>(i)));
    }
    if (cached < total_sets) {
      const auto live = [&](uint64_t index) {
        return !dead.Get(index - first_index);
      };
      const auto absorb_at = [&](uint64_t index,
                                 std::span<const NodeId> set) {
        absorb(index - first_index, set);
      };
      uint64_t pos = first_index + cached;
      const uint64_t end = first_index + total_sets;
      // Replay from the spill tier first: byte-identical to regeneration,
      // but a sequential disk read instead of a graph traversal. Read
      // errors (and coverage gaps) leave `pos` at the first unreplayed
      // index for the regeneration fallback below.
      if (spill != nullptr) {
        uint64_t stopped = pos;
        uint64_t visited = 0;
        (void)spill->VisitRange(pos, end - pos, live, absorb_at, &stopped,
                                &visited);
        if (visited > 0) ++result.spill_read_passes;
        result.sets_spill_read += visited;
        pos = stopped;
      }
      if (pos < end) {
        const SampleBatch pass =
            engine.VisitSamples(pos, end - pos, live, absorb_at);
        if (pass.sets_added > 0) ++result.regeneration_passes;
        result.sets_regenerated += pass.sets_added;
        result.edges_examined += pass.edges_examined;
      }
    }

    // Exact greedy pick: max count, ties to the smaller node id (ascending
    // scan with a strict comparison).
    NodeId best = kInvalidNode;
    for (NodeId v = 0; v < n; ++v) {
      if (selected[v]) continue;
      if (best == kInvalidNode || counts[v] > counts[best]) best = v;
    }
    if (best == kInvalidNode) break;  // every node selected
    selected[best] = 1;
    result.cover.seeds.push_back(best);
    result.cover.marginal_coverage.push_back(counts[best]);
    result.cover.covered_sets += counts[best];
  }

  result.cover.covered_fraction =
      static_cast<double>(result.cover.covered_sets) /
      static_cast<double>(total_sets);
  return result;
}

namespace {

// Fill batch size: matches the engine's per-visit batch, so the transient
// residency of a fill equals what a regeneration pass would have held.
constexpr uint64_t kSetsPerFillBatch = 1024;

}  // namespace

SpillFillResult SpillFillTo(SampleSource& source, RRSpillStore& spill,
                            uint64_t target_index) {
  SpillFillResult result;
  const NodeId n = source.graph().num_nodes();
  // IMM's LB iterations re-fill the same stream with growing targets:
  // skip the prefix already on disk instead of resampling it.
  if (source.position() < target_index) {
    source.Seek(spill.CoveredEnd(source.position(),
                                 target_index - source.position()));
  }
  // One transient batch buffer, cleared (capacity kept) between batches.
  RRCollection scratch(n);
  std::vector<uint64_t> scratch_edges;
  while (source.position() < target_index) {
    const uint64_t pos = source.position();
    const uint64_t want =
        std::min<uint64_t>(kSetsPerFillBatch, target_index - pos);
    scratch.Clear();
    scratch_edges.clear();
    const SampleBatch batch = source.Fetch(&scratch, want, &scratch_edges);
    result.batch.sets_added += batch.sets_added;
    result.batch.edges_examined += batch.edges_examined;
    result.batch.traversal_cost += batch.traversal_cost;
    if (batch.sets_added == 0) break;  // failed backend; engine latched
    if (!spill
             .SpillRange(scratch, scratch_edges, 0, scratch.num_sets(), pos)
             .ok()) {
      // Write failure: stop filling; the gap regenerates at cover time.
      result.spill_ok = false;
      break;
    }
    result.sets_spilled += scratch.num_sets();
  }
  // Land later phases on the same stream indices as a budget-off run even
  // when sampling or spilling stopped short.
  source.Seek(target_index);
  return result;
}

}  // namespace timpp
