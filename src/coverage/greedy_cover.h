// Greedy maximum coverage over RR sets — the selection step shared by
// Algorithm 1 (node selection), Algorithm 3 (KPT refinement) and Borgs et
// al.'s RIS. The greedy algorithm is (1-1/e)-approximate for maximum
// coverage (Vazirani; cited as [29] in the paper).
//
// There is one implementation, over an RRView: a batch solve passes its
// own indexed collection as a one-slice view, a served request passes
// slices of the shared cache's indexed chunks. Either way the sets are the
// same and in the same order, so the seeds are too.
#ifndef TIMPP_COVERAGE_GREEDY_COVER_H_
#define TIMPP_COVERAGE_GREEDY_COVER_H_

#include <cstdint>
#include <vector>

#include "rrset/rr_collection.h"
#include "rrset/rr_view.h"
#include "util/types.h"

namespace timpp {

/// Output of a max-coverage run.
struct CoverResult {
  /// Selected nodes, in selection order (marginal-coverage descending).
  std::vector<NodeId> seeds;
  /// Marginal number of sets newly covered by each selected node.
  std::vector<uint64_t> marginal_coverage;
  /// Total sets covered by `seeds`.
  uint64_t covered_sets = 0;
  /// covered_sets / num_sets (the paper's F_R(S)); 0 if the collection is
  /// empty.
  double covered_fraction = 0.0;
};

/// Exact greedy via a bucket queue with lazy decrease: coverage counts are
/// bounded by θ and only decrease as sets die, so nodes live in an array
/// of count-indexed buckets and a monotonically descending cursor finds
/// the argmax without any comparison-based ordering — O(n + max_count +
/// total count decrements) = O(n + θ·avg|R|), versus the heap's
/// O(n log n + stale re-pushes). When max_count would make one bucket per
/// count allocate too much, buckets coarsen to count ranges (the in-bucket
/// scan stays exact). Ties break by smaller node id; bit-identical to
/// HeapGreedyMaxCover. Every collection the view slices must be indexed;
/// set positions, dead flags and the covered fraction refer to the
/// window, not to the chunks behind it.
CoverResult GreedyMaxCover(const RRView& view, int k);

/// GreedyMaxCover over the whole of `rr` (a one-slice view). Requires
/// rr.index_built().
CoverResult GreedyMaxCover(const RRCollection& rr, int k);

/// GreedyMaxCover with an explicit cap on the bucket-array size (the
/// default is 2^20). Exposed so tests can force the coarse-bucket path on
/// small collections; results are cap-independent.
CoverResult GreedyMaxCoverWithBucketCap(const RRView& view, int k,
                                        uint64_t max_buckets);
CoverResult GreedyMaxCoverWithBucketCap(const RRCollection& rr, int k,
                                        uint64_t max_buckets);

/// The previous default: lazy evaluation on a max-heap with stale-entry
/// re-push (the classic CELF trick applied to coverage). Kept as the A/B
/// reference for the bucket queue — tests assert bit-identical CoverResult
/// — and for the coverage micro-bench.
CoverResult HeapGreedyMaxCover(const RRCollection& rr, int k);

/// Reference implementation that rescans every node each round. O(k·n +
/// k·Σ|R|). Used by tests (must match GreedyMaxCover exactly, ties broken
/// by smaller node id) and by the ablation bench.
CoverResult NaiveGreedyMaxCover(const RRCollection& rr, int k);

/// Exhaustive optimum of the coverage problem (for quality-bound tests).
/// Tries all C(n, k) subsets; n must be small.
uint64_t BruteForceMaxCover(const RRCollection& rr, int k);

}  // namespace timpp

#endif  // TIMPP_COVERAGE_GREEDY_COVER_H_
