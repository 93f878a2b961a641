// Greedy maximum coverage in O(n) working memory — the §7.2 memory story
// for the non-RIS algorithms. Where GreedyMaxCover needs every RR set plus
// an inverted index resident, the streaming variant holds only per-node
// coverage counts and a per-set liveness bit, and re-derives the counts
// each greedy round by streaming the sets past them: retained sets are
// read from a budget-bounded prefix cache, and sets that never fit in
// memory are regenerated on the fly through SamplingEngine::VisitSamples
// (exact, by the per-index RNG contract). This is the sample-and-discard
// trick of Borgs et al.'s RR framework and SKIM-style sketching: trade k
// extra sampling passes for an O(n + θ/8)-byte footprint.
//
// The selection rule — argmax live-coverage count, ties to the smaller
// node id — is identical to GreedyMaxCover's, and recomputing counts from
// scratch each round equals decrementing them incrementally, so the
// returned CoverResult is bit-identical to the indexed path on the same
// θ sets. TIM, IMM and RIS all reach this cover through one call,
// SelectNodes (core/node_selector.h), which also owns the budget cut,
// the spill fill and the choice between the two greedies; budgeted runs
// of all three therefore return the same seeds as budget-off runs, only
// slower.
#ifndef TIMPP_COVERAGE_STREAMING_COVER_H_
#define TIMPP_COVERAGE_STREAMING_COVER_H_

#include <cstddef>
#include <cstdint>

#include "coverage/greedy_cover.h"
#include "engine/sample_source.h"
#include "engine/sampling_engine.h"
#include "rrset/rr_collection.h"
#include "rrset/rr_spill.h"

namespace timpp {

/// CoverResult plus the cost of obtaining it without retained sets.
struct StreamingCoverResult {
  CoverResult cover;
  /// Greedy rounds that regenerated at least one non-cached set (<= k;
  /// 0 when the cache and the spill store held every set).
  uint64_t regeneration_passes = 0;
  /// RR sets regenerated across all rounds (a set already known dead is
  /// skipped, so later rounds regenerate monotonically fewer).
  uint64_t sets_regenerated = 0;
  /// Edges re-examined by regeneration (the extra traversal cost the
  /// budget trades for memory; add to a run's edges_examined accounting).
  uint64_t edges_examined = 0;
  /// Greedy rounds that replayed at least one set from the spill store,
  /// and sets so replayed — the disk reads that displaced regeneration.
  uint64_t spill_read_passes = 0;
  uint64_t sets_spill_read = 0;
};

/// Greedy max coverage over the θ = `total_sets` RR sets of global engine
/// indices [first_index, first_index + total_sets). `cache` must hold the
/// sets of indices [first_index, first_index + cache.num_sets()) — any
/// prefix, including none — and needs no inverted index; the remaining
/// sets are replayed from `spill` where its chunks cover them (when a
/// store is given) and regenerated from `engine` otherwise. Replayed sets
/// are byte-identical to regenerated ones, so the result is bit-identical
/// to GreedyMaxCover(full collection, k) either way — the store only
/// converts traversal passes into sequential disk reads. A spill read
/// error falls back to regeneration for the remainder of that round.
StreamingCoverResult StreamingGreedyMaxCover(SamplingEngine& engine,
                                             const RRCollection& cache,
                                             uint64_t first_index,
                                             uint64_t total_sets, int k,
                                             RRSpillStore* spill = nullptr);

/// Accounting of one SpillFillTo call.
struct SpillFillResult {
  /// Summed sampling accounting of the filled batches (edges_examined
  /// feeds the run's totals exactly as resident sampling would).
  SampleBatch batch;
  /// Sets written to the store by this call.
  uint64_t sets_spilled = 0;
  /// False when a spill write failed: sampling stopped early and the
  /// uncovered range stays a gap (streaming cover regenerates it — slower,
  /// never wrong).
  bool spill_ok = true;
};

/// Materializes the stream range [source.position(), target_index) into
/// `spill` in small transient batches (never holding more than one batch
/// resident), skipping any prefix the store already covers, then seeks
/// `source` to `target_index`. This is how the budget path gets suffix
/// sets onto disk exactly once instead of regenerating them every greedy
/// round: sample → spill → drop, preserving stream positions bit-for-bit.
SpillFillResult SpillFillTo(SampleSource& source, RRSpillStore& spill,
                            uint64_t target_index);

/// Largest prefix length p such that a collection holding only the first
/// p sets of `rr` has DataBytes() <= budget_bytes (without index). The
/// budgeted selection truncates to this prefix after the engine's
/// batch-granular budget stop overshoots.
size_t MaxPrefixUnderDataBudget(const RRCollection& rr, size_t budget_bytes);

/// Whether `rr` would still be within `budget_bytes` of DataBytes() after
/// BuildIndex() — if so, budgeted selection can take the fast indexed
/// GreedyMaxCover path and remain under budget.
bool IndexedDataBytesFitBudget(const RRCollection& rr, size_t budget_bytes);

}  // namespace timpp

#endif  // TIMPP_COVERAGE_STREAMING_COVER_H_
