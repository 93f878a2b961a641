#include "core/node_selector.h"

#include <cassert>
#include <utility>

#include "coverage/greedy_cover.h"
#include "coverage/streaming_cover.h"
#include "rrset/rr_view.h"
#include "util/timer.h"

namespace timpp {

NodeSelection SelectNodes(SampleSource& source, int k, uint64_t first,
                          uint64_t count, SelectionWindow* window) {
  NodeSelection result;
  result.theta = count;
  const uint64_t end = first + count;
  RRCollection& rr = window->rr;
  const size_t budget = rr.memory_budget();
  RRSpillStore* const spill = window->spill;

  // ---- Top the window up to [first, end) ------------------------------
  Timer timer;
  RRView view;
  bool indexed = true;
  if (budget == 0) {
    // No cap: whatever indexed window the source offers, `rr` filled and
    // indexed or the shared cache's chunks in place. Same sets in the
    // same order either way.
    assert(source.position() <= end);
    result.edges_examined =
        source.FetchView(first, end - source.position(), &rr, &view)
            .edges_examined;
    result.rr_data_bytes = view.DataBytes();
    result.rr_sets_retained = view.num_sets();
  } else {
    // Appending invalidates the index of an earlier call's greedy, and a
    // stale index would be charged against the cap twice (as resident
    // bytes and as the rebuild estimate): release it up front.
    rr.DropIndex();
    if (!window->budget_hit && rr.num_sets() < count) {
      result.edges_examined =
          source
              .Fetch(&rr, count - rr.num_sets(),
                     spill != nullptr ? &window->rr_edges : nullptr)
              .edges_examined;
      // The engine checks the cap only at its fixed batch boundaries (and
      // a sub-batch request never trips it), so the collection can
      // overshoot: cut back to the largest under-budget prefix and freeze
      // the window there. With a store the cut suffix goes to disk once;
      // without one the greedy rounds regenerate it from its indices.
      if (rr.DataBytes() > budget) {
        const size_t keep = MaxPrefixUnderDataBudget(rr, budget);
        if (spill != nullptr && rr.num_sets() > keep &&
            spill
                ->SpillRange(rr, window->rr_edges, keep, rr.num_sets() - keep,
                             first + keep)
                .ok()) {
          result.rr_sets_spilled += rr.num_sets() - keep;
        }
        rr.TruncateTo(keep);
        if (spill != nullptr) window->rr_edges.resize(keep);
        window->budget_hit = true;
      }
    }
    if (window->budget_hit && spill != nullptr) {
      // The rest of the window was never sampled, or only past the
      // frozen prefix: put it on disk in transient batches so the greedy
      // rounds replay it instead of regenerating it k times. Ranges an
      // earlier call already spilled are skipped.
      const SpillFillResult fill = SpillFillTo(source, *spill, end);
      result.edges_examined += fill.batch.edges_examined;
      result.rr_sets_spilled += fill.sets_spilled;
    }
    // Captured before any index build, so the stat means raw set storage
    // under every setting.
    result.rr_data_bytes = rr.DataBytes();
    result.rr_sets_retained = rr.num_sets();
    // The classic indexed greedy only when the whole window, index
    // included, fits under the cap.
    indexed = !window->budget_hit && rr.num_sets() == count &&
              IndexedDataBytesFitBudget(rr, budget);
    if (indexed) {
      rr.BuildIndex();
      view = RRView(rr);
    }
  }
  // Later phases consume the same index ranges as a budget-off run.
  source.Seek(end);
  result.rr_memory_bytes = rr.MemoryBytes();
  result.seconds_sampling = timer.ElapsedSeconds();
  // A dead sample backend leaves the window short: the caller fails the
  // run on the engine's latched status, so skip the cover.
  if (!source.engine().status().ok()) return result;

  // ---- Cover it -------------------------------------------------------
  timer.Reset();
  CoverResult cover;
  if (indexed) {
    cover = GreedyMaxCover(view, k);
  } else {
    // Degrade, don't die: streaming greedy over the resident prefix plus
    // per-round replay or regeneration of the rest. Same seeds (the
    // streaming rule is bit-identical), resident DataBytes <= the cap.
    result.hit_memory_budget = true;
    StreamingCoverResult streamed =
        StreamingGreedyMaxCover(source.engine(), rr, first, count, k, spill);
    result.edges_examined += streamed.edges_examined;
    result.regeneration_passes = streamed.regeneration_passes;
    result.sets_spill_read = streamed.sets_spill_read;
    cover = std::move(streamed.cover);
  }
  result.seeds = std::move(cover.seeds);
  result.covered_fraction = cover.covered_fraction;
  result.seconds_coverage = timer.ElapsedSeconds();
  return result;
}

}  // namespace timpp
