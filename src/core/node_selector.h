// Algorithm 1 (NodeSelection): sample θ random RR sets, then solve greedy
// maximum coverage over them. With θ >= λ/OPT (Equation 5) the returned set
// is (1-1/e-ε)-approximate with probability >= 1 - n^-ℓ (Theorem 1).
//
// Sampling goes through the shared SamplingEngine. RR sets are i.i.d., so
// worker threads with independent per-index RNG streams produce a
// collection with the same distribution — and, under the engine's
// deterministic merge contract, the *same bytes*: each set's content is a
// pure function of (engine seed, global set index), workers claim 64-set
// chunks of the index range dynamically, and the chunks merge in index
// order. The selected seeds, covered fraction, and edge counts are
// therefore identical for every num_threads setting, including a fully
// sequential run. This is the single-machine half of the paper's §8
// future-work direction (distributing TIM).
//
// SelectNodes is the one place a stream window gets covered: TIM's node
// selection, IMM's LB search and selection phase, and RIS's final greedy
// all call it. It chooses between the indexed greedy over an RRView and,
// when a memory budget cuts the window short, Borgs et al.'s
// sample-and-discard streaming greedy (coverage/streaming_cover.h), with
// the spill store replaying what the budget kept off the heap.
#ifndef TIMPP_CORE_NODE_SELECTOR_H_
#define TIMPP_CORE_NODE_SELECTOR_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "engine/sample_source.h"
#include "engine/sampling_engine.h"
#include "rrset/rr_collection.h"
#include "rrset/rr_spill.h"
#include "util/types.h"

namespace timpp {

/// Output of Algorithm 1.
struct NodeSelection {
  /// The selected seed set S*_k, in selection order.
  std::vector<NodeId> seeds;
  /// Fraction F_R(S*_k) of the θ RR sets covered; n·F_R(S) is an unbiased
  /// spread estimate (Corollary 1).
  double covered_fraction = 0.0;
  /// θ — number of RR sets sampled.
  uint64_t theta = 0;
  /// Peak heap bytes of the RR collection this selection allocated for
  /// itself, index included (Figure 12's metric). A selection served from
  /// the shared cache's chunks allocates none, and reports ~0.
  size_t rr_memory_bytes = 0;
  /// Filled bytes of retained raw set storage (RRCollection::DataBytes
  /// before any index build) — the quantity a memory budget caps, and
  /// comparable between budgeted and budget-off runs.
  size_t rr_data_bytes = 0;
  /// Cost accounting (regeneration passes included).
  uint64_t edges_examined = 0;
  /// The memory budget forced sample-and-discard selection: only
  /// `rr_sets_retained` of the θ sets were kept resident and the rest
  /// were regenerated per greedy round. Seeds are still bit-identical to
  /// a budget-off run.
  bool hit_memory_budget = false;
  uint64_t rr_sets_retained = 0;
  uint64_t regeneration_passes = 0;
  /// Spill-tier accounting (zero without a store): sets written to disk by
  /// this selection, and sets replayed from disk during its greedy rounds
  /// (each replayed set is a regeneration that didn't happen).
  uint64_t rr_sets_spilled = 0;
  uint64_t sets_spill_read = 0;
  /// Wall-clock split between the sampling and coverage halves (an index
  /// build belongs to the sampling half: it is part of the view fetch).
  double seconds_sampling = 0.0;
  double seconds_coverage = 0.0;
};

/// The stream window one or more SelectNodes calls cover, owned by the
/// caller. A solver that covers a growing window (IMM's LB search) passes
/// the same window to every call, so the sets read so far and the budget
/// latch carry over; a one-shot selection uses a fresh window.
struct SelectionWindow {
  explicit SelectionWindow(NodeId num_graph_nodes,
                           size_t memory_budget_bytes = 0,
                           RRSpillStore* spill = nullptr)
      : rr(num_graph_nodes), spill(spill) {
    rr.set_memory_budget(memory_budget_bytes);
  }

  /// Resident sets of the window, from its first stream index on. Its
  /// memory_budget() is the window's cap on DataBytes (0 = unlimited).
  /// Without a cap it holds every set read so far, unless the source
  /// serves them in place; with one, the largest prefix under the cap.
  RRCollection rr;
  /// Per-set edges-examined counts of `rr`, kept only with a spill store
  /// (its chunks record them).
  std::vector<uint64_t> rr_edges;
  /// Optional store for the sets past the cap (read only under a cap).
  RRSpillStore* spill = nullptr;
  /// Latched once the cap cut `rr` short: the resident prefix is frozen,
  /// and later sets are spilled or regenerated rather than retained.
  bool budget_hit = false;
};

/// Runs Algorithm 1 over the stream sets [first, first + count) of
/// `source`: tops `window` up to that range, then covers it. The source's
/// cursor must not be past first + count unless the window's budget
/// latched, and ends at first + count. Output is deterministic in the
/// stream's (seed, position), independent of thread count.
///
/// Without a cap the window is one FetchView: `window->rr` filled and
/// indexed, or the shared cache's chunks in place. Under a cap the
/// indexed greedy runs only when the whole window, index included, fits;
/// otherwise `window->rr` keeps the largest prefix under the cap and
/// selection degrades to streaming sample-and-discard greedy instead of
/// failing — same seeds, bounded memory, k extra sampling passes in the
/// worst case. With a spill store those passes become disk replays: the
/// non-resident rest of the window is written once as shard chunks and
/// streamed back each round, so a healthy store leaves
/// regeneration_passes at 0.
NodeSelection SelectNodes(SampleSource& source, int k, uint64_t first,
                          uint64_t count, SelectionWindow* window);

/// Algorithm 1 with the given θ from the source's cursor on, in a fresh
/// window capped at `memory_budget_bytes` (0 = unlimited) with `spill`.
inline NodeSelection SelectNodes(SampleSource& source, int k, uint64_t theta,
                                 size_t memory_budget_bytes = 0,
                                 RRSpillStore* spill = nullptr) {
  SelectionWindow window(source.graph().num_nodes(), memory_budget_bytes,
                         spill);
  return SelectNodes(source, k, source.position(), theta, &window);
}

/// Standalone convenience: consume `engine`'s stream directly.
inline NodeSelection SelectNodes(SamplingEngine& engine, int k,
                                 uint64_t theta,
                                 size_t memory_budget_bytes = 0,
                                 RRSpillStore* spill = nullptr) {
  EngineSampleSource source(engine);
  return SelectNodes(source, k, theta, memory_budget_bytes, spill);
}

}  // namespace timpp

#endif  // TIMPP_CORE_NODE_SELECTOR_H_
