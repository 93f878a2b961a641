// Borgs et al.'s Reverse Influence Sampling (SODA'14; §2.3 of the paper).
//
// RIS keeps generating random RR sets until the *total traversal cost*
// (nodes+edges examined) reaches a threshold τ = Θ(k·ℓ·(m+n)·log n / ε³),
// then greedily covers. The cost-threshold stopping rule makes the sampled
// sets correlated — the weakness (§2.3, footnote 3) that motivates TIM's
// fixed-count design — and the ε⁻³ makes the practical constant enormous.
#ifndef TIMPP_BASELINES_RIS_H_
#define TIMPP_BASELINES_RIS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "diffusion/triggering.h"
#include "engine/execution_options.h"
#include "engine/sample_backend.h"
#include "engine/solve_context.h"
#include "graph/graph.h"
#include "rrset/rr_spill.h"
#include "util/status.h"
#include "util/types.h"

namespace timpp {

/// Configuration of a RIS run. The cost-threshold stopping rule is
/// evaluated on the deterministic index-ordered sample stream, so results
/// are identical under any of the inherited execution settings.
struct RisOptions : ExecutionOptions {
  double epsilon = 0.1;
  double ell = 1.0;
  DiffusionModel model = DiffusionModel::kIC;
  /// Borrowed; required when model == kTriggering.
  const TriggeringModel* custom_model = nullptr;
  /// RR-traversal strategy (see SamplerMode). edges_examined — and hence
  /// the τ stopping rule — counts *decided* arcs in both modes, so the
  /// stop point is mode-comparable; skip mode simply reaches it faster.
  SamplerMode sampler_mode = SamplerMode::kAuto;
  /// Multiplier on the theoretical τ. Borgs et al. only pin τ up to a
  /// constant; 1.0 is the faithful setting, and benches may lower it to
  /// keep RIS runnable (trading away the worst-case guarantee, exactly the
  /// trade-off §7.2 describes).
  double tau_scale = 1.0;
  /// Hard cap on generated RR sets (0 = none) as an out-of-memory guard.
  uint64_t max_rr_sets = 0;
  /// Soft cap (bytes; 0 = none) on the RR collection's resident
  /// DataBytes. Past it the collection freezes as a stream-prefix cache
  /// and RIS degrades gracefully, exactly like budgeted TIM/IMM: the cost
  /// loop keeps consuming (and discarding) the stream until τ so θ stays
  /// what it would have been, and selection runs the streaming greedy
  /// (retained prefix + per-round regeneration, see
  /// coverage/streaming_cover.h). Seeds are bit-identical to an
  /// unbudgeted run at the price of extra sampling passes.
  size_t memory_budget_bytes = 0;
  uint64_t seed = 0xb0265ULL;
};

/// Instrumentation of a RIS run.
struct RisStats {
  double tau = 0.0;               // the cost threshold used
  uint64_t rr_sets_generated = 0;  // θ: sets the cost rule admitted
  uint64_t cost_examined = 0;     // nodes+edges examined while sampling
  bool hit_set_cap = false;       // stopped by max_rr_sets instead of τ
  /// memory_budget_bytes froze the collection as a stream-prefix cache:
  /// only `rr_sets_retained` of the θ sets stayed resident and selection
  /// streamed the rest (seeds bit-identical to an unbudgeted run).
  bool hit_memory_budget = false;
  uint64_t rr_sets_retained = 0;   // == rr_sets_generated budget-off
  uint64_t regeneration_passes = 0;  // streaming greedy rounds (0 off)
  /// Spill-tier activity (zero without a spill_dir): sets written to
  /// disk, sets replayed from disk, chunk bytes written.
  uint64_t rr_sets_spilled = 0;
  uint64_t sets_spill_read = 0;
  uint64_t spill_bytes_written = 0;
  /// Full spill-store counter snapshot (chunks written and loaded, sets
  /// read). Zero without a store.
  RRSpillStats spill;
  double covered_fraction = 0.0;  // F_R(seeds)
  double seconds_total = 0.0;
  /// Backend fault-tolerance activity during this run (see BackendStats;
  /// zero for local backends and healthy distributed runs).
  BackendStats backend;
};

/// Runs RIS: samples until the cost threshold, then greedy max coverage.
Status RunRis(const Graph& graph, const RisOptions& options, int k,
              std::vector<NodeId>* seeds, RisStats* stats);

/// Context-aware variant: `context.source` (optional) supplies an
/// externally owned sample stream — the cost loop then consumes (and
/// reuses) the shared collection's prefix instead of sampling fresh, with
/// bit-identical seeds. The memory budget requires a standalone run (the
/// budget contract is per-request resident bytes, meaningless against a
/// shared collection).
Status RunRis(const Graph& graph, const RisOptions& options, int k,
              const SolveContext& context, std::vector<NodeId>* seeds,
              RisStats* stats);

}  // namespace timpp

#endif  // TIMPP_BASELINES_RIS_H_
