// IMM — Influence Maximization via Martingales (Tang, Shi & Xiao,
// SIGMOD'15), the direct successor of TIM/TIM+ by the same group.
//
// Implemented here as the library's "future work" extension: the paper's
// §8 announces follow-on work on tightening TIM, and IMM is that work.
// IMM replaces TIM's KPT estimation with a binary search for a lower bound
// LB of OPT driven by greedy solutions on progressively larger RR batches:
//
//   sampling phase: for i = 1, 2, ...:
//     x_i = n / 2^i,  θ_i = λ' / x_i
//     grow R to θ_i sets, S_i = greedy(R, k)
//     if n·F_R(S_i) >= (1 + ε')·x_i:  LB = n·F_R(S_i)/(1+ε'); stop
//   selection phase: θ = λ* / LB, sample θ RR sets, return greedy(R, k).
//
// λ' and λ* are Chernoff/martingale constants (Equations 6 & 9 of the IMM
// paper); ε' = √2·ε. The *original* IMM reused the sampling-phase RR sets
// in the selection phase; that reuse introduces a dependence bug (the
// stopping rule conditions the samples) later fixed by the authors — the
// corrected variant regenerates fresh RR sets, and is the default here
// (`reuse_samples` restores the original behaviour for study).
//
// All RR sets — every progressive x_i batch and the final θ batch — come
// from one shared SamplingEngine, whose deterministic merge contract makes
// the run bit-reproducible in `seed` alone: set i's content is a pure
// function of (seed, global set index i), workers sample contiguous index
// ranges into private shards, and shards merge in worker order == index
// order. Consequently IMM returns identical seed sets and stats for any
// `num_threads`, and the progressive batches simply extend one global
// sample stream (grow-to-θ_i keeps the θ_{i-1} prefix untouched).
#ifndef TIMPP_CORE_IMM_H_
#define TIMPP_CORE_IMM_H_

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

/// Configuration of an IMM run. Both phases sample one stream built from
/// the inherited execution settings (see the determinism note above); with
/// a spill_dir, the non-resident ranges of both phases go to one
/// append-only spill store.
struct ImmOptions : ExecutionOptions {
  int k = 50;
  double epsilon = 0.1;
  double ell = 1.0;
  DiffusionModel model = DiffusionModel::kIC;
  /// Borrowed; required when model == kTriggering.
  const TriggeringModel* custom_model = nullptr;
  /// Propagation-round bound (0 = unlimited), as in TimOptions.
  uint32_t max_hops = 0;
  /// RR-traversal strategy (see SamplerMode and TimOptions::sampler_mode).
  SamplerMode sampler_mode = SamplerMode::kAuto;
  /// true reproduces the original (dependence-flawed) sample reuse; false
  /// (default) regenerates fresh RR sets for the selection phase.
  bool reuse_samples = false;
  /// Scale ℓ by 1 + log 2 / log n (the IMM paper's union-bound adjustment).
  bool adjust_ell = true;
  /// Optional per-node weights (borrowed; size n, non-negative, at least
  /// one positive). When set, IMM maximizes the *weighted* spread
  /// Σ_v w(v)·P[v activated]: RR roots are drawn ∝ w(v) and every n in
  /// the sample-size machinery is replaced by W = Σ w(v). The martingale
  /// analysis carries verbatim because coverage indicators scaled by W
  /// stay in [0, W].
  const std::vector<double>* node_weights = nullptr;
  /// Soft cap (bytes; 0 = unlimited) on resident RR-collection DataBytes
  /// in BOTH phases (the progressive x_i batches grow toward θ-scale, so
  /// the sampling phase needs the cap as much as selection). Past the
  /// cap, greedy rounds run over a retained stream prefix plus exact
  /// per-index regeneration of the discarded sets (see
  /// coverage/streaming_cover.h); seeds and LB stay bit-identical to a
  /// budget-off run.
  size_t memory_budget_bytes = 0;
  uint64_t seed = 0x1e1eULL;
};

/// Instrumentation of an IMM run.
struct ImmStats {
  double lb = 0.0;            // lower bound of OPT from the sampling phase
  double lambda_prime = 0.0;  // sampling-phase constant
  double lambda_star = 0.0;   // selection-phase constant
  uint64_t theta = 0;         // RR sets used for final selection
  uint64_t rr_sets_sampling = 0;  // RR sets generated in the sampling phase
  int sampling_iterations = 0;
  double estimated_spread = 0.0;  // n·F_R(S) on the selection collection
  double seconds_sampling = 0.0;
  double seconds_selection = 0.0;
  double seconds_total = 0.0;
  size_t rr_memory_bytes = 0;
  /// Filled bytes of the selection collection's raw set storage
  /// (DataBytes before any index build — what the budget caps, comparable
  /// across budget settings).
  size_t rr_data_bytes = 0;
  /// memory_budget_bytes forced streaming sample-and-discard selection in
  /// at least one greedy solve (either phase).
  bool hit_memory_budget = false;
  /// RR sets resident for the final selection. Budget-off this equals the
  /// selection collection's size: theta, except under reuse_samples where
  /// it is max(theta, sampling-phase sets).
  uint64_t rr_sets_retained = 0;
  /// Greedy rounds that regenerated discarded RR sets, summed over every
  /// streaming solve of the run (0 budget-off, and 0 under a healthy
  /// spill store).
  uint64_t regeneration_passes = 0;
  /// Spill-tier activity (zero without a spill_dir): sets written to
  /// disk, sets replayed from disk across all greedy rounds, and chunk
  /// bytes written.
  uint64_t rr_sets_spilled = 0;
  uint64_t sets_spill_read = 0;
  uint64_t spill_bytes_written = 0;
  /// Full spill-store counter snapshot (chunks written and loaded, sets
  /// read). Zero without a store.
  RRSpillStats spill;
  /// The sampling phase (LB binary search) was restored from a
  /// SolveContext's PhaseCache instead of recomputed (serving layer;
  /// always false standalone).
  bool lb_cache_hit = false;
  /// Backend fault-tolerance activity during this run (see BackendStats;
  /// zero for local backends and healthy distributed runs).
  BackendStats backend;
};

/// Result of an IMM run.
struct ImmResult {
  std::vector<NodeId> seeds;
  ImmStats stats;
};

/// Runs IMM on `graph`. Same (1-1/e-ε)-approximation with probability
/// >= 1 - n^-ℓ guarantee as TIM, with a smaller sample complexity in
/// practice (θ is sized by the martingale bound λ*, not Equation 4's λ).
Status RunImm(const Graph& graph, const ImmOptions& options,
              ImmResult* result);

/// Context-aware variant: `context.source` (optional) supplies an
/// externally owned sample stream consumed from its cursor instead of a
/// private engine, and `context.phase_cache` (optional) memoizes the LB
/// binary search across requests. Bit-identical results to the standalone
/// run for matching options. Node-weighted runs (`node_weights`) require a
/// standalone context (their root distribution lives in the private
/// engine).
Status RunImm(const Graph& graph, const ImmOptions& options,
              const SolveContext& context, ImmResult* result);

}  // namespace timpp

#endif  // TIMPP_CORE_IMM_H_
