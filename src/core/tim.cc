#include "core/tim.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <string>

#include "core/kpt_estimator.h"
#include "core/kpt_refiner.h"
#include "core/node_selector.h"
#include "core/parameters.h"
#include "engine/phase_cache.h"
#include "engine/sample_source.h"
#include "engine/sampling_engine.h"
#include "util/timer.h"

namespace timpp {

Status ValidateImParameters(const Graph& graph, int k, double epsilon,
                            double ell) {
  if (graph.num_nodes() == 0) {
    return Status::InvalidArgument("graph has no nodes");
  }
  if (k < 1 || static_cast<uint64_t>(k) > graph.num_nodes()) {
    return Status::InvalidArgument("k must be in [1, n], got " +
                                   std::to_string(k));
  }
  if (!(epsilon > 0.0) || epsilon > 1.0) {
    return Status::InvalidArgument("epsilon must be in (0, 1]");
  }
  if (!(ell > 0.0)) {
    return Status::InvalidArgument("ell must be positive");
  }
  return Status::OK();
}

Status TimSolver::Run(const TimOptions& options, TimResult* result) const {
  return Run(options, SolveContext(), result);
}

Status TimSolver::Run(const TimOptions& options, const SolveContext& context,
                      TimResult* result) const {
  TIMPP_RETURN_NOT_OK(
      ValidateImParameters(graph_, options.k, options.epsilon, options.ell));
  if (options.model == DiffusionModel::kTriggering &&
      options.custom_model == nullptr) {
    return Status::InvalidArgument(
        "model == kTriggering requires options.custom_model");
  }
  if (context.source != nullptr &&
      &context.source->graph() != &graph_) {
    return Status::InvalidArgument(
        "SolveContext source is bound to a different graph");
  }

  const uint64_t n = graph_.num_nodes();
  TimStats stats;

  double ell = options.ell;
  if (options.adjust_ell) {
    ell = options.use_refinement ? AdjustEllForTimPlus(ell, n)
                                 : AdjustEllForTim(ell, n);
  }
  stats.ell_used = ell;
  stats.lambda = ComputeLambda(n, options.k, options.epsilon, ell);

  // One sample stream serves all three phases: the global set-index stream
  // runs through Algorithms 2, 3 and 1 in order, so the whole run is
  // deterministic in (seed) and independent of num_threads. A context
  // supplies the stream (shared across requests); standalone runs build a
  // private engine.
  std::optional<SamplingEngine> local_engine;
  std::optional<EngineSampleSource> local_source;
  SampleSource* source = context.source;
  if (source == nullptr) {
    SamplingConfig sampling;
    sampling.model = options.model;
    sampling.custom_model = options.custom_model;
    sampling.max_hops = options.max_hops;
    sampling.sampler_mode = options.sampler_mode;
    sampling.num_threads = options.num_threads;
    sampling.pin_threads = options.pin_threads;
    sampling.seed = options.seed;
    sampling.backend = options.sample_backend;
    local_engine.emplace(graph_, sampling);
    local_source.emplace(*local_engine);
    source = &*local_source;
  }
  const BackendStats backend_before = source->engine().backend_stats();
  Timer total_timer;

  const double eps_prime =
      options.use_refinement
          ? (options.eps_prime > 0.0
                 ? options.eps_prime
                 : RecommendedEpsPrime(options.epsilon, options.k, ell))
          : 0.0;
  stats.eps_prime = eps_prime;

  // PhaseCache entries record positions of a stream consumed from index 0
  // (how every run starts); only engage the memo in that situation.
  PhaseCache* memo =
      source->position() == 0 ? context.phase_cache : nullptr;
  KptPhaseKey memo_key;
  if (memo != nullptr) {
    memo_key.model = options.model;
    memo_key.sampler_mode = options.sampler_mode;
    memo_key.max_hops = options.max_hops;
    memo_key.seed = options.seed;
    memo_key.custom_model = options.custom_model;
    memo_key.k = options.k;
    memo_key.use_refinement = options.use_refinement;
    memo_key.ell_bits = DoubleBits(ell);
    memo_key.eps_prime_bits = DoubleBits(eps_prime);
  }

  double kpt_bound = 0.0;
  // Acquire either a ready entry or the obligation to compute it; a
  // concurrent request for the same key blocks inside AcquireKpt until
  // this one publishes (once-computation). An error return below destroys
  // the unpublished lease, which wakes the waiters to recompute.
  PhaseCache::KptLease lease;
  if (memo != nullptr) lease = memo->AcquireKpt(memo_key);
  const KptPhaseEntry* hit = lease.entry();
  if (hit != nullptr) {
    // Algorithms 2(+3) are pure functions of the key: restore their
    // output and jump the stream to where they left it. Phase timings
    // stay 0 — they reflect work actually done this run.
    stats.kpt_cache_hit = true;
    stats.kpt_star = hit->kpt_star;
    stats.kpt_plus = hit->kpt_plus;
    stats.theta_prime = hit->theta_prime;
    stats.rr_sets_kpt = hit->rr_sets_kpt;
    stats.edges_examined += hit->edges_kpt + hit->edges_refine;
    source->Seek(hit->end_index);
    kpt_bound = options.use_refinement ? hit->kpt_plus : hit->kpt_star;
  } else {
    // Phase 1: parameter estimation (Algorithm 2).
    Timer phase_timer;
    KptEstimate kpt = EstimateKpt(*source, options.k, ell);
    // A failed sample backend (a worker process died mid-shard) leaves the
    // engine with a latched error and a short batch; surface it instead of
    // computing on truncated samples. Same check after each phase below.
    TIMPP_RETURN_NOT_OK(source->engine().status());
    stats.seconds_kpt_estimation = phase_timer.ElapsedSeconds();
    stats.kpt_star = kpt.kpt_star;
    stats.rr_sets_kpt = kpt.rr_sets_generated;
    stats.edges_examined += kpt.edges_examined;

    // Intermediate step (Algorithm 3) — TIM+ only.
    kpt_bound = kpt.kpt_star;
    uint64_t edges_refine = 0;
    if (options.use_refinement) {
      phase_timer.Reset();
      KptRefinement refinement =
          RefineKpt(*source, *kpt.last_iteration_rr, options.k, kpt.kpt_star,
                    eps_prime, ell);
      TIMPP_RETURN_NOT_OK(source->engine().status());
      stats.seconds_kpt_refinement = phase_timer.ElapsedSeconds();
      stats.kpt_plus = refinement.kpt_plus;
      stats.theta_prime = refinement.theta_prime;
      stats.edges_examined += refinement.edges_examined;
      edges_refine = refinement.edges_examined;
      kpt_bound = refinement.kpt_plus;
    } else {
      stats.kpt_plus = kpt.kpt_star;
    }

    if (memo != nullptr) {
      KptPhaseEntry entry;
      entry.kpt_star = stats.kpt_star;
      entry.kpt_plus = stats.kpt_plus;
      entry.theta_prime = stats.theta_prime;
      entry.rr_sets_kpt = stats.rr_sets_kpt;
      entry.edges_kpt = kpt.edges_examined;
      entry.edges_refine = edges_refine;
      entry.end_index = source->position();
      lease.Publish(entry);
    }
  }

  // Phase 2: node selection (Algorithm 1) with θ = λ / KPT bound.
  stats.theta =
      static_cast<uint64_t>(std::max(1.0, std::ceil(stats.lambda / kpt_bound)));

  const std::unique_ptr<RRSpillStore> spill =
      MakeSpillStore(options, options.memory_budget_bytes, graph_.num_nodes());

  Timer phase_timer;
  NodeSelection selection = SelectNodes(*source, options.k, stats.theta,
                                        options.memory_budget_bytes,
                                        spill.get());
  TIMPP_RETURN_NOT_OK(source->engine().status());
  stats.seconds_node_selection = phase_timer.ElapsedSeconds();

  stats.estimated_spread =
      selection.covered_fraction * static_cast<double>(n);
  stats.rr_memory_bytes = selection.rr_memory_bytes;
  stats.rr_data_bytes = selection.rr_data_bytes;
  stats.hit_memory_budget = selection.hit_memory_budget;
  stats.rr_sets_retained = selection.rr_sets_retained;
  stats.regeneration_passes = selection.regeneration_passes;
  stats.rr_sets_spilled = selection.rr_sets_spilled;
  stats.sets_spill_read = selection.sets_spill_read;
  if (spill) {
    stats.spill = spill->stats();
    stats.spill_bytes_written = stats.spill.bytes_written;
  }
  stats.edges_examined += selection.edges_examined;
  stats.backend = source->engine().backend_stats() - backend_before;
  stats.seconds_total = total_timer.ElapsedSeconds();

  result->seeds = std::move(selection.seeds);
  result->stats = stats;
  return Status::OK();
}

}  // namespace timpp
