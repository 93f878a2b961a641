#include "core/imm.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>

#include "core/node_selector.h"
#include "core/parameters.h"
#include "core/tim.h"
#include "engine/phase_cache.h"
#include "engine/sample_source.h"
#include "engine/sampling_engine.h"
#include "rrset/rr_spill.h"
#include "util/alias_table.h"
#include "util/math.h"
#include "util/timer.h"

namespace timpp {

Status RunImm(const Graph& graph, const ImmOptions& options,
              ImmResult* result) {
  return RunImm(graph, options, SolveContext(), result);
}

Status RunImm(const Graph& graph, const ImmOptions& options,
              const SolveContext& context, ImmResult* result) {
  TIMPP_RETURN_NOT_OK(
      ValidateImParameters(graph, options.k, options.epsilon, options.ell));
  if (options.model == DiffusionModel::kTriggering &&
      options.custom_model == nullptr) {
    return Status::InvalidArgument(
        "model == kTriggering requires options.custom_model");
  }
  if (context.source != nullptr && &context.source->graph() != &graph) {
    return Status::InvalidArgument(
        "SolveContext source is bound to a different graph");
  }
  if (context.source != nullptr && options.node_weights != nullptr) {
    return Status::InvalidArgument(
        "node_weights require a standalone run (no SolveContext source): "
        "the root distribution lives in the private engine");
  }

  // Node-weighted runs replace n by W = Σ w(v) everywhere a spread range
  // appears; the union-bound terms (ln n, log C(n,k)) keep using n.
  AliasTable root_dist;
  if (options.node_weights != nullptr) {
    if (options.node_weights->size() != graph.num_nodes()) {
      return Status::InvalidArgument("node_weights size must equal n");
    }
    for (double w : *options.node_weights) {
      if (!(w >= 0.0)) {
        return Status::InvalidArgument("node_weights must be non-negative");
      }
    }
    root_dist.Build(*options.node_weights);
    if (root_dist.empty()) {
      return Status::InvalidArgument(
          "node_weights must contain a positive entry");
    }
  }
  const double n = options.node_weights != nullptr
                       ? root_dist.total_weight()
                       : static_cast<double>(graph.num_nodes());
  const double ln_n = SafeLogN(graph.num_nodes());
  const double log_cnk =
      LogBinomial(graph.num_nodes(), static_cast<uint64_t>(options.k));
  const double eps = options.epsilon;

  double ell = options.ell;
  if (options.adjust_ell) {
    ell = ell * (1.0 + std::log(2.0) / ln_n);
  }

  ImmStats stats;
  Timer total_timer;

  // ---- Sampling phase: binary-search a lower bound LB of OPT ----------
  // ε' = √2·ε;  λ' = (2 + 2ε'/3)·(log C(n,k) + ℓ·ln n + ln log2 n)·n / ε'².
  const double eps_prime = std::sqrt(2.0) * eps;
  const double log2_n = std::max(2.0, std::log2(n));
  stats.lambda_prime = (2.0 + 2.0 * eps_prime / 3.0) *
                       (log_cnk + ell * ln_n + std::log(log2_n)) * n /
                       (eps_prime * eps_prime);

  std::optional<SamplingEngine> local_engine;
  std::optional<EngineSampleSource> local_source;
  SampleSource* source = context.source;
  if (source == nullptr) {
    SamplingConfig sampling;
    sampling.model = options.model;
    sampling.custom_model = options.custom_model;
    sampling.max_hops = options.max_hops;
    sampling.sampler_mode = options.sampler_mode;
    sampling.seed = options.seed;
    if (options.node_weights != nullptr) {
      sampling.root_distribution = &root_dist;
    }
    ApplyExecution(options, &sampling);
    local_engine.emplace(graph, sampling);
    local_source.emplace(*local_engine);
    source = &*local_source;
  }
  const BackendStats backend_before = source->engine().backend_stats();

  Timer phase_timer;
  const size_t budget = options.memory_budget_bytes;
  const uint64_t stream_start = source->position();

  // One spill store serves both phases (chunks append in increasing index
  // order; the gap between the phases' ranges is fine).
  const std::unique_ptr<RRSpillStore> spill_store =
      MakeSpillStore(options, budget, graph.num_nodes());
  RRSpillStore* spill = spill_store.get();

  // The LB memo only covers the canonical configuration: a stream consumed
  // from index 0 (how every run starts) and the corrected no-reuse
  // variant, whose selection phase does not need the sampling-phase sets
  // back.
  PhaseCache* memo = (stream_start == 0 && !options.reuse_samples &&
                      options.node_weights == nullptr)
                         ? context.phase_cache
                         : nullptr;
  LbPhaseKey memo_key;
  if (memo != nullptr) {
    memo_key.model = options.model;
    memo_key.sampler_mode = options.sampler_mode;
    memo_key.max_hops = options.max_hops;
    memo_key.seed = options.seed;
    memo_key.custom_model = options.custom_model;
    memo_key.k = options.k;
    memo_key.epsilon_bits = DoubleBits(eps);
    memo_key.ell_bits = DoubleBits(ell);
  }

  // The LB search covers one growing window [stream_start, θ_i); its
  // sets and budget latch carry from iteration to iteration.
  SelectionWindow window(graph.num_nodes(), budget, spill);
  uint64_t sampling_target = 0;  // θ_i of the latest iteration
  // Budget and spill activity sum over every cover of both phases.
  const auto add_cover_stats = [&stats](const NodeSelection& cover) {
    if (cover.hit_memory_budget) stats.hit_memory_budget = true;
    stats.regeneration_passes += cover.regeneration_passes;
    stats.sets_spill_read += cover.sets_spill_read;
    stats.rr_sets_spilled += cover.rr_sets_spilled;
  };
  double lb = 1.0;
  // Hit or compute obligation; same-key concurrent requests wait inside
  // AcquireLb and wake as hits once this one publishes. An error return
  // destroys the unpublished lease, waking them to recompute instead.
  PhaseCache::LbLease lease;
  if (memo != nullptr) lease = memo->AcquireLb(memo_key);
  const LbPhaseEntry* hit = lease.entry();
  if (hit != nullptr) {
    // The whole binary search is a pure function of the key: restore LB
    // and jump the stream past the sets it consumed.
    stats.lb_cache_hit = true;
    lb = hit->lb;
    sampling_target = hit->rr_sets_sampling;
    stats.sampling_iterations = hit->sampling_iterations;
    source->Seek(hit->end_index);
  } else {
    const int max_iterations = std::max(1, static_cast<int>(log2_n) - 1);
    for (int i = 1; i <= max_iterations; ++i) {
      const double x_i = n / std::pow(2.0, i);
      const uint64_t theta_i = static_cast<uint64_t>(
          std::max(1.0, std::ceil(stats.lambda_prime / x_i)));
      sampling_target = theta_i;
      const NodeSelection cover =
          SelectNodes(*source, options.k, stream_start, theta_i, &window);
      // A dead sample backend (worker process crash) means the window is
      // short — fail the run.
      TIMPP_RETURN_NOT_OK(source->engine().status());
      // Budgeted covers are bit-identical to the indexed one, so LB — and
      // with it every downstream θ — matches the budget-off run.
      add_cover_stats(cover);
      stats.sampling_iterations = i;
      if (n * cover.covered_fraction >= (1.0 + eps_prime) * x_i) {
        lb = n * cover.covered_fraction / (1.0 + eps_prime);
        break;
      }
    }
    if (memo != nullptr) {
      LbPhaseEntry entry;
      entry.lb = lb;
      entry.sampling_iterations = stats.sampling_iterations;
      entry.rr_sets_sampling = sampling_target;
      entry.end_index = source->position();
      lease.Publish(entry);
    }
  }
  stats.lb = lb;
  stats.rr_sets_sampling = sampling_target;
  stats.seconds_sampling = phase_timer.ElapsedSeconds();

  // ---- Selection phase: θ = λ* / LB -----------------------------------
  // λ* = 2n·((1-1/e)·α + β)² / ε², α = √(ℓ·ln n + ln 2),
  // β = √((1-1/e)·(log C(n,k) + ℓ·ln n + ln 2)).
  const double one_minus_inv_e = 1.0 - 1.0 / std::exp(1.0);
  const double alpha = std::sqrt(ell * ln_n + std::log(2.0));
  const double beta =
      std::sqrt(one_minus_inv_e * (log_cnk + ell * ln_n + std::log(2.0)));
  stats.lambda_star = 2.0 * n *
                      (one_minus_inv_e * alpha + beta) *
                      (one_minus_inv_e * alpha + beta) / (eps * eps);
  stats.theta = static_cast<uint64_t>(
      std::max(1.0, std::ceil(stats.lambda_star / lb)));

  phase_timer.Reset();
  // Original IMM (reuse_samples) keeps the sampling-phase sets and tops
  // up. (Subtly biased — the stopping rule conditions these samples; kept
  // for study.) Its selection window is exactly the sample stream from the
  // run's start, so the sampling window continues as the selection window
  // — no copy, and the budgeted prefix carries over.
  uint64_t sel_first = stream_start;
  uint64_t sel_count = std::max(stats.theta, sampling_target);
  if (!options.reuse_samples) {
    // A fresh window: assigning one releases the sampling phase's storage
    // (clearing would keep vector capacities, leaving ~2x the budget
    // resident while the selection window grows toward the cap).
    window = SelectionWindow(graph.num_nodes(), budget, spill);
    sel_first = source->position();
    sel_count = stats.theta;
  }
  NodeSelection cover =
      SelectNodes(*source, options.k, sel_first, sel_count, &window);
  // The streaming cover regenerates through the engine; a backend that
  // died there must fail the run, not return partial-coverage seeds.
  TIMPP_RETURN_NOT_OK(source->engine().status());
  add_cover_stats(cover);
  stats.rr_data_bytes = cover.rr_data_bytes;
  stats.rr_memory_bytes = cover.rr_memory_bytes;
  stats.rr_sets_retained = cover.rr_sets_retained;
  if (spill != nullptr) stats.spill = spill->stats();
  stats.estimated_spread = n * cover.covered_fraction;
  stats.seconds_selection = phase_timer.ElapsedSeconds();
  stats.backend = source->engine().backend_stats() - backend_before;
  stats.seconds_total = total_timer.ElapsedSeconds();

  result->seeds = std::move(cover.seeds);
  result->stats = stats;
  return Status::OK();
}

}  // namespace timpp
