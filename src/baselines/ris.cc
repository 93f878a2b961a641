#include "baselines/ris.h"

#include <cmath>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/tim.h"
#include "coverage/greedy_cover.h"
#include "coverage/streaming_cover.h"
#include "engine/sample_source.h"
#include "engine/sampling_engine.h"
#include "rrset/rr_collection.h"
#include "rrset/rr_spill.h"
#include "util/math.h"
#include "util/timer.h"

namespace timpp {

namespace {

// Continuation batch of the budgeted cost loop: mirrors the engine's
// kSetsPerCostBatch so the transient scratch stays small.
constexpr uint64_t kBudgetScanBatch = 256;

}  // namespace

Status RunRis(const Graph& graph, const RisOptions& options, int k,
              std::vector<NodeId>* seeds, RisStats* stats) {
  return RunRis(graph, options, k, SolveContext(), seeds, stats);
}

Status RunRis(const Graph& graph, const RisOptions& options, int k,
              const SolveContext& context, std::vector<NodeId>* seeds,
              RisStats* stats) {
  TIMPP_RETURN_NOT_OK(
      ValidateImParameters(graph, k, options.epsilon, options.ell));
  if (options.model == DiffusionModel::kTriggering &&
      options.custom_model == nullptr) {
    return Status::InvalidArgument(
        "model == kTriggering requires custom_model");
  }
  if (context.source != nullptr && &context.source->graph() != &graph) {
    return Status::InvalidArgument(
        "SolveContext source is bound to a different graph");
  }
  if (context.source != nullptr && options.memory_budget_bytes != 0) {
    return Status::InvalidArgument(
        "memory_budget_bytes requires a standalone run (no SolveContext "
        "source): the budget caps per-request resident bytes, which a "
        "shared collection does not have");
  }

  Timer timer;
  const double n = static_cast<double>(graph.num_nodes());
  const double m = static_cast<double>(graph.num_edges());

  // τ = scale · k · ℓ · (m + n) · ln n / ε³ (Θ-form from §2.3 with the ℓ
  // amplification folded in).
  const double tau = options.tau_scale * static_cast<double>(k) *
                     options.ell * (m + n) * SafeLogN(graph.num_nodes()) /
                     std::pow(options.epsilon, 3.0);

  RisStats local_stats;
  local_stats.tau = tau;

  std::optional<SamplingEngine> local_engine;
  std::optional<EngineSampleSource> local_source;
  SampleSource* source = context.source;
  if (source == nullptr) {
    SamplingConfig sampling;
    sampling.model = options.model;
    sampling.custom_model = options.custom_model;
    sampling.sampler_mode = options.sampler_mode;
    sampling.num_threads = options.num_threads;
    sampling.pin_threads = options.pin_threads;
    sampling.seed = options.seed;
    sampling.backend = options.sample_backend;
    local_engine.emplace(graph, sampling);
    local_source.emplace(*local_engine);
    source = &*local_source;
  }
  const BackendStats backend_before = source->engine().backend_stats();

  const uint64_t first = source->position();
  RRCollection rr(graph.num_nodes());
  rr.set_memory_budget(options.memory_budget_bytes);

  // Keep sampling until the cumulative examination cost (nodes added +
  // edges examined, the units of Borgs et al.'s τ) reaches τ. The set in
  // flight when the threshold falls is kept (Borgs et al. truncate
  // mid-set; retaining the completed set only strengthens coverage and
  // keeps the implementation simple).
  const SampleBatch batch =
      source->FetchUntilCost(&rr, tau, options.max_rr_sets);
  // A failed backend (worker process death) stops the cost loop short of
  // τ with a latched engine error — fail rather than cover a truncated
  // collection.
  TIMPP_RETURN_NOT_OK(source->engine().status());
  local_stats.cost_examined = batch.traversal_cost;
  local_stats.rr_sets_generated = batch.sets_added;
  local_stats.hit_set_cap = batch.hit_set_cap;

  if (batch.hit_memory_budget) {
    // Budget fired short of τ. θ is implicit in the cost threshold, so
    // instead of truncating quality (the pre-PR-4 behaviour) treat the
    // retained collection as a stream-prefix cache: finish the cost rule
    // without retaining — the per-index RNG contract makes the discarded
    // sets regenerable exactly — and run the streaming greedy over the
    // full θ. Seeds come out bit-identical to an unbudgeted run. With a
    // spill store, every set the cache drops goes to disk on the way past
    // and selection replays it instead of regenerating.
    local_stats.hit_memory_budget = true;
    const std::unique_ptr<RRSpillStore> spill_store = MakeSpillStore(
        options, options.memory_budget_bytes, graph.num_nodes());
    RRSpillStore* spill = spill_store.get();

    const uint64_t fetched = rr.num_sets();
    const size_t keep =
        MaxPrefixUnderDataBudget(rr, options.memory_budget_bytes);
    if (spill != nullptr && fetched > keep &&
        spill->SpillRange(rr, {}, keep, fetched - keep, first + keep).ok()) {
      // FetchUntilCost exposes no per-set edge split, so the suffix spills
      // with zeroed edge counts — selection only reads members and widths.
      local_stats.rr_sets_spilled += fetched - keep;
    }
    rr.TruncateTo(keep);

    SamplingEngine& engine = source->engine();
    RRCollection scratch(graph.num_nodes());
    std::vector<uint64_t> scratch_edges;
    // Resume the SAME admission rule the engine's cost loop was running
    // when the budget interrupted it (shared CostAdmission definition, so
    // stop points match the unbudgeted run bit-exactly).
    CostAdmission rule;
    rule.cost_threshold = tau;
    rule.max_sets = options.max_rr_sets;
    rule.traversal_cost = batch.traversal_cost;
    rule.sets_admitted = batch.sets_added;
    uint64_t scan_pos = first + fetched;  // global index of the next batch
    bool spill_ok = spill != nullptr;
    bool stop = false;
    while (!stop) {
      scratch.Clear();
      scratch_edges.clear();
      engine.SampleInto(&scratch, kBudgetScanBatch, &scratch_edges);
      // Without this check an engine stuck on a dead backend would return
      // empty batches forever while the admission rule still wants more.
      TIMPP_RETURN_NOT_OK(engine.status());
      if (spill_ok && scratch.num_sets() > 0) {
        // The whole scan batch goes to disk (overshoot past τ included —
        // the cover walk simply never visits past θ). A write failure
        // stops spilling, not the admission scan.
        if (spill
                ->SpillRange(scratch, scratch_edges, 0, scratch.num_sets(),
                             scan_pos)
                .ok()) {
          local_stats.rr_sets_spilled += scratch.num_sets();
        } else {
          spill_ok = false;
        }
      }
      scan_pos += scratch.num_sets();
      for (size_t j = 0; j < scratch.num_sets(); ++j) {
        if (!rule.WantsMore()) {
          stop = true;
          break;
        }
        rule.Admit(scratch_edges[j] +
                   scratch.Set(static_cast<RRSetId>(j)).size());
      }
    }
    local_stats.hit_set_cap = rule.hit_set_cap;
    local_stats.cost_examined = rule.traversal_cost;
    local_stats.rr_sets_generated = rule.sets_admitted;
    local_stats.rr_sets_retained = rr.num_sets();

    StreamingCoverResult streamed = StreamingGreedyMaxCover(
        engine, rr, first, rule.sets_admitted, k, spill);
    TIMPP_RETURN_NOT_OK(engine.status());
    local_stats.regeneration_passes = streamed.regeneration_passes;
    local_stats.sets_spill_read = streamed.sets_spill_read;
    if (spill != nullptr) {
      local_stats.spill = spill->stats();
      local_stats.spill_bytes_written = local_stats.spill.bytes_written;
    }
    *seeds = std::move(streamed.cover.seeds);
    local_stats.covered_fraction = streamed.cover.covered_fraction;
  } else {
    rr.BuildIndex();
    local_stats.rr_sets_retained = rr.num_sets();
    CoverResult cover = GreedyMaxCover(rr, k);
    *seeds = std::move(cover.seeds);
    local_stats.covered_fraction = cover.covered_fraction;
  }
  local_stats.backend = source->engine().backend_stats() - backend_before;
  local_stats.seconds_total = timer.ElapsedSeconds();
  if (stats != nullptr) *stats = local_stats;
  return Status::OK();
}

}  // namespace timpp
