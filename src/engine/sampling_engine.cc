#include "engine/sampling_engine.h"

#include <algorithm>

namespace timpp {

namespace {

// Fixed batch granularities. These are part of the determinism contract:
// early-stop checks (memory budget, cost threshold, set cap) run at batch
// boundaries, and keeping the boundaries independent of num_threads (and
// of the backend) keeps the stop points independent of them too.
constexpr uint64_t kSetsPerBatch = 8192;
// Cost-threshold sampling uses small batches so the overshoot past the
// threshold (sampled but discarded sets) stays negligible.
constexpr uint64_t kSetsPerCostBatch = 256;
// Sample-and-discard streaming regenerates in small chunks so the
// transient shard buffers stay a rounding error next to any realistic
// memory budget (only one chunk of sets is resident at a time).
constexpr uint64_t kSetsPerVisitBatch = 1024;

}  // namespace

SamplingEngine::SamplingEngine(const Graph& graph,
                               const SamplingConfig& config)
    : graph_(graph), config_(config) {
  config_.num_threads = std::max(1u, config_.num_threads);
  backend_ = CreateSampleBackend(graph_, config_);
}

SamplingEngine::~SamplingEngine() = default;

Status SamplingEngine::status() const {
  if (!failed_.load(std::memory_order_acquire)) return Status::OK();
  std::lock_guard<std::mutex> lock(status_mu_);
  return first_error_;
}

void SamplingEngine::LatchError(Status st) {
  std::lock_guard<std::mutex> lock(status_mu_);
  if (failed_.load(std::memory_order_relaxed)) return;  // first error wins
  first_error_ = std::move(st);
  failed_.store(true, std::memory_order_release);
}

bool SamplingEngine::FillOk(uint64_t base, uint64_t count,
                            const SampleFilter* filter) {
  if (failed_.load(std::memory_order_acquire)) return false;
  Status st = backend_->Fill(base, count, filter);
  if (!st.ok()) {
    LatchError(std::move(st));
    return false;
  }
  return true;
}

SampleBatch SamplingEngine::SampleInto(RRCollection* out, uint64_t count,
                                       std::vector<uint64_t>* per_set_edges) {
  SampleBatch total;
  uint64_t remaining = count;
  while (remaining > 0 && !failed_.load(std::memory_order_acquire)) {
    if (out->OverMemoryBudget()) {
      total.hit_memory_budget = true;
      break;
    }
    const uint64_t batch = std::min(remaining, kSetsPerBatch);
    if (!backend_->AppendDirect(next_index_, batch, out,
                                &total.edges_examined, &total.traversal_cost,
                                per_set_edges)) {
      if (!FillOk(next_index_, batch, nullptr)) break;
      uint64_t batch_nodes = 0;
      uint64_t batch_edges = 0;
      for (const SampleBackend::Chunk& chunk : backend_->chunks()) {
        batch_nodes +=
            chunk.sets->Offset(chunk.end) - chunk.sets->Offset(chunk.begin);
        out->AppendRange(*chunk.sets, chunk.begin, chunk.end - chunk.begin);
        for (size_t j = chunk.begin; j < chunk.end; ++j) {
          batch_edges += (*chunk.edges)[j];
          if (per_set_edges != nullptr) {
            per_set_edges->push_back((*chunk.edges)[j]);
          }
        }
      }
      total.edges_examined += batch_edges;
      total.traversal_cost += batch_edges + batch_nodes;
    }
    total.sets_added += batch;
    next_index_ += batch;
    remaining -= batch;
  }
  return total;
}

SampleBatch SamplingEngine::SampleUntilCost(RRCollection* out,
                                            double cost_threshold,
                                            uint64_t max_sets) {
  SampleBatch total;
  CostAdmission rule;
  rule.cost_threshold = cost_threshold;
  rule.max_sets = max_sets;
  bool stop = false;
  while (!stop) {
    if (!rule.WantsMore()) break;
    if (out->OverMemoryBudget()) {
      total.hit_memory_budget = true;
      break;
    }
    uint64_t batch = kSetsPerCostBatch;
    if (max_sets != 0) batch = std::min(batch, max_sets - rule.sets_admitted);
    if (!FillOk(next_index_, batch, nullptr)) break;
    // Append in index order while the admission rule allows it; the set
    // that crosses the threshold is kept, the rest of the batch is
    // discarded and its indices rewound (a later batch would regenerate
    // them identically, so the stop point is batch-size independent).
    uint64_t kept = 0;
    for (const SampleBackend::Chunk& chunk : backend_->chunks()) {
      for (size_t j = chunk.begin; j < chunk.end && !stop; ++j) {
        if (!rule.WantsMore()) {
          stop = true;
          break;
        }
        const auto set = chunk.sets->Set(static_cast<RRSetId>(j));
        out->Add(set, chunk.sets->Width(static_cast<RRSetId>(j)));
        total.edges_examined += (*chunk.edges)[j];
        rule.Admit((*chunk.edges)[j] + set.size());
        ++kept;
      }
      if (stop) break;
    }
    next_index_ += kept;
  }
  total.sets_added = rule.sets_admitted;
  total.traversal_cost = rule.traversal_cost;
  total.hit_set_cap = rule.hit_set_cap;
  return total;
}

SampleBatch SamplingEngine::VisitSamples(uint64_t first, uint64_t count,
                                         const SampleFilter& filter,
                                         const SampleVisitor& visit) {
  SampleBatch total;
  const SampleFilter* filter_ptr = filter ? &filter : nullptr;
  for (uint64_t done = 0; done < count;) {
    const uint64_t chunk_size = std::min(count - done, kSetsPerVisitBatch);
    if (!FillOk(first + done, chunk_size, filter_ptr)) break;
    // Chunk order == index order, so the visitor sees the filtered index
    // sequence exactly as a sequential loop would produce it. Without a
    // filter the sequence is contiguous and indices are reconstructed
    // positionally (backends record them only for filtered fills).
    uint64_t running = first + done;
    for (const SampleBackend::Chunk& chunk : backend_->chunks()) {
      for (size_t j = chunk.begin; j < chunk.end; ++j) {
        const auto set = chunk.sets->Set(static_cast<RRSetId>(j));
        visit(chunk.indices != nullptr ? (*chunk.indices)[j] : running++, set);
        ++total.sets_added;
        total.edges_examined += (*chunk.edges)[j];
        total.traversal_cost += (*chunk.edges)[j] + set.size();
      }
    }
    done += chunk_size;
  }
  return total;
}

void SamplingEngine::SkipTo(uint64_t index) {
  next_index_ = std::max(next_index_, index);
}

}  // namespace timpp
