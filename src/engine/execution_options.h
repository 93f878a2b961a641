// ExecutionOptions — where an RR-set stream is sampled and where it
// spills. Declared once and inherited by every options struct that runs
// sampling (SolverOptions, TimOptions, ImmOptions, RisOptions,
// ServingOptions) and taken by GraphContext.
//
// None of these settings changes a result: seeds, θ, LB and every stat
// are bit-identical for any thread count, pinning, backend and spill
// directory, because set i of a stream is a pure function of (seed, i)
// and is merged in index order (engine/sampling_engine.h). They only move
// throughput, placement, failure modes and which bytes sit on disk.
#ifndef TIMPP_ENGINE_EXECUTION_OPTIONS_H_
#define TIMPP_ENGINE_EXECUTION_OPTIONS_H_

#include <cstddef>
#include <memory>
#include <string>
#include <utility>

#include "engine/sample_backend.h"
#include "engine/sampling_engine.h"
#include "rrset/rr_spill.h"
#include "util/types.h"

namespace timpp {

struct ExecutionOptions {
  /// Sampling worker threads (1 = fully sequential). Solvers without an
  /// RR stream ignore it.
  unsigned num_threads = 1;
  /// Pin sampling workers (and a serving engine's request workers) to
  /// CPUs.
  bool pin_threads = false;
  /// Where RR-set production runs: in-process threads (default) or
  /// worker subprocesses coordinated over pipes (`--backend=procs:N`).
  SampleBackendSpec sample_backend;
  /// Parent directory of the out-of-core spill tier (empty = none). A
  /// budgeted solve whose memory budget trips writes its non-resident RR
  /// ranges here once and replays them each greedy round instead of
  /// regenerating them (regeneration_passes == 0 while the store stays
  /// healthy). A serving context also spills budget-evicted shared
  /// streams here and preloads them on re-acquisition. Chunk files live
  /// in unique per-store subdirectories, deleted when the store dies.
  std::string spill_dir;
};

/// Copies the settings a sampling engine takes from `execution` — threads,
/// pinning and backend — into `config`. The stream's own facets (model,
/// seed, hop bound, ...) are left as they are.
inline void ApplyExecution(const ExecutionOptions& execution,
                           SamplingConfig* config) {
  config->num_threads = execution.num_threads;
  config->pin_threads = execution.pin_threads;
  config->backend = execution.sample_backend;
}

/// The spill store of one budgeted solve: null unless a memory budget can
/// trip and a spill dir is set. Its chunk directory dies with the store.
inline std::unique_ptr<RRSpillStore> MakeSpillStore(
    const ExecutionOptions& execution, size_t memory_budget_bytes,
    NodeId num_graph_nodes) {
  if (memory_budget_bytes == 0 || execution.spill_dir.empty()) return nullptr;
  RRSpillOptions options;
  options.dir = execution.spill_dir;
  return std::make_unique<RRSpillStore>(num_graph_nodes, std::move(options));
}

}  // namespace timpp

#endif  // TIMPP_ENGINE_EXECUTION_OPTIONS_H_
