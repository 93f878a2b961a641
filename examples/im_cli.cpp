// im_cli — command-line influence maximization over your own graphs.
//
// Loads a SNAP-style edge list ("u v" or "u v p" per line, '#' comments),
// applies a weight scheme, runs any solver registered in the global
// SolverRegistry and prints the seed set with its estimated spread. The
// whole library behind one binary, with no per-algorithm branching: the
// --algo flag is a registry lookup.
//
// Examples:
//   ./build/im_cli graph.txt --k=50 --algo=tim+ --model=ic --threads=8
//   ./build/im_cli graph.txt --undirected --weights=wc --algo=celf++
//        --mc=1000
//   ./build/im_cli graph.txt --algo=degree --k=20
//   ./build/im_cli --list_algos
//
// Flags:
//   --k=50            seed-set size
//   --algo=tim+       any registered solver; --list_algos prints them
//   --model=ic        ic | lt   (defines both weights default and solver)
//   --weights=wc      wc (1/indeg) | lt (normalized random) | keep (file) |
//                     uniform:<p> | trivalency
//   --eps=0.1 --ell=1 --seed=7 --mc=10000 --threads=1
//                     (--celf_r is accepted as an alias for --mc; note the
//                     old CLI's "celf" ran CELF++ — that variant is now
//                     registered as "celf++", plain lazy-forward as "celf")
//   --max_hops=0      bound propagation rounds (time-critical variant)
//   --sampler=auto    auto | perarc | skip — RR-traversal strategy:
//                     geometric skip sampling over constant-probability
//                     arc runs (fast on wc/uniform graphs) vs one coin
//                     per arc; auto picks per graph
//   --mc-batch=scalar scalar | bitmap64 | bitmap64:shared — Monte-Carlo
//                     cascade batching for the greedy/CELF family, IRIE's
//                     AP estimation and the final spread report: bitmap64
//                     runs 64 IC cascades per graph traversal (per-vertex
//                     uint64_t lane bitmaps, OR-propagation; unbiased,
//                     near-64× traversal amortization); bitmap64:shared
//                     additionally shares each examined arc's liveness
//                     draw across lanes (same mean, correlated lanes —
//                     cheaper per batch, more batches for equal
//                     variance). LT/triggering estimates stay scalar
//   --backend=local   local | procs:N | procs:N:T — where RR sampling
//                     runs: in-process threads, or N worker subprocesses
//                     (T sampling threads each) coordinated over pipes.
//                     Seeds/θ/LB are bit-identical across backends; the
//                     workers reload the graph from this command's path +
//                     weight settings and verify it by content hash.
//                     Append ",fallback=local" to finish a shard
//                     in-process (still bit-identical) when its retry
//                     budget runs out instead of failing the run
//   --shard-timeout-ms=0
//                     deadline on each worker shard round-trip (0 = none;
//                     crashes are detected instantly either way — the
//                     deadline exists to catch hung workers)
//   --max-shard-retries=2
//                     shard attempts after the first before giving up
//                     (respawn + replay, bit-identical by construction;
//                     0 = fail fast on the first worker failure)
//   --fault-inject=spec
//                     deterministic worker fault injection for testing,
//                     e.g. "kill@100;hang@5000x2:250" (see
//                     distributed/fault_injection.h for the grammar)
//   --worker          serve the distributed sampling worker protocol on
//                     stdin/stdout (what the procs backend spawns; not
//                     for interactive use)
//   --cache-budget=0  batch mode: byte cap on the shared RR collections
//                     (LRU stream eviction; identical results, bounded
//                     memory)
//   --concurrency=1   batch mode: >1 serves the batch through the async
//                     Submit path with that many concurrent request
//                     workers (results identical to --concurrency=1;
//                     per-request reuse attribution may shift between
//                     overlapping requests)
//   --max-pending=0   batch mode with --concurrency: admission-queue
//                     bound; requests past it are rejected with
//                     Unavailable (0 = unbounded, the CLI default — a
//                     batch file is finite)
//   --pin-threads     pin sampling/request workers to CPUs (placement
//                     only; results are invariant to it)
//   --memory-budget=0 soft cap (bytes; 0 = unlimited) on resident
//                     RR-collection bytes. tim/tim+/imm/ris all degrade
//                     gracefully past it (streaming sample-and-discard
//                     selection over a retained stream prefix: identical
//                     seeds, extra sampling passes)
//   --graph-image=g.timppimg
//                     out-of-core graph storage: if the file exists, mmap
//                     it read-only instead of parsing the edge list (the
//                     positional argument becomes optional); otherwise
//                     build from the edge list, write the image, and run
//                     from the mapped copy. procs workers reload via the
//                     image too (format=image spec). ContentHash and every
//                     RR stream are bit-identical to the resident load
//   --spill-dir=DIR   out-of-core RR storage: when --memory-budget trips,
//                     write the non-resident RR ranges to chunk files
//                     under DIR once and replay them each greedy round
//                     instead of regenerating (identical seeds,
//                     regeneration_passes=0 while the store is healthy).
//                     Batch mode also spills LRU-evicted shared streams
//                     there and preloads them on re-acquisition
//   --spill           shorthand for --spill-dir=<system temp>/im_spill
//   --ris_tau_scale / --ris_max_sets
//                     RIS cost-threshold and out-of-memory knobs (RIS
//                     honors --memory-budget like tim/imm)
//   --undirected      treat each input line as an undirected edge
//   --batch=req.tsv   serve many requests against the loaded graph through
//                     the ServingEngine (cross-request RR-collection and
//                     KPT/LB reuse; results identical to running each
//                     request standalone). One request per line:
//                       algo  k  epsilon  [key=value ...]
//                     where key ∈ {seed, model, ell, hops, sampler,
//                     budget, mc, mc_batch, tau_scale, max_sets}; '#'
//                     starts a comment. Unset keys inherit the CLI flags.
//                     Prints a per-request line plus a reuse summary.
//
// Any other --flag is an error (exit 2), so a misspelt or retired option
// never runs silently with its default.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "diffusion/spread_estimator.h"
#include "distributed/fault_injection.h"
#include "distributed/graph_spec.h"
#include "distributed/worker.h"
#include "engine/execution_options.h"
#include "engine/solver_registry.h"
#include "graph/graph_io.h"
#include "graph/weight_models.h"
#include "serving/serving_engine.h"
#include "util/flags.h"

namespace {

int Fail(const timpp::Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

void PrintAlgos() {
  std::printf("registered algorithms:");
  for (const std::string& name : timpp::SolverRegistry::Global().Names()) {
    std::printf(" %s", name.c_str());
  }
  std::printf("\n");
}

/// Parses --backend=local | procs:N | procs:N:T (N worker processes, T
/// sampling threads each), optionally followed by ",fallback=local" or
/// ",fallback=none". On failure fills `*error` with what was wrong.
bool ParseBackendSpec(const std::string& name,
                      timpp::SampleBackendSpec* spec, std::string* error) {
  const size_t comma = name.find(',');
  const std::string base = name.substr(0, comma);
  if (base == "local") {
    spec->kind = timpp::SampleBackendKind::kLocalThreads;
  } else if (base.rfind("procs", 0) == 0) {
    spec->kind = timpp::SampleBackendKind::kProcessShards;
    spec->num_workers = 1;
    // Strict digit parse with a sane cap: stoul would happily wrap
    // "procs:-1" to 4 billion workers — a fork bomb from a typo.
    const auto parse_count = [](const std::string& field, unsigned* out) {
      if (field.empty() || field.size() > 4) return false;
      unsigned value = 0;
      for (char c : field) {
        if (c < '0' || c > '9') return false;
        value = value * 10 + static_cast<unsigned>(c - '0');
      }
      if (value < 1 || value > 256) return false;
      *out = value;
      return true;
    };
    if (base.size() > 5) {
      if (base[5] != ':') {
        *error = "expected 'procs', 'procs:N' or 'procs:N:T', got '" + base +
                 "'";
        return false;
      }
      const std::string rest = base.substr(6);
      const size_t colon = rest.find(':');
      if (!parse_count(rest.substr(0, colon), &spec->num_workers)) {
        *error = "bad worker count in '" + base + "' (want 1..256)";
        return false;
      }
      if (colon != std::string::npos &&
          !parse_count(rest.substr(colon + 1), &spec->worker_threads)) {
        *error = "bad per-worker thread count in '" + base + "' (want 1..256)";
        return false;
      }
    }
  } else {
    *error = "unknown backend '" + base + "' (local | procs:N | procs:N:T)";
    return false;
  }
  // Trailing ",key=value" options.
  for (size_t pos = comma; pos != std::string::npos;) {
    const size_t next = name.find(',', pos + 1);
    const std::string opt =
        name.substr(pos + 1, next == std::string::npos ? std::string::npos
                                                       : next - pos - 1);
    if (opt == "fallback=local") {
      spec->fallback = timpp::FallbackPolicy::kLocal;
    } else if (opt == "fallback=none") {
      spec->fallback = timpp::FallbackPolicy::kNone;
    } else {
      *error = "unknown backend option '" + opt + "' (fallback=local|none)";
      return false;
    }
    pos = next;
  }
  if (spec->fallback == timpp::FallbackPolicy::kLocal &&
      spec->kind != timpp::SampleBackendKind::kProcessShards) {
    *error = "fallback=local only applies to the procs backend";
    return false;
  }
  return true;
}

bool ParseMcBatchMode(const std::string& name, timpp::McBatchMode* mode) {
  if (name == "scalar") {
    *mode = timpp::McBatchMode::kScalar;
  } else if (name == "bitmap64") {
    *mode = timpp::McBatchMode::kBitmap64;
  } else if (name == "bitmap64:shared") {
    *mode = timpp::McBatchMode::kBitmap64Shared;
  } else {
    return false;
  }
  return true;
}

bool ParseSamplerMode(const std::string& name, timpp::SamplerMode* mode) {
  if (name == "auto") {
    *mode = timpp::SamplerMode::kAuto;
  } else if (name == "perarc") {
    *mode = timpp::SamplerMode::kPerArc;
  } else if (name == "skip") {
    *mode = timpp::SamplerMode::kSkip;
  } else {
    return false;
  }
  return true;
}

/// Parses one batch line ("algo k epsilon [key=value ...]") into a
/// request pre-filled with the CLI-level defaults. Returns false (with a
/// message on stderr) on malformed input.
bool ParseBatchLine(const std::string& line, int line_number,
                    timpp::ImRequest* request) {
  std::istringstream in(line);
  int64_t k = 0;
  if (!(in >> request->algo >> k >> request->epsilon)) {
    std::fprintf(stderr, "batch line %d: expected 'algo k epsilon ...'\n",
                 line_number);
    return false;
  }
  request->k = static_cast<int>(k);
  std::string token;
  while (in >> token) {
    const size_t eq = token.find('=');
    if (eq == std::string::npos) {
      std::fprintf(stderr, "batch line %d: expected key=value, got '%s'\n",
                   line_number, token.c_str());
      return false;
    }
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    try {
      if (key == "seed") {
        request->seed = std::stoull(value);
      } else if (key == "model") {
        if (value == "lt") {
          request->model = timpp::DiffusionModel::kLT;
        } else if (value == "ic") {
          request->model = timpp::DiffusionModel::kIC;
        } else {
          std::fprintf(stderr, "batch line %d: unknown model '%s' (ic|lt)\n",
                       line_number, value.c_str());
          return false;
        }
      } else if (key == "ell") {
        request->ell = std::stod(value);
      } else if (key == "hops") {
        request->max_hops = static_cast<uint32_t>(std::stoul(value));
      } else if (key == "sampler") {
        if (!ParseSamplerMode(value, &request->sampler_mode)) {
          std::fprintf(stderr, "batch line %d: unknown sampler '%s'\n",
                       line_number, value.c_str());
          return false;
        }
      } else if (key == "budget") {
        request->memory_budget_bytes = std::stoull(value);
      } else if (key == "mc") {
        request->mc_samples = std::stoull(value);
      } else if (key == "mc_batch") {
        if (!ParseMcBatchMode(value, &request->mc_batch)) {
          std::fprintf(stderr,
                       "batch line %d: unknown mc_batch '%s' "
                       "(scalar|bitmap64|bitmap64:shared)\n",
                       line_number, value.c_str());
          return false;
        }
      } else if (key == "tau_scale") {
        request->ris_tau_scale = std::stod(value);
      } else if (key == "max_sets") {
        request->ris_max_sets = std::stoull(value);
      } else {
        std::fprintf(stderr, "batch line %d: unknown key '%s'\n",
                     line_number, key.c_str());
        return false;
      }
    } catch (const std::exception&) {
      std::fprintf(stderr, "batch line %d: bad value in '%s'\n", line_number,
                   token.c_str());
      return false;
    }
  }
  return true;
}

/// Batch mode: runs every request in `path` against the loaded graph via
/// a ServingEngine and reports per-request results plus reuse totals.
int RunBatch(const std::string& path, timpp::Graph graph,
             const timpp::ImRequest& defaults,
             const timpp::ServingOptions& serving_options,
             unsigned concurrency) {
  const unsigned num_threads = serving_options.num_threads;
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "error: cannot read batch file %s\n", path.c_str());
    return 1;
  }
  std::vector<timpp::ImRequest> requests;
  std::string line;
  int line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    const size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    timpp::ImRequest request = defaults;
    if (!ParseBatchLine(line, line_number, &request)) return 2;
    requests.push_back(std::move(request));
  }
  if (requests.empty()) {
    std::fprintf(stderr, "error: %s contains no requests\n", path.c_str());
    return 2;
  }

  timpp::ServingEngine serving(serving_options);
  timpp::Status status = serving.RegisterGraph("g", std::move(graph));
  if (!status.ok()) return Fail(status);

  std::vector<timpp::ImResponse> responses;
  if (concurrency > 1) {
    // Async path: every request enters the admission queue up front and a
    // crew of `concurrency` workers drains it; results come back in
    // request order through the futures regardless of completion order.
    std::printf(
        "serving %zu request(s) with %u thread(s), concurrency %u\n\n",
        requests.size(), num_threads, concurrency);
    std::vector<std::future<timpp::ImResponse>> futures;
    futures.reserve(requests.size());
    for (const timpp::ImRequest& request : requests) {
      futures.push_back(serving.Submit(request));
    }
    responses.reserve(futures.size());
    for (auto& future : futures) responses.push_back(future.get());
  } else {
    std::printf("serving %zu request(s) with %u thread(s)\n\n",
                requests.size(), num_threads);
    responses = serving.SolveBatch(requests);
  }

  int failures = 0;
  for (size_t i = 0; i < responses.size(); ++i) {
    const timpp::ImRequest& request = requests[i];
    const timpp::ImResponse& response = responses[i];
    if (!response.status.ok()) {
      ++failures;
      std::printf("[%zu] %s k=%d eps=%g FAILED: %s\n", i,
                  request.algo.c_str(), request.k, request.epsilon,
                  response.status.ToString().c_str());
      continue;
    }
    std::printf(
        "[%zu] %s k=%d eps=%g seed=%llu time=%.3fs spread=%.1f "
        "reused=%llu sampled=%llu%s seeds:",
        i, request.algo.c_str(), request.k, request.epsilon,
        static_cast<unsigned long long>(request.seed),
        response.result.seconds_total, response.result.estimated_spread,
        static_cast<unsigned long long>(response.rr_sets_reused),
        static_cast<unsigned long long>(response.rr_sets_sampled),
        response.phase_cache_hit ? " kpt-cache-hit" : "");
    for (timpp::NodeId s : response.result.seeds) std::printf(" %u", s);
    std::printf("\n");
  }

  const timpp::GraphContext* context = serving.Context("g");
  std::printf(
      "\nreuse summary: %llu RR sets served, %llu sampled "
      "(%.1f%% reuse), %zu stream(s), shared collections %.1f MB\n",
      static_cast<unsigned long long>(context->TotalSetsServed()),
      static_cast<unsigned long long>(context->TotalSetsSampled()),
      context->TotalSetsServed() == 0
          ? 0.0
          : 100.0 * static_cast<double>(context->TotalSetsReused()) /
                static_cast<double>(context->TotalSetsServed()),
      context->NumStreams(),
      static_cast<double>(context->SharedMemoryBytes()) / (1024.0 * 1024.0));
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  timpp::Flags flags(argc, argv);
  const std::vector<std::string> unknown = flags.Unknown(
      {"algo", "backend", "batch", "cache-budget", "celf_r", "concurrency",
       "ell", "eps", "fault-inject", "graph-image", "k", "list_algos",
       "max-pending", "max-shard-retries", "max_hops", "mc", "mc-batch",
       "memory-budget", "memory_budget", "model", "pin-threads",
       "ris_max_sets", "ris_tau_scale", "sampler", "seed",
       "shard-timeout-ms", "spill", "spill-dir", "threads", "undirected",
       "weights", "worker"});
  if (!unknown.empty()) {
    for (const std::string& name : unknown) {
      std::fprintf(stderr, "error: unknown flag --%s\n", name.c_str());
    }
    return 2;
  }
  if (flags.GetBool("worker", false)) {
    // Distributed-sampling worker mode: serve the coordinator protocol on
    // stdin/stdout (see distributed/worker.h). ProcessShardBackend spawns
    // either `im_worker` or `im_cli --worker` — same loop.
    return timpp::RunSampleWorker(STDIN_FILENO, STDOUT_FILENO);
  }
  if (flags.GetBool("list_algos", false)) {
    PrintAlgos();
    return 0;
  }
  const std::string image_path = flags.GetString("graph-image", "");
  const bool image_exists =
      !image_path.empty() && std::filesystem::exists(image_path);
  if (flags.positional().empty() && !image_exists) {
    std::fprintf(stderr,
                 "usage: im_cli <edge-list> [--k=50] [--algo=tim+] "
                 "[--model=ic] [--weights=wc] [--threads=N] [--eps=0.1] "
                 "[--graph-image=g.timppimg] [--batch=requests.tsv] ... | "
                 "--list_algos\n");
    return 2;
  }

  const std::string path =
      flags.positional().empty() ? std::string() : flags.positional()[0];
  const std::string algo = flags.GetString("algo", "tim+");
  const std::string model_name = flags.GetString("model", "ic");
  const uint64_t seed = flags.GetInt("seed", 7);
  // --celf_r is the pre-registry spelling of the greedy family's sample
  // count; honor it as an alias so old command lines keep their meaning.
  const uint64_t mc =
      flags.Has("celf_r") ? flags.GetInt("celf_r", 10000)
                          : flags.GetInt("mc", 10000);

  const timpp::DiffusionModel model = model_name == "lt"
                                          ? timpp::DiffusionModel::kLT
                                          : timpp::DiffusionModel::kIC;
  const std::string weights = flags.GetString(
      "weights", model == timpp::DiffusionModel::kLT ? "lt" : "wc");

  // ---- load ---------------------------------------------------------
  timpp::EdgeListOptions io_options;
  io_options.undirected = flags.GetBool("undirected", false);
  timpp::Graph graph;
  timpp::Status status;
  if (image_exists) {
    // Out-of-core path: map the prebuilt CSR image read-only; the kernel
    // pages the adjacency in on demand. Weights and direction are baked
    // into the image; the edge-list flags are not consulted.
    status = timpp::OpenGraphImage(image_path, &graph);
    if (!status.ok()) return Fail(status);
    std::printf("mapped %s: n=%u, m=%llu\n", image_path.c_str(),
                graph.num_nodes(),
                static_cast<unsigned long long>(graph.num_edges()));
  } else {
    timpp::GraphBuilder builder;
    status = timpp::ReadEdgeList(path, io_options, &builder);
    if (!status.ok()) return Fail(status);

    if (weights == "wc") {
      timpp::AssignWeightedCascade(&builder);
    } else if (weights == "lt") {
      timpp::AssignRandomLT(&builder, seed);
    } else if (weights == "trivalency") {
      timpp::AssignTrivalency(&builder, seed);
    } else if (weights.rfind("uniform:", 0) == 0) {
      timpp::AssignUniform(&builder,
                           static_cast<float>(std::stod(weights.substr(8))));
    } else if (weights != "keep") {
      std::fprintf(stderr, "unknown --weights=%s\n", weights.c_str());
      return 2;
    }

    status = builder.Build(&graph);
    if (!status.ok()) return Fail(status);
    std::printf("loaded %s: n=%u, m=%llu\n", path.c_str(), graph.num_nodes(),
                static_cast<unsigned long long>(graph.num_edges()));
    if (!image_path.empty()) {
      // Save-and-reload: write the image, then run THIS command from the
      // mapped copy so the round-trip is exercised (and verified — the
      // open recomputes the content hash) on the very run that created it.
      status = timpp::WriteGraphImage(graph, image_path);
      if (!status.ok()) return Fail(status);
      timpp::Graph mapped;
      status = timpp::OpenGraphImage(image_path, &mapped);
      if (!status.ok()) return Fail(status);
      graph = std::move(mapped);
      std::printf("wrote graph image %s (running from the mapped copy)\n",
                  image_path.c_str());
    }
  }
  const bool from_image = image_exists || !image_path.empty();

  const std::string sampler = flags.GetString("sampler", "auto");
  timpp::SamplerMode sampler_mode;
  if (!ParseSamplerMode(sampler, &sampler_mode)) {
    std::fprintf(stderr, "unknown --sampler=%s (auto|perarc|skip)\n",
                 sampler.c_str());
    return 2;
  }

  const std::string mc_batch_name = flags.GetString("mc-batch", "scalar");
  timpp::McBatchMode mc_batch;
  if (!ParseMcBatchMode(mc_batch_name, &mc_batch)) {
    std::fprintf(stderr,
                 "unknown --mc-batch=%s (scalar|bitmap64|bitmap64:shared)\n",
                 mc_batch_name.c_str());
    return 2;
  }

  // ---- execution settings (shared by the solve and batch paths) -----
  timpp::ExecutionOptions execution;
  execution.num_threads = static_cast<unsigned>(flags.GetInt("threads", 1));
  execution.pin_threads = flags.GetBool("pin-threads", false);
  // --memory_budget is accepted as a spelling variant.
  const size_t memory_budget = static_cast<size_t>(
      flags.Has("memory-budget") ? flags.GetInt("memory-budget", 0)
                                 : flags.GetInt("memory_budget", 0));
  execution.spill_dir = flags.GetString("spill-dir", "");
  if (execution.spill_dir.empty() && flags.GetBool("spill", false)) {
    execution.spill_dir =
        (std::filesystem::temp_directory_path() / "im_spill").string();
  }

  timpp::SampleBackendSpec& backend_spec = execution.sample_backend;
  const std::string backend_name = flags.GetString("backend", "local");
  std::string backend_error;
  if (!ParseBackendSpec(backend_name, &backend_spec, &backend_error)) {
    std::fprintf(stderr, "bad --backend=%s: %s\n", backend_name.c_str(),
                 backend_error.c_str());
    return 2;
  }
  // Fault-tolerance knobs (meaningful for procs; harmless for local).
  const int64_t shard_timeout = flags.GetInt("shard-timeout-ms", 0);
  const int64_t shard_retries = flags.GetInt("max-shard-retries", 2);
  if (shard_timeout < 0 || shard_timeout > 86'400'000 || shard_retries < 0 ||
      shard_retries > 1'000'000) {
    std::fprintf(stderr,
                 "bad --shard-timeout-ms/--max-shard-retries (want "
                 "0..86400000 ms / 0..1000000 retries)\n");
    return 2;
  }
  backend_spec.shard_timeout_ms = static_cast<uint32_t>(shard_timeout);
  backend_spec.max_shard_retries = static_cast<uint32_t>(shard_retries);
  if (flags.Has("fault-inject")) {
    const std::string fault_spec = flags.GetString("fault-inject", "");
    timpp::FaultPlan plan;
    const timpp::Status fault_status =
        timpp::ParseFaultPlan(fault_spec, &plan);
    if (!fault_status.ok()) {
      std::fprintf(stderr, "bad --fault-inject=%s: %s\n", fault_spec.c_str(),
                   fault_status.ToString().c_str());
      return 2;
    }
    backend_spec.fault_spec = fault_spec;
  }
  if (backend_spec.kind == timpp::SampleBackendKind::kProcessShards) {
    // Spawn this very binary as the worker (`im_cli --worker`): it is the
    // one executable guaranteed to exist however the CLI was installed.
    char self[4096];
    const ssize_t len = ::readlink("/proc/self/exe", self, sizeof(self) - 1);
    if (len > 0) {
      self[len] = '\0';
      backend_spec.worker_binary = self;
    } else {
      backend_spec.worker_binary = argv[0];
    }
    // Workers reload the graph from disk (path + weight model + seed)
    // instead of receiving megabytes of serialized arcs through the
    // pipe; Graph::ContentHash verifies the reload is bit-exact. Paths
    // the spec grammar cannot express fall back to inline shipping. With
    // --graph-image the workers mmap the same image this process runs
    // from — no per-worker rebuild at all.
    timpp::GraphSpec graph_spec;
    if (from_image) {
      graph_spec.format = "image";
      graph_spec.path = image_path;
    } else {
      graph_spec.path = path;
      graph_spec.undirected = io_options.undirected;
      graph_spec.weights = weights;
      graph_spec.weight_seed = seed;
    }
    std::string encoded;
    if (timpp::EncodeGraphSpec(graph_spec, &encoded).ok()) {
      backend_spec.graph_source = encoded;
    }
  }

  // ---- batch mode ---------------------------------------------------
  if (flags.Has("batch")) {
    timpp::ImRequest defaults;
    defaults.graph = "g";
    defaults.model = model;
    defaults.sampler_mode = sampler_mode;
    defaults.seed = seed;
    defaults.ell = flags.GetDouble("ell", 1.0);
    defaults.max_hops = static_cast<uint32_t>(flags.GetInt("max_hops", 0));
    defaults.memory_budget_bytes = memory_budget;
    defaults.mc_samples = mc;
    defaults.mc_batch = mc_batch;
    defaults.ris_tau_scale = flags.GetDouble("ris_tau_scale", 0.1);
    defaults.ris_max_sets = flags.GetInt("ris_max_sets", 10000000);
    timpp::ServingOptions serving_options;
    static_cast<timpp::ExecutionOptions&>(serving_options) = execution;
    serving_options.shared_cache_budget_bytes =
        static_cast<size_t>(flags.GetInt("cache-budget", 0));
    const unsigned concurrency = static_cast<unsigned>(
        std::max<int64_t>(1, flags.GetInt("concurrency", 1)));
    serving_options.submit_workers = concurrency;
    // A batch file is a finite, known workload: default to unbounded
    // admission so --concurrency never sheds requests unless the user
    // asks for a bound.
    serving_options.max_pending_requests =
        static_cast<size_t>(flags.GetInt("max-pending", 0));
    return RunBatch(flags.GetString("batch", ""), std::move(graph), defaults,
                    serving_options, concurrency);
  }

  // ---- solve --------------------------------------------------------
  std::unique_ptr<timpp::InfluenceSolver> solver;
  status = timpp::SolverRegistry::Global().Create(algo, graph, &solver);
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    PrintAlgos();
    return 2;
  }

  timpp::SolverOptions options;
  static_cast<timpp::ExecutionOptions&>(options) = execution;
  options.k = static_cast<int>(flags.GetInt("k", 50));
  options.sampler_mode = sampler_mode;
  options.epsilon = flags.GetDouble("eps", 0.1);
  options.ell = flags.GetDouble("ell", 1.0);
  options.model = model;
  options.max_hops = static_cast<uint32_t>(flags.GetInt("max_hops", 0));
  options.seed = seed;
  options.mc_samples = mc;
  options.mc_batch = mc_batch;
  options.ris_tau_scale = flags.GetDouble("ris_tau_scale", 0.1);
  options.ris_max_sets = flags.GetInt("ris_max_sets", 10000000);
  options.memory_budget_bytes = memory_budget;

  timpp::SolverResult result;
  status = solver->Run(options, &result);
  if (!status.ok()) return Fail(status);

  // ---- report -------------------------------------------------------
  timpp::SpreadEstimatorOptions est;
  est.num_samples = mc;
  est.model = model;
  est.num_threads = options.num_threads;
  est.max_hops = options.max_hops;
  est.sampler_mode = sampler_mode;
  est.mc_batch = mc_batch;
  timpp::SpreadEstimator estimator(graph, est);
  const double spread = estimator.Estimate(result.seeds, seed ^ 0xabc);

  std::printf("\nalgorithm=%s model=%s sampler=%s mc_batch=%s k=%d "
              "time=%.3fs\n",
              solver->name().c_str(), timpp::DiffusionModelName(model),
              timpp::SamplerModeName(sampler_mode),
              timpp::McBatchModeName(mc_batch), options.k,
              result.seconds_total);
  if (!result.metrics.empty()) {
    std::printf("stats:");
    for (const auto& [name, value] : result.metrics) {
      std::printf(" %s=%.6g", name.c_str(), value);
    }
    std::printf("\n");
  }
  if (result.Metric("hit_memory_budget") != 0.0) {
    // Every RR-set algorithm now degrades gracefully (RIS included since
    // its collection became a stream-prefix cache): seeds are identical
    // to an unbudgeted run, so this is a cost note, not a quality
    // warning.
    std::printf(
        "note: memory budget engaged — selection streamed %.6g "
        "regeneration pass(es) over discarded RR sets (seeds identical to "
        "an unbudgeted run, retained %.6g of %.6g sets)\n",
        result.Metric("regeneration_passes"),
        result.Metric("rr_sets_retained"),
        result.Metric("theta", result.Metric("rr_sets_generated")));
    if (result.Metric("rr_sets_spilled") != 0.0) {
      std::printf(
          "note: spill tier engaged — %.6g sets spilled (%.6g bytes), "
          "%.6g set reads replayed from disk instead of regenerated\n",
          result.Metric("rr_sets_spilled"),
          result.Metric("spill_bytes_written"),
          result.Metric("sets_spill_read"));
    }
  }
  if (result.estimated_spread > 0.0) {
    std::printf("solver spread estimate: %.1f\n", result.estimated_spread);
  }
  std::printf("expected spread (MC %llu): %.1f (%.2f%% of n)\n",
              static_cast<unsigned long long>(mc), spread,
              100.0 * spread / graph.num_nodes());
  std::printf("seeds:");
  for (timpp::NodeId s : result.seeds) std::printf(" %u", s);
  std::printf("\n");
  return 0;
}
