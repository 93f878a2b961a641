// Tests of the out-of-core RR spill tier (rrset/rr_spill.h) and its
// integration everywhere RR prefixes live:
//   - RRSpillStore unit behaviour: chunk round-trips, append-only index
//     discipline, coverage gaps, visit/read semantics, one load per
//     chunk reached (no chunk cache);
//   - a damaged chunk file: VisitRange/ReadRange fail named at the chunk
//     boundary, and streaming cover regenerates past it to the same seeds;
//   - the solver sweep: TIM/TIM+/IMM/RIS at budgets {tiny, mid, ∞} ×
//     backends {local, procs:2} must produce bit-identical seeds and
//     stats to the unbudgeted local run, with regeneration_passes == 0
//     (disk replay, not resampling) whenever the spill tier is on and the
//     budget actually trips;
//   - serving: a budget-evicted shared stream spills its prefix and the
//     re-created stream preloads it from disk instead of resampling.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "coverage/streaming_cover.h"
#include "engine/sampling_engine.h"
#include "engine/solver_registry.h"
#include "rrset/rr_collection.h"
#include "rrset/rr_spill.h"
#include "serving/graph_context.h"
#include "serving/serving_engine.h"
#include "tests/test_util.h"

namespace timpp {
namespace {

using testing::MakeWcPowerLaw;

/// Self-cleaning spill parent directory.
class TempSpillDir {
 public:
  TempSpillDir() {
    dir_ = ::testing::TempDir() + "/timpp_spill_test_" +
           std::to_string(counter_++);
  }
  ~TempSpillDir() {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  const std::string& path() const { return dir_; }

 private:
  static int counter_;
  std::string dir_;
};
int TempSpillDir::counter_ = 0;

RRSpillOptions SpillOpts(const TempSpillDir& dir,
                         uint64_t sets_per_chunk = 4096) {
  RRSpillOptions options;
  options.dir = dir.path();
  options.sets_per_chunk = sets_per_chunk;
  return options;
}

/// `count` deterministic RR sets (plus per-set edge counts) of the given
/// stream, starting at the engine's cursor.
void Sample(const Graph& graph, uint64_t seed, uint64_t count,
            RRCollection* rr, std::vector<uint64_t>* edges) {
  SamplingEngine engine(graph, testing::IcSampling(seed));
  engine.SampleInto(rr, count, edges);
  ASSERT_EQ(rr->num_sets(), count);
}

void ExpectEqualSets(const RRCollection& a, const RRCollection& b,
                     size_t a_first, size_t b_first, size_t count) {
  for (size_t i = 0; i < count; ++i) {
    const auto sa = a.Set(static_cast<RRSetId>(a_first + i));
    const auto sb = b.Set(static_cast<RRSetId>(b_first + i));
    ASSERT_EQ(sa.size(), sb.size()) << "set " << i;
    EXPECT_TRUE(std::equal(sa.begin(), sa.end(), sb.begin())) << "set " << i;
    EXPECT_EQ(a.Width(static_cast<RRSetId>(a_first + i)),
              b.Width(static_cast<RRSetId>(b_first + i)))
        << "set " << i;
  }
}

/// Full VisitRange pass asserting every delivered set is bit-identical to
/// the in-memory original (the spill tier's core contract).
void ExpectReplayMatches(RRSpillStore* store, const RRCollection& rr,
                         uint64_t count) {
  uint64_t stopped = 0, visited = 0;
  const Status status = store->VisitRange(
      0, count, nullptr,
      [&](uint64_t index, std::span<const NodeId> set) {
        const auto expect = rr.Set(static_cast<RRSetId>(index));
        ASSERT_EQ(expect.size(), set.size()) << "set " << index;
        EXPECT_TRUE(std::equal(expect.begin(), expect.end(), set.begin()))
            << "set " << index;
      },
      &stopped, &visited);
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(stopped, count);
  EXPECT_EQ(visited, count);
}

// ---- RRSpillStore unit behaviour --------------------------------------

TEST(RRSpillStoreTest, SpillAndReadRangeRoundTrip) {
  const Graph g = MakeWcPowerLaw(120, 3, 7);
  RRCollection rr(g.num_nodes());
  std::vector<uint64_t> edges;
  Sample(g, 11, 100, &rr, &edges);

  TempSpillDir dir;
  RRSpillStore store(g.num_nodes(), SpillOpts(dir, 32));
  ASSERT_TRUE(store.SpillRange(rr, edges, 0, 100, 0).ok());
  EXPECT_TRUE(store.Covers(0, 100));
  EXPECT_EQ(store.end_index(), 100u);
  EXPECT_EQ(store.stats().sets_written, 100u);
  EXPECT_GE(store.stats().chunks_written, 4u);  // 100 sets / 32 per chunk
  EXPECT_GT(store.stats().bytes_written, 0u);

  RRCollection loaded(g.num_nodes());
  std::vector<uint64_t> loaded_edges;
  ASSERT_TRUE(store.ReadRange(0, 100, &loaded, &loaded_edges).ok());
  ASSERT_EQ(loaded.num_sets(), 100u);
  EXPECT_EQ(loaded_edges, edges);
  ExpectEqualSets(rr, loaded, 0, 0, 100);
}

TEST(RRSpillStoreTest, AppendOnlyIndexDiscipline) {
  const Graph g = MakeWcPowerLaw(60, 3, 3);
  RRCollection rr(g.num_nodes());
  std::vector<uint64_t> edges;
  Sample(g, 5, 40, &rr, &edges);

  TempSpillDir dir;
  RRSpillStore store(g.num_nodes(), SpillOpts(dir));
  ASSERT_TRUE(store.SpillRange(rr, edges, 0, 20, 50).ok());
  EXPECT_EQ(store.end_index(), 70u);
  // Appending below the current end violates the index discipline.
  EXPECT_FALSE(store.SpillRange(rr, edges, 20, 10, 30).ok());
  EXPECT_EQ(store.end_index(), 70u) << "failed append must not extend";
  // Appending past the end — with a gap — is fine.
  ASSERT_TRUE(store.SpillRange(rr, edges, 20, 10, 100).ok());
  EXPECT_EQ(store.end_index(), 110u);
}

TEST(RRSpillStoreTest, CoverageGapsAreReported) {
  const Graph g = MakeWcPowerLaw(60, 3, 13);
  RRCollection rr(g.num_nodes());
  std::vector<uint64_t> edges;
  Sample(g, 5, 80, &rr, &edges);

  TempSpillDir dir;
  RRSpillStore store(g.num_nodes(), SpillOpts(dir, 16));
  ASSERT_TRUE(store.SpillRange(rr, edges, 0, 50, 0).ok());     // [0, 50)
  ASSERT_TRUE(store.SpillRange(rr, edges, 50, 30, 100).ok());  // [100, 130)

  EXPECT_TRUE(store.Covers(0, 50));
  EXPECT_TRUE(store.Covers(100, 30));
  EXPECT_FALSE(store.Covers(0, 60));
  EXPECT_FALSE(store.Covers(90, 20));
  EXPECT_EQ(store.CoveredEnd(0, 200), 50u);
  EXPECT_EQ(store.CoveredEnd(100, 30), 130u);
  EXPECT_EQ(store.CoveredEnd(60, 100), 60u) << "nothing stored at 60";

  // ReadRange over a gap fails named and appends nothing.
  RRCollection out(g.num_nodes());
  std::vector<uint64_t> out_edges;
  const Status status = store.ReadRange(40, 20, &out, &out_edges);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(out.num_sets(), 0u) << "failed read must not half-append";
  EXPECT_TRUE(out_edges.empty());
}

TEST(RRSpillStoreTest, VisitRangeStopsAtGapAndHonorsFilter) {
  const Graph g = MakeWcPowerLaw(60, 3, 19);
  RRCollection rr(g.num_nodes());
  std::vector<uint64_t> edges;
  Sample(g, 5, 60, &rr, &edges);

  TempSpillDir dir;
  RRSpillStore store(g.num_nodes(), SpillOpts(dir, 16));
  ASSERT_TRUE(store.SpillRange(rr, edges, 0, 40, 0).ok());

  // Covered prefix with a filter dropping every odd index.
  uint64_t visited = 0, delivered = 0, stopped = 0;
  Status status = store.VisitRange(
      0, 60, [](uint64_t index) { return index % 2 == 0; },
      [&](uint64_t index, std::span<const NodeId> set) {
        EXPECT_EQ(index % 2, 0u);
        const auto expect = rr.Set(static_cast<RRSetId>(index));
        ASSERT_EQ(expect.size(), set.size());
        EXPECT_TRUE(std::equal(expect.begin(), expect.end(), set.begin()));
        ++delivered;
      },
      &stopped, &visited);
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(stopped, 40u) << "stops at the first uncovered index";
  EXPECT_EQ(delivered, 20u);
  EXPECT_EQ(visited, 20u);
}

TEST(RRSpillStoreTest, EveryVisitLoadsTheChunksItReaches) {
  const Graph g = MakeWcPowerLaw(60, 3, 23);
  RRCollection rr(g.num_nodes());
  std::vector<uint64_t> edges;
  Sample(g, 5, 64, &rr, &edges);

  TempSpillDir dir;
  RRSpillStore store(g.num_nodes(), SpillOpts(dir, 16));  // 4 chunks
  ASSERT_TRUE(store.SpillRange(rr, edges, 0, 64, 0).ok());

  // First full pass: every chunk is a load, and the replay is exact.
  ExpectReplayMatches(&store, rr, 64);
  EXPECT_EQ(store.stats().chunk_loads, 4u);
  // Re-visiting the last chunk reads it from disk again: there is no
  // chunk cache.
  uint64_t stopped = 0;
  ASSERT_TRUE(
      store.VisitRange(48, 16, nullptr,
                       [](uint64_t, std::span<const NodeId>) {}, &stopped)
          .ok());
  EXPECT_EQ(stopped, 64u);
  EXPECT_EQ(store.stats().chunk_loads, 5u);
  EXPECT_EQ(store.stats().chunk_hits, 0u);
  EXPECT_EQ(store.stats().sets_read, 64u + 16u);
}

TEST(RRSpillStoreTest, EmptyEdgeSpanRecordsZeros) {
  const Graph g = MakeWcPowerLaw(60, 3, 29);
  RRCollection rr(g.num_nodes());
  std::vector<uint64_t> edges;
  Sample(g, 5, 10, &rr, &edges);

  TempSpillDir dir;
  RRSpillStore store(g.num_nodes(), SpillOpts(dir));
  ASSERT_TRUE(store.SpillRange(rr, {}, 0, 10, 0).ok());

  RRCollection out(g.num_nodes());
  std::vector<uint64_t> out_edges;
  ASSERT_TRUE(store.ReadRange(0, 10, &out, &out_edges).ok());
  ExpectEqualSets(rr, out, 0, 0, 10);
  EXPECT_EQ(out_edges, std::vector<uint64_t>(10, 0));
}

// ---- a damaged chunk file ---------------------------------------------

/// Truncates the chunk file of `store` whose first index is `chunk_first`
/// to half its size, so the next load of that chunk is a short read.
void TruncateChunk(const RRSpillStore& store, uint64_t chunk_first) {
  const std::string prefix = "chunk-" + std::to_string(chunk_first) + "-";
  for (const auto& entry :
       std::filesystem::directory_iterator(store.directory())) {
    if (entry.path().filename().string().rfind(prefix, 0) != 0) continue;
    std::filesystem::resize_file(entry.path(), entry.file_size() / 2);
    return;
  }
  FAIL() << "no chunk file starting at index " << chunk_first;
}

TEST(RRSpillStoreTest, TruncatedChunkFailsNamedAndCoverRegenerates) {
  const Graph g = MakeWcPowerLaw(120, 3, 61);
  constexpr uint64_t kSeed = 5;
  RRCollection rr(g.num_nodes());
  std::vector<uint64_t> edges;
  Sample(g, kSeed, 64, &rr, &edges);

  // Two stores with the same four 16-set chunks; chunk [32, 48) of the
  // second is cut short on disk.
  TempSpillDir healthy_dir, damaged_dir;
  RRSpillStore healthy(g.num_nodes(), SpillOpts(healthy_dir, 16));
  RRSpillStore damaged(g.num_nodes(), SpillOpts(damaged_dir, 16));
  ASSERT_TRUE(healthy.SpillRange(rr, edges, 0, 64, 0).ok());
  ASSERT_TRUE(damaged.SpillRange(rr, edges, 0, 64, 0).ok());
  TruncateChunk(damaged, 32);

  // VisitRange delivers exactly the sets before the damaged chunk, then
  // stops at its first index with a named error.
  std::vector<uint64_t> delivered;
  uint64_t stopped = 0, visited = 0;
  const Status visit_status = damaged.VisitRange(
      0, 64, nullptr,
      [&](uint64_t index, std::span<const NodeId> set) {
        const auto expect = rr.Set(static_cast<RRSetId>(index));
        ASSERT_EQ(expect.size(), set.size()) << "set " << index;
        EXPECT_TRUE(std::equal(expect.begin(), expect.end(), set.begin()))
            << "set " << index;
        delivered.push_back(index);
      },
      &stopped, &visited);
  EXPECT_TRUE(visit_status.IsIOError()) << visit_status.ToString();
  EXPECT_NE(visit_status.message().find("chunk-32-"), std::string::npos)
      << visit_status.ToString();
  EXPECT_EQ(stopped, 32u);
  EXPECT_EQ(visited, 32u);
  std::vector<uint64_t> expect_delivered(32);
  for (uint64_t i = 0; i < 32; ++i) expect_delivered[i] = i;
  EXPECT_EQ(delivered, expect_delivered);

  // ReadRange over the damaged range (its first chunk loads fine) fails
  // and appends nothing.
  RRCollection out(g.num_nodes());
  std::vector<uint64_t> out_edges;
  const Status read_status = damaged.ReadRange(16, 32, &out, &out_edges);
  EXPECT_TRUE(read_status.IsIOError()) << read_status.ToString();
  EXPECT_EQ(out.num_sets(), 0u) << "failed read must not half-append";
  EXPECT_TRUE(out_edges.empty());

  // Streaming cover regenerates past the damaged chunk and picks the
  // same seeds as replay from the healthy store.
  const RRCollection no_cache(g.num_nodes());
  SamplingEngine healthy_engine(g, testing::IcSampling(kSeed));
  const StreamingCoverResult from_healthy =
      StreamingGreedyMaxCover(healthy_engine, no_cache, 0, 64, 4, &healthy);
  SamplingEngine damaged_engine(g, testing::IcSampling(kSeed));
  const StreamingCoverResult from_damaged =
      StreamingGreedyMaxCover(damaged_engine, no_cache, 0, 64, 4, &damaged);
  EXPECT_EQ(from_healthy.regeneration_passes, 0u);
  EXPECT_GT(from_damaged.regeneration_passes, 0u);
  EXPECT_EQ(from_damaged.cover.seeds, from_healthy.cover.seeds);
  EXPECT_EQ(from_damaged.cover.marginal_coverage,
            from_healthy.cover.marginal_coverage);
}

// ---- solver sweep: budgets × backends, spill on -----------------------

SampleBackendSpec Procs(unsigned workers) {
  SampleBackendSpec spec;
  spec.kind = SampleBackendKind::kProcessShards;
  spec.num_workers = workers;
  return spec;
}

SolverResult RunRegistry(const Graph& graph, const std::string& algo,
                         size_t memory_budget, const std::string& spill_dir,
                         const SampleBackendSpec& backend) {
  std::unique_ptr<InfluenceSolver> solver;
  Status s = SolverRegistry::Global().Create(algo, graph, &solver);
  EXPECT_TRUE(s.ok()) << s.ToString();
  SolverOptions options;
  options.k = 4;
  options.epsilon = 0.3;
  options.seed = 1234;
  options.memory_budget_bytes = memory_budget;
  options.spill_dir = spill_dir;
  options.ris_tau_scale = 0.05;
  options.ris_max_sets = 200000;
  options.sample_backend = backend;
  SolverResult result;
  s = solver->Run(options, &result);
  EXPECT_TRUE(s.ok()) << algo << ": " << s.ToString();
  return result;
}

TEST(SpillSolverSweepTest, BudgetedSpilledRunsAreBitIdenticalEverywhere) {
  const Graph graph = MakeWcPowerLaw(250, 3, 17);
  TempSpillDir dir;

  for (const char* algo : {"tim", "tim+", "imm", "ris"}) {
    SCOPED_TRACE(algo);
    // Ground truth: unbudgeted, local, no spill.
    const SolverResult baseline = RunRegistry(graph, algo, 0, "", {});
    // RIS reports no rr_data_bytes (its collection is transient under the
    // cost loop); a fixed basis still trips its budget at /8 and /2.
    const auto data_bytes = static_cast<size_t>(
        baseline.Metric("rr_data_bytes", 512.0 * 1024.0));
    ASSERT_GT(data_bytes, 0u);

    // tiny and mid budgets trip; ∞ (0) must leave the spill tier idle.
    for (size_t budget : {data_bytes / 8, data_bytes / 2, size_t{0}}) {
      SCOPED_TRACE(budget);
      for (bool procs : {false, true}) {
        SCOPED_TRACE(procs ? "procs:2" : "local");
        const SolverResult run = RunRegistry(
            graph, algo, budget, dir.path(),
            procs ? Procs(2) : SampleBackendSpec{});
        EXPECT_EQ(run.seeds, baseline.seeds);
        EXPECT_EQ(run.estimated_spread, baseline.estimated_spread);
        for (const auto& [name, value] : baseline.metrics) {
          if (name == "rr_memory_bytes" || name.rfind("seconds", 0) == 0 ||
              name == "hit_memory_budget" || name == "rr_sets_retained" ||
              name == "rr_data_bytes" || name == "regeneration_passes") {
            continue;  // legitimately budget-dependent
          }
          EXPECT_EQ(value, run.Metric(name, -1.0)) << name;
        }
        if (budget != 0 && run.Metric("hit_memory_budget") != 0.0) {
          // The whole point of the spill tier: replay beats regeneration.
          EXPECT_EQ(run.Metric("regeneration_passes"), 0.0);
          EXPECT_GT(run.Metric("rr_sets_spilled"), 0.0);
          EXPECT_GT(run.Metric("sets_spill_read"), 0.0);
          EXPECT_GT(run.Metric("spill_bytes_written"), 0.0);
        }
        if (budget == 0) {
          EXPECT_EQ(run.Metric("hit_memory_budget"), 0.0);
          EXPECT_EQ(run.Metric("rr_sets_spilled"), 0.0);
        }
      }
    }
  }
}

// ---- serving: evict-spill-preload -------------------------------------

TEST(ServingSpillTest, EvictedStreamPreloadsFromDiskBitIdentically) {
  const Graph graph = MakeWcPowerLaw(150, 3, 31);
  TempSpillDir dir;

  GraphContext context(Graph(graph),
                       ExecutionOptions{.spill_dir = dir.path()});
  StreamKey key;
  key.seed = 99;

  // Materialize a prefix, snapshot its bytes, evict it through a budget
  // far below its footprint (spilling on the way out).
  RRCollection first_read(graph.num_nodes());
  {
    std::shared_ptr<SharedRRCache> cache = context.AcquireStream(key);
    cache->Read(0, 600, &first_read);
    EXPECT_EQ(cache->total_sets_spill_loaded(), 0u);
    context.set_cache_budget_bytes(1);
    EXPECT_EQ(context.EnforceCacheBudget(), 1u);
  }
  EXPECT_EQ(context.NumStreams(), 0u);

  // Reacquiring the key rebuilds the stream FROM DISK: the preload
  // counter moves and the bytes match the first materialization.
  std::shared_ptr<SharedRRCache> reborn = context.AcquireStream(key);
  RRCollection second_read(graph.num_nodes());
  reborn->Read(0, 600, &second_read);
  EXPECT_EQ(reborn->total_sets_spill_loaded(), 600u)
      << "the evicted prefix should come back from the spill store";
  EXPECT_EQ(reborn->total_sets_sampled(), 0u);
  EXPECT_EQ(context.TotalSetsSpillLoaded(), 600u);
  ASSERT_EQ(second_read.num_sets(), first_read.num_sets());
  ExpectEqualSets(first_read, second_read, 0, 0, 600);

  // And growth past the spilled prefix continues seamlessly: fresh
  // samples start exactly where the disk image ends.
  RRCollection longer(graph.num_nodes());
  reborn->Read(0, 700, &longer);
  SamplingEngine reference(graph, testing::IcSampling(99));
  RRCollection expect(graph.num_nodes());
  reference.SampleInto(&expect, 700);
  ExpectEqualSets(expect, longer, 0, 0, 700);
}

TEST(ServingSpillTest, EngineWithSpillServesIdenticalResponses) {
  const Graph graph = MakeWcPowerLaw(150, 3, 37);

  ImRequest request;
  request.graph = "g";
  request.algo = "tim+";
  request.k = 4;
  request.epsilon = 0.3;
  request.seed = 7;

  // Reference: unconstrained engine, no spill.
  ServingOptions plain;
  ServingEngine reference(plain);
  ASSERT_TRUE(reference.RegisterGraph("g", Graph(graph)).ok());
  const ImResponse expected = reference.Solve(request);
  ASSERT_TRUE(expected.status.ok()) << expected.status.ToString();

  // Spill engine: a cache budget of one byte evicts (and spills) the
  // stream after every request, so the second request preloads from disk.
  TempSpillDir dir;
  ServingOptions options;
  options.shared_cache_budget_bytes = 1;
  options.spill_dir = dir.path();
  ServingEngine serving(options);
  ASSERT_TRUE(serving.RegisterGraph("g", Graph(graph)).ok());

  const ImResponse cold = serving.Solve(request);
  ASSERT_TRUE(cold.status.ok()) << cold.status.ToString();
  EXPECT_EQ(cold.result.seeds, expected.result.seeds);

  const ImResponse warm = serving.Solve(request);
  ASSERT_TRUE(warm.status.ok()) << warm.status.ToString();
  EXPECT_EQ(warm.result.seeds, expected.result.seeds);
  EXPECT_EQ(warm.result.estimated_spread, expected.result.estimated_spread);

  GraphContext* context = serving.Context("g");
  ASSERT_NE(context, nullptr);
  EXPECT_GT(context->TotalSetsSpillLoaded(), 0u)
      << "the warm request should restore the stream from disk";
}

}  // namespace
}  // namespace timpp
