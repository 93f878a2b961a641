// Tests of the engine layer: the SamplingEngine's deterministic merge
// contract (bit-identical output for any thread count), its batch and
// cost-threshold primitives, the ThreadPool underneath, and the
// InfluenceSolver registry round-trip.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "baselines/ris.h"
#include "core/imm.h"
#include "core/tim.h"
#include "engine/sampling_engine.h"
#include "engine/solver_registry.h"
#include "tests/test_util.h"
#include "util/thread_pool.h"

namespace timpp {
namespace {

using testing::IcSampling;
using testing::MakeTwoCommunities;

// ------------------------------------------------------------ ThreadPool --

TEST(ThreadPoolTest, RunsEveryTaskExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(100);
  for (auto& h : hits) h.store(0);
  pool.ParallelRun(100, [&](unsigned i) { hits[i].fetch_add(1); });
  for (unsigned i = 0; i < 100; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPoolTest, ReusableAcrossRounds) {
  ThreadPool pool(2);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> sum{0};
    pool.ParallelRun(8, [&](unsigned i) { sum.fetch_add(static_cast<int>(i)); });
    EXPECT_EQ(sum.load(), 28);
  }
}

TEST(ThreadPoolTest, ZeroWorkersRunsInline) {
  ThreadPool pool(0);
  int calls = 0;
  pool.ParallelRun(5, [&](unsigned) { ++calls; });
  EXPECT_EQ(calls, 5);
}

// -------------------------------------------------- SamplingEngine basics --

void ExpectSameCollections(const RRCollection& a, const RRCollection& b) {
  ASSERT_EQ(a.num_sets(), b.num_sets());
  ASSERT_EQ(a.total_nodes(), b.total_nodes());
  EXPECT_EQ(a.TotalWidth(), b.TotalWidth());
  for (size_t id = 0; id < a.num_sets(); ++id) {
    const auto sa = a.Set(static_cast<RRSetId>(id));
    const auto sb = b.Set(static_cast<RRSetId>(id));
    ASSERT_EQ(sa.size(), sb.size()) << "set " << id;
    for (size_t j = 0; j < sa.size(); ++j) {
      EXPECT_EQ(sa[j], sb[j]) << "set " << id << " pos " << j;
    }
    EXPECT_EQ(a.Width(static_cast<RRSetId>(id)),
              b.Width(static_cast<RRSetId>(id)))
        << "set " << id;
  }
}

TEST(SamplingEngineTest, SampleIntoIsThreadCountInvariant) {
  Graph g = MakeTwoCommunities(0.35f);
  RRCollection reference(g.num_nodes());
  SamplingEngine sequential(g, IcSampling(42, 1));
  const SampleBatch ref_batch = sequential.SampleInto(&reference, 5000);
  EXPECT_EQ(ref_batch.sets_added, 5000u);

  for (unsigned threads : {2u, 8u}) {
    RRCollection rr(g.num_nodes());
    SamplingEngine engine(g, IcSampling(42, threads));
    const SampleBatch batch = engine.SampleInto(&rr, 5000);
    EXPECT_EQ(batch.sets_added, 5000u);
    EXPECT_EQ(batch.edges_examined, ref_batch.edges_examined)
        << "threads=" << threads;
    EXPECT_EQ(batch.traversal_cost, ref_batch.traversal_cost)
        << "threads=" << threads;
    ExpectSameCollections(reference, rr);
  }
}

TEST(SamplingEngineTest, SkipModeIsThreadCountInvariant) {
  // The determinism contract is mode-independent: skip-mode traversal
  // draws a different RNG stream per set, but a set is still a pure
  // function of (seed, index), so shard merges stay bit-identical across
  // thread counts. Weighted-cascade graph so skip sampling really
  // engages (whole-list runs).
  Graph g = testing::MakeWcPowerLaw(300, 5, 3);

  SamplingConfig config = IcSampling(42, 1);
  config.sampler_mode = SamplerMode::kSkip;
  RRCollection reference(g.num_nodes());
  SamplingEngine sequential(g, config);
  sequential.SampleInto(&reference, 5000);

  for (unsigned threads : {2u, 8u}) {
    config.num_threads = threads;
    RRCollection rr(g.num_nodes());
    SamplingEngine engine(g, config);
    engine.SampleInto(&rr, 5000);
    ExpectSameCollections(reference, rr);
  }
}

TEST(SamplingEngineTest, SkipAndPerArcAgreeStatistically) {
  // Same engine seed, different modes: individual sets differ (different
  // RNG consumption) but the mean set size — an unbiased estimator of
  // E[I(v)]·n/… — must agree within MC error.
  Graph g = testing::MakeWcPowerLaw(300, 5, 3);

  double mean[2] = {0, 0};
  const SamplerMode modes[2] = {SamplerMode::kPerArc, SamplerMode::kSkip};
  const uint64_t count = 20000;
  for (int m = 0; m < 2; ++m) {
    SamplingConfig config = IcSampling(99, 1);
    config.sampler_mode = modes[m];
    RRCollection rr(g.num_nodes());
    SamplingEngine engine(g, config);
    engine.SampleInto(&rr, count);
    mean[m] = static_cast<double>(rr.total_nodes()) /
              static_cast<double>(rr.num_sets());
  }
  testing::ExpectClose(mean[0], mean[1], 0.05);
}

TEST(SamplingEngineTest, BatchSplitDoesNotChangeTheStream) {
  // Sampling 400 then 600 sets must produce the same collection as one
  // call of 1000: batches are windows onto one global index stream.
  Graph g = MakeTwoCommunities(0.35f);
  RRCollection one_call(g.num_nodes());
  SamplingEngine e1(g, IcSampling(7, 2));
  e1.SampleInto(&one_call, 1000);

  RRCollection two_calls(g.num_nodes());
  SamplingEngine e2(g, IcSampling(7, 2));
  e2.SampleInto(&two_calls, 400);
  e2.SampleInto(&two_calls, 600);

  ExpectSameCollections(one_call, two_calls);
  EXPECT_EQ(e1.sets_sampled(), e2.sets_sampled());
}

TEST(SamplingEngineTest, SampleUntilCostIsThreadCountInvariant) {
  Graph g = MakeTwoCommunities(0.35f);
  RRCollection reference(g.num_nodes());
  SamplingEngine sequential(g, IcSampling(11, 1));
  const SampleBatch ref_batch =
      sequential.SampleUntilCost(&reference, /*cost_threshold=*/20000.0);
  EXPECT_GE(ref_batch.traversal_cost, 20000u);

  for (unsigned threads : {2u, 8u}) {
    RRCollection rr(g.num_nodes());
    SamplingEngine engine(g, IcSampling(11, threads));
    const SampleBatch batch = engine.SampleUntilCost(&rr, 20000.0);
    EXPECT_EQ(batch.sets_added, ref_batch.sets_added)
        << "threads=" << threads;
    EXPECT_EQ(batch.traversal_cost, ref_batch.traversal_cost)
        << "threads=" << threads;
    ExpectSameCollections(reference, rr);
  }
}

TEST(SamplingEngineTest, SampleUntilCostHonorsSetCap) {
  Graph g = MakeTwoCommunities(0.35f);
  RRCollection rr(g.num_nodes());
  SamplingEngine engine(g, IcSampling(3, 2));
  const SampleBatch batch =
      engine.SampleUntilCost(&rr, /*cost_threshold=*/1e12, /*max_sets=*/123);
  EXPECT_TRUE(batch.hit_set_cap);
  EXPECT_EQ(batch.sets_added, 123u);
  EXPECT_EQ(rr.num_sets(), 123u);
}

TEST(SamplingEngineTest, MemoryBudgetStopsSampling) {
  Graph g = MakeTwoCommunities(0.35f);
  RRCollection rr(g.num_nodes());
  // Fits the first fixed-size batch but nowhere near the full request, so
  // sampling stops at a batch boundary with the flag set.
  rr.set_memory_budget(64 * 1024);
  SamplingEngine engine(g, IcSampling(5, 2));
  const SampleBatch batch = engine.SampleInto(&rr, 1 << 20);
  EXPECT_TRUE(batch.hit_memory_budget);
  EXPECT_LT(batch.sets_added, 1u << 20);
  EXPECT_GT(rr.num_sets(), 0u);
}

TEST(SamplingEngineTest, MemoryBudgetStopIsThreadCountInvariant) {
  // The budget check is content-based (DataBytes) and runs at fixed batch
  // boundaries, so the stop point must not depend on thread count even
  // though the sequential and parallel paths allocate differently.
  Graph g = MakeTwoCommunities(0.35f);
  RRCollection reference(g.num_nodes());
  reference.set_memory_budget(200 * 1024);
  SamplingEngine sequential(g, IcSampling(21, 1));
  const SampleBatch ref_batch = sequential.SampleInto(&reference, 1 << 20);
  ASSERT_TRUE(ref_batch.hit_memory_budget);

  for (unsigned threads : {2u, 8u}) {
    RRCollection rr(g.num_nodes());
    rr.set_memory_budget(200 * 1024);
    SamplingEngine engine(g, IcSampling(21, threads));
    const SampleBatch batch = engine.SampleInto(&rr, 1 << 20);
    EXPECT_TRUE(batch.hit_memory_budget) << "threads=" << threads;
    EXPECT_EQ(ref_batch.sets_added, batch.sets_added)
        << "threads=" << threads;
    ExpectSameCollections(reference, rr);
  }
}

TEST(SamplingEngineTest, PerSetEdgesMatchAggregateAcrossThreads) {
  // The per-set edge counts (consumed by the serving layer's shared cache
  // for replay-exact accounting) must sum to the aggregate and be
  // identical however many workers chunked the fill.
  Graph g = MakeTwoCommunities(0.35f);
  std::vector<uint64_t> reference_edges;
  RRCollection reference(g.num_nodes());
  SamplingEngine sequential(g, IcSampling(42, 1));
  const SampleBatch ref_batch =
      sequential.SampleInto(&reference, 5000, &reference_edges);
  ASSERT_EQ(reference_edges.size(), 5000u);
  uint64_t sum = 0;
  for (uint64_t e : reference_edges) sum += e;
  EXPECT_EQ(sum, ref_batch.edges_examined);

  for (unsigned threads : {2u, 8u}) {
    std::vector<uint64_t> edges;
    RRCollection rr(g.num_nodes());
    SamplingEngine engine(g, IcSampling(42, threads));
    engine.SampleInto(&rr, 5000, &edges);
    EXPECT_EQ(reference_edges, edges) << "threads=" << threads;
  }
}

TEST(SamplingEngineTest, ChunkedFillHandlesAwkwardCounts) {
  // Counts around the chunk-claim granularity (1, chunk-1, chunk,
  // chunk+1, several chunks + remainder) must all merge back in index
  // order. Guards the dynamic work-splitting bookkeeping.
  Graph g = MakeTwoCommunities(0.35f);
  for (uint64_t count : {1u, 63u, 64u, 65u, 1000u}) {
    RRCollection reference(g.num_nodes());
    SamplingEngine sequential(g, IcSampling(17, 1));
    sequential.SampleInto(&reference, count);

    RRCollection rr(g.num_nodes());
    SamplingEngine engine(g, IcSampling(17, 8));
    engine.SampleInto(&rr, count);
    ExpectSameCollections(reference, rr);
  }
}

TEST(SamplingEngineTest, RepeatedBatchesGrowTheCollectionGeometrically) {
  // Every backing array must grow geometrically under repeated appends:
  // an exact reserve per batch reallocates, and copies, the whole
  // collection on every call, which makes a θ-set fill quadratic.
  Graph g = MakeTwoCommunities(0.35f);
  constexpr int kBatches = 64;
  constexpr uint64_t kBatchSets = 8192;  // the engine's batch size
  for (unsigned threads : {1u, 4u}) {
    RRCollection rr(g.num_nodes());
    SamplingEngine engine(g, IcSampling(5, threads));
    int capacity_changes = 0;
    for (int b = 0; b < kBatches; ++b) {
      const size_t before = rr.MemoryBytes();
      engine.SampleInto(&rr, kBatchSets);
      if (rr.MemoryBytes() != before) ++capacity_changes;
    }
    EXPECT_EQ(rr.num_sets(), kBatches * kBatchSets);
    // Three arrays, each doubling about log2(64) + 1 = 7 times.
    EXPECT_LE(capacity_changes, 21) << "threads=" << threads;
  }
}

TEST(RRCollectionTest, AppendRangeMatchesPerSetAdd) {
  Graph g = MakeTwoCommunities(0.35f);
  RRCollection source(g.num_nodes());
  SamplingEngine engine(g, IcSampling(23, 1));
  engine.SampleInto(&source, 100);

  RRCollection ranged(g.num_nodes());
  ranged.AppendRange(source, 10, 40);
  RRCollection manual(g.num_nodes());
  for (size_t id = 10; id < 50; ++id) {
    manual.Add(source.Set(static_cast<RRSetId>(id)),
               source.Width(static_cast<RRSetId>(id)));
  }
  ExpectSameCollections(manual, ranged);

  // Clamped past the end and empty ranges are no-ops past the data.
  RRCollection clamped(g.num_nodes());
  clamped.AppendRange(source, 95, 100);
  EXPECT_EQ(clamped.num_sets(), 5u);
  clamped.AppendRange(source, 500, 10);
  EXPECT_EQ(clamped.num_sets(), 5u);
}

TEST(RRCollectionTest, AppendShardMatchesPerSetAdd) {
  Graph g = MakeTwoCommunities(0.35f);
  RRCollection shard(g.num_nodes());
  SamplingEngine engine(g, IcSampling(17, 1));
  engine.SampleInto(&shard, 50);

  RRCollection bulk(g.num_nodes());
  bulk.AppendShard(shard);
  RRCollection manual(g.num_nodes());
  for (size_t id = 0; id < shard.num_sets(); ++id) {
    manual.Add(shard.Set(static_cast<RRSetId>(id)),
               shard.Width(static_cast<RRSetId>(id)));
  }
  ExpectSameCollections(manual, bulk);
}

TEST(RRCollectionTest, AppendPackedMatchesPerSetAdd) {
  Graph g = MakeTwoCommunities(0.35f);
  RRCollection source(g.num_nodes());
  SamplingEngine engine(g, IcSampling(29, 1));
  engine.SampleInto(&source, 60);

  std::vector<NodeId> nodes;
  std::vector<uint64_t> sizes;
  std::vector<uint64_t> widths;
  for (size_t id = 0; id < source.num_sets(); ++id) {
    const auto set = source.Set(static_cast<RRSetId>(id));
    nodes.insert(nodes.end(), set.begin(), set.end());
    sizes.push_back(set.size());
    widths.push_back(source.Width(static_cast<RRSetId>(id)));
  }
  // Appended after a per-set prefix, so the offsets must continue it.
  RRCollection packed(g.num_nodes());
  packed.Add(source.Set(0), source.Width(0));
  packed.AppendPacked(nodes, sizes, widths);
  RRCollection manual(g.num_nodes());
  manual.Add(source.Set(0), source.Width(0));
  manual.AppendShard(source);
  ExpectSameCollections(manual, packed);
}

// --------------------------------------- solver thread-count determinism --

TEST(SolverDeterminismTest, TimAndTimPlusInvariantAcrossThreads) {
  Graph g = MakeTwoCommunities(0.35f);
  for (bool refine : {false, true}) {
    TimOptions options;
    options.k = 3;
    options.epsilon = 0.3;
    options.seed = 99;
    options.use_refinement = refine;

    TimSolver solver(g);
    options.num_threads = 1;
    TimResult reference;
    ASSERT_TRUE(solver.Run(options, &reference).ok());

    for (unsigned threads : {2u, 8u}) {
      options.num_threads = threads;
      TimResult result;
      ASSERT_TRUE(solver.Run(options, &result).ok());
      EXPECT_EQ(reference.seeds, result.seeds)
          << (refine ? "tim+" : "tim") << " threads=" << threads;
      EXPECT_DOUBLE_EQ(reference.stats.kpt_star, result.stats.kpt_star);
      EXPECT_DOUBLE_EQ(reference.stats.kpt_plus, result.stats.kpt_plus);
      EXPECT_EQ(reference.stats.theta, result.stats.theta);
      EXPECT_DOUBLE_EQ(reference.stats.estimated_spread,
                       result.stats.estimated_spread);
      EXPECT_EQ(reference.stats.edges_examined, result.stats.edges_examined);
    }
  }
}

TEST(SolverDeterminismTest, ImmInvariantAcrossThreads) {
  Graph g = MakeTwoCommunities(0.35f);
  ImmOptions options;
  options.k = 3;
  options.epsilon = 0.3;
  options.seed = 77;

  options.num_threads = 1;
  ImmResult reference;
  ASSERT_TRUE(RunImm(g, options, &reference).ok());

  for (unsigned threads : {2u, 8u}) {
    options.num_threads = threads;
    ImmResult result;
    ASSERT_TRUE(RunImm(g, options, &result).ok());
    EXPECT_EQ(reference.seeds, result.seeds) << "threads=" << threads;
    EXPECT_EQ(reference.stats.theta, result.stats.theta);
    EXPECT_DOUBLE_EQ(reference.stats.lb, result.stats.lb);
    EXPECT_EQ(reference.stats.rr_sets_sampling,
              result.stats.rr_sets_sampling);
    EXPECT_DOUBLE_EQ(reference.stats.estimated_spread,
                     result.stats.estimated_spread);
  }
}

TEST(SolverDeterminismTest, RisInvariantAcrossThreads) {
  Graph g = MakeTwoCommunities(0.35f);
  RisOptions options;
  options.epsilon = 0.3;
  options.tau_scale = 0.05;
  options.seed = 55;

  options.num_threads = 1;
  std::vector<NodeId> reference;
  RisStats ref_stats;
  ASSERT_TRUE(RunRis(g, options, 3, &reference, &ref_stats).ok());

  for (unsigned threads : {2u, 8u}) {
    options.num_threads = threads;
    std::vector<NodeId> seeds;
    RisStats stats;
    ASSERT_TRUE(RunRis(g, options, 3, &seeds, &stats).ok());
    EXPECT_EQ(reference, seeds) << "threads=" << threads;
    EXPECT_EQ(ref_stats.rr_sets_generated, stats.rr_sets_generated);
    EXPECT_EQ(ref_stats.cost_examined, stats.cost_examined);
    EXPECT_DOUBLE_EQ(ref_stats.covered_fraction, stats.covered_fraction);
  }
}

TEST(SolverDeterminismTest, SkipModeSeedQualityMatchesPerArc) {
  // Acceptance check for geometric skip sampling: on a weighted-cascade
  // scale-free graph the covered fraction (the solver's own quality
  // estimate of its seeds, Corollary 1) must be statistically
  // indistinguishable between modes, for both TIM+ and IMM. Modes draw
  // different RNG streams, so seeds may differ — quality must not.
  Graph g = testing::MakeWcPowerLaw(400, 6, 123);
  const double n = static_cast<double>(g.num_nodes());

  double tim_spread[2] = {0, 0};
  double imm_spread[2] = {0, 0};
  const SamplerMode modes[2] = {SamplerMode::kPerArc, SamplerMode::kSkip};
  for (int m = 0; m < 2; ++m) {
    TimOptions tim;
    tim.k = 10;
    tim.epsilon = 0.3;
    tim.seed = 2024;
    tim.sampler_mode = modes[m];
    TimResult tim_result;
    ASSERT_TRUE(TimSolver(g).Run(tim, &tim_result).ok());
    tim_spread[m] = tim_result.stats.estimated_spread;

    ImmOptions imm;
    imm.k = 10;
    imm.epsilon = 0.3;
    imm.seed = 2024;
    imm.sampler_mode = modes[m];
    ImmResult imm_result;
    ASSERT_TRUE(RunImm(g, imm, &imm_result).ok());
    imm_spread[m] = imm_result.stats.estimated_spread;
  }
  // Both modes find near-equivalent seed sets; 5% of n absorbs the MC
  // spread-estimation noise at these θ values with margin.
  EXPECT_NEAR(tim_spread[0], tim_spread[1], 0.05 * n)
      << "per-arc=" << tim_spread[0] << " skip=" << tim_spread[1];
  EXPECT_NEAR(imm_spread[0], imm_spread[1], 0.05 * n)
      << "per-arc=" << imm_spread[0] << " skip=" << imm_spread[1];
}

// ---------------------------------------------------------- registry ----

TEST(SolverRegistryTest, UnknownNameIsNotFound) {
  Graph g = MakeTwoCommunities(0.3f);
  std::unique_ptr<InfluenceSolver> solver;
  Status s = SolverRegistry::Global().Create("no-such-algo", g, &solver);
  EXPECT_TRUE(s.IsNotFound());
}

TEST(SolverRegistryTest, DuplicateRegistrationRejected) {
  SolverRegistry registry;
  auto factory = [](const Graph& graph) {
    std::unique_ptr<InfluenceSolver> solver;
    Status s = SolverRegistry::Global().Create("degree", graph, &solver);
    EXPECT_TRUE(s.ok());
    return solver;
  };
  EXPECT_TRUE(registry.Register("x", factory).ok());
  EXPECT_TRUE(registry.Register("x", factory).IsInvalidArgument());
}

TEST(SolverRegistryTest, BuiltinsArePresent) {
  const std::vector<std::string> names = SolverRegistry::Global().Names();
  for (const char* expected :
       {"tim", "tim+", "imm", "ris", "greedy", "celf", "celf++", "irie",
        "simpath", "degree", "single-discount", "degree-discount",
        "pagerank", "kcore", "random"}) {
    EXPECT_TRUE(SolverRegistry::Global().Contains(expected)) << expected;
  }
  EXPECT_GE(names.size(), 15u);
}

TEST(SolverRegistryTest, EveryRegisteredSolverRoundTrips) {
  // Each registered algorithm must run on a small graph through the
  // uniform interface and return k distinct in-range seeds.
  Graph g = MakeTwoCommunities(0.3f);
  SolverOptions options;
  options.k = 2;
  options.epsilon = 0.4;
  options.seed = 13;
  options.num_threads = 2;
  options.mc_samples = 100;      // keep the greedy family fast
  options.ris_tau_scale = 0.05;  // keep RIS small
  options.ris_max_sets = 20000;

  for (const std::string& name : SolverRegistry::Global().Names()) {
    std::unique_ptr<InfluenceSolver> solver;
    ASSERT_TRUE(SolverRegistry::Global().Create(name, g, &solver).ok())
        << name;
    EXPECT_EQ(solver->name(), name);

    SolverResult result;
    Status s = solver->Run(options, &result);
    ASSERT_TRUE(s.ok()) << name << ": " << s.ToString();
    EXPECT_EQ(result.seeds.size(), 2u) << name;
    std::set<NodeId> distinct(result.seeds.begin(), result.seeds.end());
    EXPECT_EQ(distinct.size(), 2u) << name;
    for (NodeId seed : result.seeds) EXPECT_LT(seed, g.num_nodes()) << name;
    EXPECT_GE(result.seconds_total, 0.0) << name;
  }
}

TEST(SolverRegistryTest, RegistryRunMatchesNativeRun) {
  // The wrapper must be a faithful adapter: same options ⇒ same seeds as
  // calling the native API directly.
  Graph g = MakeTwoCommunities(0.35f);
  SolverOptions options;
  options.k = 2;
  options.epsilon = 0.3;
  options.seed = 21;
  options.num_threads = 2;

  std::unique_ptr<InfluenceSolver> solver;
  ASSERT_TRUE(SolverRegistry::Global().Create("tim+", g, &solver).ok());
  SolverResult via_registry;
  ASSERT_TRUE(solver->Run(options, &via_registry).ok());

  TimOptions tim;
  tim.k = 2;
  tim.epsilon = 0.3;
  tim.seed = 21;
  tim.num_threads = 2;
  TimResult native;
  ASSERT_TRUE(TimSolver(g).Run(tim, &native).ok());

  EXPECT_EQ(native.seeds, via_registry.seeds);
  EXPECT_DOUBLE_EQ(native.stats.estimated_spread,
                   via_registry.estimated_spread);
  EXPECT_EQ(static_cast<double>(native.stats.theta),
            via_registry.Metric("theta"));
}

}  // namespace
}  // namespace timpp
