// Tests of the request-serving layer: batch results must be bit-identical
// to standalone solver runs while sampling strictly fewer RR sets (the
// cross-request reuse contract), deterministic across thread counts and
// submission patterns, and the KPT/LB phase cache must hit only on exact
// key matches (sampler mode / model changes are different streams).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "engine/phase_cache.h"
#include "engine/solver_registry.h"
#include "serving/graph_context.h"
#include "serving/rr_cache.h"
#include "serving/serving_engine.h"
#include "tests/test_util.h"

namespace timpp {
namespace {

using testing::IcSampling;
using testing::MakeTwoCommunities;
using testing::MakeWcPowerLaw;

// Runs `request` through a fresh standalone registry solver on `graph`
// (same thread count as the serving engine under test) and returns the
// result.
SolverResult SolveStandalone(const Graph& graph, const ImRequest& request,
                             unsigned num_threads) {
  std::unique_ptr<InfluenceSolver> solver;
  Status s = SolverRegistry::Global().Create(request.algo, graph, &solver);
  EXPECT_TRUE(s.ok()) << s.ToString();
  SolverOptions options;
  options.k = request.k;
  options.epsilon = request.epsilon;
  options.ell = request.ell;
  options.model = request.model;
  options.sampler_mode = request.sampler_mode;
  options.max_hops = request.max_hops;
  options.seed = request.seed;
  options.memory_budget_bytes = request.memory_budget_bytes;
  options.mc_samples = request.mc_samples;
  options.ris_tau_scale = request.ris_tau_scale;
  options.ris_max_sets = request.ris_max_sets;
  options.num_threads = num_threads;
  SolverResult result;
  s = solver->Run(options, &result);
  EXPECT_TRUE(s.ok()) << request.algo << ": " << s.ToString();
  return result;
}

// The mixed workload used across these tests: same graph/seed, varying
// algorithm, k and ε — the shape a production queue would have.
std::vector<ImRequest> MixedBatch(const std::string& graph) {
  std::vector<ImRequest> requests;
  const auto add = [&](const std::string& algo, int k, double eps) {
    ImRequest r;
    r.graph = graph;
    r.algo = algo;
    r.k = k;
    r.epsilon = eps;
    r.seed = 2024;
    requests.push_back(r);
  };
  add("tim+", 3, 0.4);
  add("tim+", 3, 0.3);  // same KPT key, larger θ: pure prefix extension
  add("tim", 2, 0.4);
  add("imm", 3, 0.4);
  add("imm", 3, 0.4);  // exact repeat: full LB-cache hit
  requests.push_back([&] {
    ImRequest r;
    r.graph = graph;
    r.algo = "ris";
    r.k = 2;
    r.epsilon = 0.5;
    r.seed = 2024;
    r.ris_tau_scale = 0.05;
    r.ris_max_sets = 50000;
    return r;
  }());
  return requests;
}

// ------------------------------------------- batch vs standalone ---------

TEST(ServingEngineTest, BatchIsBitIdenticalToStandaloneAndSamplesLess) {
  Graph g = MakeWcPowerLaw(250, 4, 77);
  ServingEngine serving(ServingOptions{{.num_threads = 2}});
  ASSERT_TRUE(serving.RegisterGraph("g", g).ok());

  const std::vector<ImRequest> requests = MixedBatch("g");
  const std::vector<ImResponse> responses = serving.SolveBatch(requests);
  ASSERT_EQ(responses.size(), requests.size());

  uint64_t total_reused = 0;
  uint64_t total_sampled = 0;
  uint64_t total_served = 0;
  for (size_t i = 0; i < requests.size(); ++i) {
    ASSERT_TRUE(responses[i].status.ok())
        << requests[i].algo << ": " << responses[i].status.ToString();
    const SolverResult standalone =
        SolveStandalone(g, requests[i], /*num_threads=*/2);
    // The acceptance bar: bit-identical seeds plus the per-request scale
    // parameters (θ, LB, KPT) a standalone run derives.
    EXPECT_EQ(standalone.seeds, responses[i].result.seeds)
        << "request " << i << " (" << requests[i].algo << ")";
    EXPECT_DOUBLE_EQ(standalone.estimated_spread,
                     responses[i].result.estimated_spread)
        << "request " << i;
    for (const char* metric :
         {"theta", "lb", "kpt_star", "kpt_plus", "rr_sets_kpt",
          "rr_sets_sampling", "rr_sets_generated", "cost_examined",
          "edges_examined"}) {
      EXPECT_DOUBLE_EQ(standalone.Metric(metric),
                       responses[i].result.Metric(metric))
          << "request " << i << " metric " << metric;
    }
    total_reused += responses[i].rr_sets_reused;
    total_sampled += responses[i].rr_sets_sampled;
    total_served +=
        responses[i].rr_sets_reused + responses[i].rr_sets_sampled;
  }

  // Reuse must actually have happened: a standalone execution of the
  // batch samples every served set itself, the context samples only the
  // longest needed prefix once.
  EXPECT_GT(total_reused, 0u);
  EXPECT_LT(total_sampled, total_served);

  GraphContext* context = serving.Context("g");
  ASSERT_NE(context, nullptr);
  EXPECT_EQ(context->TotalSetsReused(), total_reused);
  EXPECT_LT(context->TotalSetsSampled(), context->TotalSetsServed());
  EXPECT_GT(context->SharedMemoryBytes(), 0u);
  // Everything here shares one (model, sampler, seed) stream.
  EXPECT_EQ(context->NumStreams(), 1u);
}

TEST(ServingEngineTest, ExactRepeatSamplesNothingNew) {
  Graph g = MakeTwoCommunities(0.35f);
  ServingEngine serving(ServingOptions{{.num_threads = 1}});
  ASSERT_TRUE(serving.RegisterGraph("g", g).ok());

  ImRequest request;
  request.graph = "g";
  request.algo = "tim+";
  request.k = 3;
  request.epsilon = 0.3;
  request.seed = 99;

  const ImResponse first = serving.Solve(request);
  ASSERT_TRUE(first.status.ok()) << first.status.ToString();
  EXPECT_FALSE(first.phase_cache_hit);
  EXPECT_GT(first.rr_sets_sampled, 0u);

  const ImResponse second = serving.Solve(request);
  ASSERT_TRUE(second.status.ok());
  EXPECT_TRUE(second.phase_cache_hit);
  EXPECT_EQ(second.rr_sets_sampled, 0u) << "a repeat consumes only cache";
  EXPECT_GT(second.rr_sets_reused, 0u);
  EXPECT_EQ(first.result.seeds, second.result.seeds);
  EXPECT_DOUBLE_EQ(first.result.Metric("theta"),
                   second.result.Metric("theta"));
  EXPECT_EQ(second.result.Metric("kpt_cache_hit"), 1.0);
}

// ------------------------------------------- determinism ----------------

TEST(ServingEngineTest, BatchDeterministicAcrossThreadCounts) {
  Graph g = MakeWcPowerLaw(200, 4, 31);
  const std::vector<ImRequest> requests = MixedBatch("g");

  std::vector<ImResponse> reference;
  for (unsigned threads : {1u, 2u, 8u}) {
    ServingEngine serving(ServingOptions{{.num_threads = threads}});
    ASSERT_TRUE(serving.RegisterGraph("g", g).ok());
    std::vector<ImResponse> responses = serving.SolveBatch(requests);
    if (threads == 1) {
      reference = std::move(responses);
      continue;
    }
    ASSERT_EQ(responses.size(), reference.size());
    for (size_t i = 0; i < responses.size(); ++i) {
      ASSERT_TRUE(responses[i].status.ok());
      EXPECT_EQ(reference[i].result.seeds, responses[i].result.seeds)
          << "threads=" << threads << " request " << i;
      EXPECT_DOUBLE_EQ(reference[i].result.Metric("theta"),
                       responses[i].result.Metric("theta"));
      EXPECT_DOUBLE_EQ(reference[i].result.Metric("lb"),
                       responses[i].result.Metric("lb"));
      // Reuse accounting is part of the determinism contract too: the
      // cache is a monotone prefix, so who-sampled-what is fixed by the
      // request order, not by parallelism.
      EXPECT_EQ(reference[i].rr_sets_reused, responses[i].rr_sets_reused)
          << "threads=" << threads << " request " << i;
      EXPECT_EQ(reference[i].rr_sets_sampled, responses[i].rr_sets_sampled)
          << "threads=" << threads << " request " << i;
    }
  }
}

TEST(ServingEngineTest, SubmissionPatternDoesNotChangeResults) {
  // One-by-one Solve calls and one SolveBatch must produce identical
  // responses: the cache is a monotone stream prefix, so the grouping of
  // submissions is invisible to results.
  Graph g = MakeTwoCommunities(0.35f);
  const std::vector<ImRequest> requests = MixedBatch("g");

  ServingEngine batched(ServingOptions{{.num_threads = 2}});
  ASSERT_TRUE(batched.RegisterGraph("g", g).ok());
  const std::vector<ImResponse> batch = batched.SolveBatch(requests);

  ServingEngine single(ServingOptions{{.num_threads = 2}});
  ASSERT_TRUE(single.RegisterGraph("g", g).ok());
  for (size_t i = 0; i < requests.size(); ++i) {
    const ImResponse response = single.Solve(requests[i]);
    ASSERT_TRUE(response.status.ok());
    EXPECT_EQ(batch[i].result.seeds, response.result.seeds) << i;
    EXPECT_EQ(batch[i].rr_sets_reused, response.rr_sets_reused) << i;
    EXPECT_EQ(batch[i].rr_sets_sampled, response.rr_sets_sampled) << i;
  }
}

// ------------------------------------------- phase-cache keying ----------

TEST(ServingEngineTest, PhaseCacheMissesWhenSamplerModeOrModelChanges) {
  Graph g = MakeWcPowerLaw(200, 4, 55);
  ServingEngine serving(ServingOptions{{.num_threads = 2}});
  ASSERT_TRUE(serving.RegisterGraph("g", g).ok());

  ImRequest request;
  request.graph = "g";
  request.algo = "tim+";
  request.k = 3;
  request.epsilon = 0.4;
  request.seed = 11;
  request.sampler_mode = SamplerMode::kPerArc;

  const ImResponse perarc = serving.Solve(request);
  ASSERT_TRUE(perarc.status.ok());
  EXPECT_FALSE(perarc.phase_cache_hit);
  EXPECT_TRUE(serving.Solve(request).phase_cache_hit) << "warm repeat";

  // Different sampler mode: a different RR stream — the memo must miss,
  // and the result must match ITS standalone run, not the per-arc one.
  request.sampler_mode = SamplerMode::kSkip;
  const ImResponse skip = serving.Solve(request);
  ASSERT_TRUE(skip.status.ok());
  EXPECT_FALSE(skip.phase_cache_hit)
      << "sampler-mode change must invalidate the KPT memo";
  EXPECT_EQ(SolveStandalone(g, request, 2).seeds, skip.result.seeds);

  // Different diffusion model: same story.
  request.sampler_mode = SamplerMode::kPerArc;
  request.model = DiffusionModel::kLT;
  const ImResponse lt = serving.Solve(request);
  ASSERT_TRUE(lt.status.ok());
  EXPECT_FALSE(lt.phase_cache_hit)
      << "model change must invalidate the KPT memo";
  EXPECT_EQ(SolveStandalone(g, request, 2).seeds, lt.result.seeds);

  GraphContext* context = serving.Context("g");
  ASSERT_NE(context, nullptr);
  EXPECT_EQ(context->NumStreams(), 3u)
      << "per-arc IC, skip IC and per-arc LT are three distinct streams";
}

// ------------------------------------------- edges of the surface --------

TEST(ServingEngineTest, BudgetedRequestRunsStandaloneButMatches) {
  Graph g = MakeWcPowerLaw(200, 4, 13);
  ServingEngine serving(ServingOptions{{.num_threads = 2}});
  ASSERT_TRUE(serving.RegisterGraph("g", g).ok());

  ImRequest request;
  request.graph = "g";
  request.algo = "tim+";
  request.k = 3;
  request.epsilon = 0.4;
  request.seed = 5;

  const ImResponse unbudgeted = serving.Solve(request);
  ASSERT_TRUE(unbudgeted.status.ok());

  request.memory_budget_bytes = 16 * 1024;
  const ImResponse budgeted = serving.Solve(request);
  ASSERT_TRUE(budgeted.status.ok());
  // No shared-collection participation...
  EXPECT_EQ(budgeted.rr_sets_reused, 0u);
  EXPECT_EQ(budgeted.rr_sets_sampled, 0u);
  EXPECT_FALSE(budgeted.phase_cache_hit);
  // ...but the same seeds (budgeted selection is bit-identical).
  EXPECT_EQ(unbudgeted.result.seeds, budgeted.result.seeds);
}

TEST(ServingEngineTest, NonRrSolversPassThrough) {
  Graph g = MakeTwoCommunities(0.3f);
  ServingEngine serving;
  ASSERT_TRUE(serving.RegisterGraph("g", g).ok());

  ImRequest request;
  request.graph = "g";
  request.algo = "degree";
  request.k = 2;
  const ImResponse response = serving.Solve(request);
  ASSERT_TRUE(response.status.ok());
  EXPECT_EQ(response.result.seeds.size(), 2u);
  EXPECT_EQ(response.rr_sets_reused, 0u);
  EXPECT_EQ(response.rr_sets_sampled, 0u);

  GraphContext* context = serving.Context("g");
  ASSERT_NE(context, nullptr);
  EXPECT_EQ(context->NumStreams(), 0u)
      << "heuristics must not force stream caches into existence";
}

TEST(ServingEngineTest, UnknownGraphAndAlgoAreNotFound) {
  Graph g = MakeTwoCommunities(0.3f);
  ServingEngine serving;
  ASSERT_TRUE(serving.RegisterGraph("g", g).ok());
  EXPECT_TRUE(serving.RegisterGraph("g", g).IsInvalidArgument());

  ImRequest request;
  request.graph = "nope";
  EXPECT_TRUE(serving.Solve(request).status.IsNotFound());

  request.graph = "g";
  request.algo = "no-such-algo";
  EXPECT_TRUE(serving.Solve(request).status.IsNotFound());
}

TEST(ServingEngineTest, MultiGraphBatchKeepsRequestOrder) {
  Graph a = MakeTwoCommunities(0.35f);
  Graph b = MakeWcPowerLaw(150, 3, 8);
  ServingEngine serving(ServingOptions{{.num_threads = 2}});
  ASSERT_TRUE(serving.RegisterGraph("a", a).ok());
  ASSERT_TRUE(serving.RegisterGraph("b", b).ok());

  std::vector<ImRequest> requests;
  for (const char* graph : {"a", "b", "a", "b"}) {
    ImRequest r;
    r.graph = graph;
    r.algo = "tim+";
    r.k = 2;
    r.epsilon = 0.4;
    r.seed = 3;
    requests.push_back(r);
  }
  const std::vector<ImResponse> responses = serving.SolveBatch(requests);
  ASSERT_EQ(responses.size(), 4u);
  for (size_t i = 0; i < responses.size(); ++i) {
    ASSERT_TRUE(responses[i].status.ok()) << i;
    const Graph& graph = requests[i].graph == "a" ? a : b;
    EXPECT_EQ(SolveStandalone(graph, requests[i], 2).seeds,
              responses[i].result.seeds)
        << i;
  }
  // Same graph + options ⇒ the repeat requests were pure cache reads.
  EXPECT_EQ(responses[2].rr_sets_sampled, 0u);
  EXPECT_EQ(responses[3].rr_sets_sampled, 0u);
}

// ------------------------------------------- cache-layer units ----------

TEST(SharedRRCacheTest, ReadsAreByteIdenticalToAFreshEngine) {
  Graph g = MakeTwoCommunities(0.35f);
  SharedRRCache cache(g, IcSampling(42, 2));

  // Interleaved, overlapping reads...
  RRCollection first(g.num_nodes());
  cache.Read(0, 300, &first);
  RRCollection again(g.num_nodes());
  cache.Read(100, 500, &again);
  EXPECT_EQ(cache.total_sets_reused(), 200u);
  EXPECT_EQ(cache.cached_sets(), 600u);

  // ...must reproduce the standalone stream exactly.
  RRCollection reference(g.num_nodes());
  SamplingEngine engine(g, IcSampling(42, 1));
  engine.SampleInto(&reference, 600);
  ASSERT_EQ(first.num_sets(), 300u);
  for (size_t id = 0; id < first.num_sets(); ++id) {
    const auto got = first.Set(static_cast<RRSetId>(id));
    const auto want = reference.Set(static_cast<RRSetId>(id));
    ASSERT_EQ(got.size(), want.size()) << id;
    for (size_t j = 0; j < got.size(); ++j) EXPECT_EQ(got[j], want[j]);
  }
  for (size_t id = 0; id < again.num_sets(); ++id) {
    const auto got = again.Set(static_cast<RRSetId>(id));
    const auto want = reference.Set(static_cast<RRSetId>(100 + id));
    ASSERT_EQ(got.size(), want.size()) << id;
    for (size_t j = 0; j < got.size(); ++j) EXPECT_EQ(got[j], want[j]);
  }
}

// ------------------------------------------- cache eviction -------------

TEST(ServingEngineTest, ByteCappedContextReturnsBitIdenticalResults) {
  Graph g = MakeWcPowerLaw(250, 4, 77);
  Graph g2 = MakeWcPowerLaw(250, 4, 77);

  // Uncapped reference run.
  ServingEngine reference(ServingOptions{{.num_threads = 2}});
  ASSERT_TRUE(reference.RegisterGraph("g", std::move(g)).ok());
  // A batch whose requests use two different seeds = two streams, so LRU
  // eviction across streams has something to choose between.
  std::vector<ImRequest> requests = MixedBatch("g");
  for (size_t i = 0; i + 1 < requests.size(); i += 2) {
    requests[i].seed = 4242;
  }
  const std::vector<ImResponse> uncapped = reference.SolveBatch(requests);

  // Capped engine: a budget small enough that whole streams must be
  // evicted between requests.
  ServingOptions capped_options;
  capped_options.num_threads = 2;
  capped_options.shared_cache_budget_bytes = 256 * 1024;
  ServingEngine capped(capped_options);
  ASSERT_TRUE(capped.RegisterGraph("g", std::move(g2)).ok());
  const std::vector<ImResponse> capped_responses = capped.SolveBatch(requests);

  ASSERT_EQ(uncapped.size(), capped_responses.size());
  for (size_t i = 0; i < uncapped.size(); ++i) {
    ASSERT_TRUE(capped_responses[i].status.ok())
        << capped_responses[i].status.ToString();
    EXPECT_EQ(uncapped[i].result.seeds, capped_responses[i].result.seeds)
        << i;
    EXPECT_DOUBLE_EQ(uncapped[i].result.Metric("theta"),
                     capped_responses[i].result.Metric("theta"))
        << i;
  }

  GraphContext* context = capped.Context("g");
  ASSERT_NE(context, nullptr);
  EXPECT_LE(context->SharedMemoryBytes(), capped_options.shared_cache_budget_bytes);
  EXPECT_GT(context->StreamsEvicted(), 0u)
      << "budget was too large to exercise eviction";
  // Lifetime accounting survives evictions.
  GraphContext* uncapped_context = reference.Context("g");
  EXPECT_EQ(context->TotalSetsServed(), uncapped_context->TotalSetsServed());
}

TEST(GraphContextTest, LruEvictsTheStaleStreamFirst) {
  GraphContext context(MakeTwoCommunities(0.35f));

  StreamKey old_key;
  old_key.seed = 1;
  StreamKey hot_key;
  hot_key.seed = 2;
  SharedRRCache& old_cache = context.CacheFor(old_key);
  RRCollection sink(context.graph().num_nodes());
  old_cache.Read(0, 400, &sink);
  SharedRRCache& hot_cache = context.CacheFor(hot_key);
  RRCollection sink2(context.graph().num_nodes());
  hot_cache.Read(0, 400, &sink2);
  ASSERT_EQ(context.NumStreams(), 2u);

  // Budget forces exactly one stream out: the least-recently-used (seed
  // 1; seed 2 was touched later).
  context.set_cache_budget_bytes(context.SharedMemoryBytes() -
                                 old_cache.MemoryBytes());
  EXPECT_EQ(context.EnforceCacheBudget(), 1u);
  EXPECT_EQ(context.NumStreams(), 1u);
  EXPECT_EQ(context.StreamsEvicted(), 1u);
  // Reads of the survivor still work; the evicted stream re-derives
  // from scratch with identical bytes on next use.
  RRCollection before(context.graph().num_nodes());
  context.CacheFor(hot_key);  // still resident: no resampling
  EXPECT_EQ(context.NumStreams(), 1u);
  SharedRRCache& revived = context.CacheFor(old_key);
  RRCollection after(context.graph().num_nodes());
  revived.Read(0, 400, &after);
  ASSERT_EQ(after.num_sets(), 400u);
  for (size_t id = 0; id < sink.num_sets(); ++id) {
    const auto a = sink.Set(static_cast<RRSetId>(id));
    const auto b = after.Set(static_cast<RRSetId>(id));
    ASSERT_EQ(a.size(), b.size()) << id;
    for (size_t j = 0; j < a.size(); ++j) EXPECT_EQ(a[j], b[j]);
  }
  // Accounting kept the evicted stream's history.
  EXPECT_EQ(context.TotalSetsServed(), 1200u);
}

TEST(SharedRRCacheTest, CostReadMatchesEngineStopPoint) {
  Graph g = MakeTwoCommunities(0.35f);

  RRCollection reference(g.num_nodes());
  SamplingEngine engine(g, IcSampling(11, 1));
  const SampleBatch expected =
      engine.SampleUntilCost(&reference, /*cost_threshold=*/20000.0);

  SharedRRCache cache(g, IcSampling(11, 2));
  // Pre-warm part of the stream so the cost read crosses the
  // cached/uncached boundary mid-way.
  RRCollection warm(g.num_nodes());
  cache.Read(0, expected.sets_added / 2, &warm);

  RRCollection out(g.num_nodes());
  const SampleBatch batch = cache.ReadUntilCost(0, 20000.0, 0, &out);
  EXPECT_EQ(batch.sets_added, expected.sets_added);
  EXPECT_EQ(batch.traversal_cost, expected.traversal_cost);
  EXPECT_EQ(batch.edges_examined, expected.edges_examined);
  EXPECT_EQ(batch.sets_reused, expected.sets_added / 2);
}

}  // namespace
}  // namespace timpp
