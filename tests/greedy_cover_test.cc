// Tests for coverage/greedy_cover.h, including the parameterized property
// sweep that pins the lazy implementation to the naive reference and the
// (1-1/e) quality bound against the exhaustive optimum.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "coverage/greedy_cover.h"
#include "rrset/rr_collection.h"
#include "rrset/rr_view.h"
#include "util/rng.h"

namespace timpp {
namespace {

RRCollection MakeCollection(NodeId num_nodes,
                            const std::vector<std::vector<NodeId>>& sets) {
  RRCollection rr(num_nodes);
  for (const auto& s : sets) rr.Add(s, 0);
  rr.BuildIndex();
  return rr;
}

TEST(GreedyCoverTest, SingleBestNode) {
  RRCollection rr = MakeCollection(4, {{0, 1}, {1, 2}, {1}, {3}});
  CoverResult result = GreedyMaxCover(rr, 1);
  ASSERT_EQ(result.seeds.size(), 1u);
  EXPECT_EQ(result.seeds[0], 1u);
  EXPECT_EQ(result.covered_sets, 3u);
  EXPECT_DOUBLE_EQ(result.covered_fraction, 0.75);
}

TEST(GreedyCoverTest, SecondPickMaximizesMarginalNotTotal) {
  // Node 0 covers sets {0,1,2}; node 1 covers {0,1,3}; node 2 covers {4,5}.
  // After picking 0, node 1's marginal is 1 but node 2's is 2.
  RRCollection rr = MakeCollection(
      3, {{0, 1}, {0, 1}, {0}, {1}, {2}, {2}});
  CoverResult result = GreedyMaxCover(rr, 2);
  ASSERT_EQ(result.seeds.size(), 2u);
  EXPECT_EQ(result.seeds[0], 0u);
  EXPECT_EQ(result.seeds[1], 2u);
  EXPECT_EQ(result.covered_sets, 5u);
  EXPECT_EQ(result.marginal_coverage[0], 3u);
  EXPECT_EQ(result.marginal_coverage[1], 2u);
}

TEST(GreedyCoverTest, TieBreaksBySmallerNodeId) {
  RRCollection rr = MakeCollection(3, {{1}, {2}});
  CoverResult result = GreedyMaxCover(rr, 1);
  EXPECT_EQ(result.seeds[0], 1u);  // both cover one set; smaller id wins
}

TEST(GreedyCoverTest, KLargerThanUsefulNodesStillReturnsK) {
  RRCollection rr = MakeCollection(5, {{0}, {0}});
  CoverResult result = GreedyMaxCover(rr, 3);
  EXPECT_EQ(result.seeds.size(), 3u);
  EXPECT_EQ(result.covered_sets, 2u);
  EXPECT_EQ(result.marginal_coverage[1], 0u);  // padding picks add nothing
}

TEST(GreedyCoverTest, EmptyCollection) {
  RRCollection rr(4);
  rr.BuildIndex();
  CoverResult result = GreedyMaxCover(rr, 2);
  EXPECT_EQ(result.seeds.size(), 2u);
  EXPECT_EQ(result.covered_sets, 0u);
  EXPECT_DOUBLE_EQ(result.covered_fraction, 0.0);
}

TEST(GreedyCoverTest, KZeroReturnsNothing) {
  RRCollection rr = MakeCollection(2, {{0}});
  CoverResult result = GreedyMaxCover(rr, 0);
  EXPECT_TRUE(result.seeds.empty());
}

TEST(GreedyCoverTest, MarginalsAreNonIncreasing) {
  Rng rng(100);
  std::vector<std::vector<NodeId>> sets;
  for (int i = 0; i < 300; ++i) {
    std::vector<NodeId> s;
    const int size = 1 + static_cast<int>(rng.NextBounded(5));
    for (int j = 0; j < size; ++j) {
      s.push_back(static_cast<NodeId>(rng.NextBounded(40)));
    }
    sets.push_back(s);
  }
  RRCollection rr = MakeCollection(40, sets);
  CoverResult result = GreedyMaxCover(rr, 10);
  for (size_t i = 1; i < result.marginal_coverage.size(); ++i) {
    EXPECT_LE(result.marginal_coverage[i], result.marginal_coverage[i - 1])
        << "greedy marginal gains must be non-increasing (submodularity)";
  }
}

// Parameterized sweep: lazy greedy must match the naive reference bit for
// bit across instance shapes, and both must clear the (1-1/e) bound
// against the exhaustive optimum.
struct CoverCase {
  int num_nodes;
  int num_sets;
  int max_set_size;
  int k;
  uint64_t seed;
};

class GreedyCoverPropertyTest : public ::testing::TestWithParam<CoverCase> {};

TEST_P(GreedyCoverPropertyTest, LazyMatchesNaiveExactly) {
  const CoverCase& c = GetParam();
  Rng rng(c.seed);
  std::vector<std::vector<NodeId>> sets;
  for (int i = 0; i < c.num_sets; ++i) {
    std::vector<NodeId> s;
    const int size = 1 + static_cast<int>(rng.NextBounded(c.max_set_size));
    for (int j = 0; j < size; ++j) {
      s.push_back(static_cast<NodeId>(rng.NextBounded(c.num_nodes)));
    }
    sets.push_back(s);
  }
  RRCollection rr = MakeCollection(c.num_nodes, sets);

  CoverResult lazy = GreedyMaxCover(rr, c.k);
  CoverResult naive = NaiveGreedyMaxCover(rr, c.k);
  EXPECT_EQ(lazy.seeds, naive.seeds);
  EXPECT_EQ(lazy.covered_sets, naive.covered_sets);
  EXPECT_EQ(lazy.marginal_coverage, naive.marginal_coverage);
}

TEST_P(GreedyCoverPropertyTest, BucketQueueMatchesHeapBitForBit) {
  // The bucket queue replaced the heap as the default GreedyMaxCover; both
  // implement argmax-count with min-id tie-break, so every field of
  // CoverResult must agree exactly on arbitrary collections.
  const CoverCase& c = GetParam();
  Rng rng(c.seed ^ 0x5eed);
  std::vector<std::vector<NodeId>> sets;
  for (int i = 0; i < c.num_sets; ++i) {
    std::vector<NodeId> s;
    const int size = 1 + static_cast<int>(rng.NextBounded(c.max_set_size));
    for (int j = 0; j < size; ++j) {
      s.push_back(static_cast<NodeId>(rng.NextBounded(c.num_nodes)));
    }
    sets.push_back(s);
  }
  RRCollection rr = MakeCollection(c.num_nodes, sets);

  CoverResult bucket = GreedyMaxCover(rr, c.k);
  CoverResult heap = HeapGreedyMaxCover(rr, c.k);
  EXPECT_EQ(bucket.seeds, heap.seeds);
  EXPECT_EQ(bucket.marginal_coverage, heap.marginal_coverage);
  EXPECT_EQ(bucket.covered_sets, heap.covered_sets);
  EXPECT_EQ(bucket.covered_fraction, heap.covered_fraction);

  // Force the coarse-bucket path (count-range buckets, which a θ-scale
  // max_count would trigger in production): results must be cap-invariant.
  for (uint64_t cap : {1u, 2u, 7u}) {
    CoverResult coarse = GreedyMaxCoverWithBucketCap(rr, c.k, cap);
    EXPECT_EQ(coarse.seeds, heap.seeds) << "cap=" << cap;
    EXPECT_EQ(coarse.marginal_coverage, heap.marginal_coverage)
        << "cap=" << cap;
  }
}

TEST_P(GreedyCoverPropertyTest, GreedyBeatsOneMinusOneOverEOfOptimum) {
  const CoverCase& c = GetParam();
  if (c.num_nodes > 16) GTEST_SKIP() << "brute force too large";
  Rng rng(c.seed ^ 0xabcdef);
  std::vector<std::vector<NodeId>> sets;
  for (int i = 0; i < c.num_sets; ++i) {
    std::vector<NodeId> s;
    const int size = 1 + static_cast<int>(rng.NextBounded(c.max_set_size));
    for (int j = 0; j < size; ++j) {
      s.push_back(static_cast<NodeId>(rng.NextBounded(c.num_nodes)));
    }
    sets.push_back(s);
  }
  RRCollection rr = MakeCollection(c.num_nodes, sets);

  CoverResult greedy = GreedyMaxCover(rr, c.k);
  uint64_t opt = BruteForceMaxCover(rr, c.k);
  EXPECT_GE(static_cast<double>(greedy.covered_sets),
            (1.0 - 1.0 / std::exp(1.0)) * static_cast<double>(opt) - 1e-9)
      << "greedy=" << greedy.covered_sets << " opt=" << opt;
}

// ------------------------------------------------------ greedy over views

// Random sets over `num_nodes` nodes, split into indexed chunks of random
// sizes (some empty) — the shape of a shared cache's published grows.
struct Chunked {
  std::vector<std::vector<NodeId>> sets;
  std::vector<RRCollection> chunks;
  std::vector<size_t> chunk_first;  // global index of each chunk's set 0
};

Chunked MakeChunked(NodeId num_nodes, int num_sets, int max_set_size,
                    Rng& rng) {
  Chunked c;
  for (int i = 0; i < num_sets; ++i) {
    std::vector<NodeId> s;
    const int size = 1 + static_cast<int>(rng.NextBounded(max_set_size));
    for (int j = 0; j < size; ++j) {
      s.push_back(static_cast<NodeId>(rng.NextBounded(num_nodes)));
    }
    c.sets.push_back(s);
  }
  size_t next = 0;
  while (next < c.sets.size()) {
    const size_t size = std::min<size_t>(c.sets.size() - next,
                                         rng.NextBounded(num_sets / 3 + 2));
    RRCollection chunk(num_nodes);
    for (size_t i = next; i < next + size; ++i) chunk.Add(c.sets[i], i);
    chunk.BuildIndex();
    c.chunks.push_back(std::move(chunk));
    c.chunk_first.push_back(next);
    next += size;
  }
  return c;
}

// The window [lo, hi) of the global stream as a view over the chunks,
// cutting the first and last chunk it touches wherever lo and hi fall.
RRView WindowView(const Chunked& c, NodeId num_nodes, size_t lo, size_t hi) {
  RRView view(num_nodes);
  for (size_t i = 0; i < c.chunks.size(); ++i) {
    const size_t first = c.chunk_first[i];
    const size_t end = first + c.chunks[i].num_sets();
    const size_t a = std::clamp(lo, first, end);
    const size_t b = std::clamp(hi, first, end);
    view.Append(c.chunks[i], a - first, b - first);
  }
  return view;
}

// The same window as one concatenated, indexed collection.
RRCollection WindowCopy(const Chunked& c, NodeId num_nodes, size_t lo,
                        size_t hi) {
  RRCollection rr(num_nodes);
  for (size_t i = lo; i < hi; ++i) rr.Add(c.sets[i], i);
  rr.BuildIndex();
  return rr;
}

void ExpectSameCover(const CoverResult& got, const CoverResult& want,
                     const std::string& what) {
  EXPECT_EQ(got.seeds, want.seeds) << what;
  EXPECT_EQ(got.marginal_coverage, want.marginal_coverage) << what;
  EXPECT_EQ(got.covered_sets, want.covered_sets) << what;
  EXPECT_EQ(got.covered_fraction, want.covered_fraction) << what;
}

TEST(GreedyCoverViewTest, RandomWindowsCutMidChunkMatchTheCopy) {
  Rng rng(2024);
  for (int trial = 0; trial < 40; ++trial) {
    const NodeId n = 5 + static_cast<NodeId>(rng.NextBounded(60));
    const int num_sets = 1 + static_cast<int>(rng.NextBounded(400));
    const Chunked c = MakeChunked(n, num_sets, 6, rng);
    size_t lo = rng.NextBounded(num_sets + 1);
    size_t hi = rng.NextBounded(num_sets + 1);
    if (lo > hi) std::swap(lo, hi);
    const int k = 1 + static_cast<int>(rng.NextBounded(12));

    const RRView view = WindowView(c, n, lo, hi);
    const RRCollection copy = WindowCopy(c, n, lo, hi);
    ASSERT_EQ(view.num_sets(), copy.num_sets());
    ASSERT_EQ(view.DataBytes(),
              RRView(copy).DataBytes());  // same sets, same byte count
    const std::string what = "trial " + std::to_string(trial) + " [" +
                             std::to_string(lo) + ", " + std::to_string(hi) +
                             ") over " + std::to_string(c.chunks.size()) +
                             " chunks";
    const CoverResult viewed = GreedyMaxCover(view, k);
    ExpectSameCover(viewed, GreedyMaxCover(copy, k), what);
    ExpectSameCover(viewed, HeapGreedyMaxCover(copy, k), what);
    ExpectSameCover(viewed, NaiveGreedyMaxCover(copy, k), what);
  }
}

TEST(GreedyCoverViewTest, EmptySlicesAndEmptyViews) {
  RRCollection empty(6);
  empty.BuildIndex();
  RRCollection a = MakeCollection(6, {{0, 1}, {1, 2}, {3}});
  RRCollection b = MakeCollection(6, {{3, 4}, {4}, {4, 5}, {1}});

  // Empty chunks and empty ranges between real ones add nothing.
  RRView view(6);
  view.Append(empty, 0, 0);
  view.Append(a, 1, 1);
  view.Append(a, 1, 3);
  view.Append(empty, 0, 0);
  view.Append(b, 2, 2);
  view.Append(b, 0, 3);
  view.Append(b, 3, 3);
  EXPECT_EQ(view.slices().size(), 2u);
  EXPECT_EQ(view.num_sets(), 5u);
  const RRCollection copy =
      MakeCollection(6, {{1, 2}, {3}, {3, 4}, {4}, {4, 5}});
  ExpectSameCover(GreedyMaxCover(view, 3), HeapGreedyMaxCover(copy, 3),
                  "empty slices");

  // A view of nothing behaves as an empty collection: k zero-gain picks.
  RRView nothing(6);
  nothing.Append(empty, 0, 0);
  nothing.Append(a, 2, 2);
  EXPECT_EQ(nothing.num_sets(), 0u);
  const CoverResult none = GreedyMaxCover(nothing, 2);
  ExpectSameCover(none, GreedyMaxCover(empty, 2), "empty view");
  EXPECT_EQ(none.seeds.size(), 2u);
  EXPECT_EQ(none.covered_sets, 0u);
  EXPECT_DOUBLE_EQ(none.covered_fraction, 0.0);
}

TEST(GreedyCoverViewTest, CoarseBucketCapIsInvariantOverViews) {
  Rng rng(77);
  for (int trial = 0; trial < 10; ++trial) {
    const NodeId n = 30;
    const int num_sets = 300 + static_cast<int>(rng.NextBounded(300));
    const Chunked c = MakeChunked(n, num_sets, 5, rng);
    const size_t lo = rng.NextBounded(num_sets / 4);
    const size_t hi = num_sets - rng.NextBounded(num_sets / 4);
    const RRView view = WindowView(c, n, lo, hi);
    const CoverResult heap = HeapGreedyMaxCover(WindowCopy(c, n, lo, hi), 8);
    for (uint64_t cap : {1u, 2u, 7u}) {
      ExpectSameCover(GreedyMaxCoverWithBucketCap(view, 8, cap), heap,
                      "cap " + std::to_string(cap));
    }
  }
}

TEST(GreedyCoverViewTest, KBeyondTheNodesLeftSelectsEveryNode) {
  Rng rng(5);
  const NodeId n = 9;
  const Chunked c = MakeChunked(n, 120, 3, rng);
  const RRView view = WindowView(c, n, 7, 113);
  const RRCollection copy = WindowCopy(c, n, 7, 113);
  const CoverResult viewed = GreedyMaxCover(view, 20);
  EXPECT_EQ(viewed.seeds.size(), n);
  EXPECT_EQ(viewed.covered_sets, view.num_sets());
  ExpectSameCover(viewed, GreedyMaxCover(copy, 20), "k > n");
  ExpectSameCover(viewed, HeapGreedyMaxCover(copy, 20), "k > n");
  ExpectSameCover(viewed, NaiveGreedyMaxCover(copy, 20), "k > n");
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GreedyCoverPropertyTest,
    ::testing::Values(CoverCase{10, 50, 3, 3, 1}, CoverCase{10, 50, 3, 3, 2},
                      CoverCase{16, 200, 5, 4, 3}, CoverCase{16, 200, 5, 8, 4},
                      CoverCase{12, 30, 2, 5, 5}, CoverCase{12, 500, 6, 6, 6},
                      CoverCase{100, 1000, 8, 10, 7},
                      CoverCase{100, 1000, 8, 25, 8},
                      CoverCase{500, 5000, 10, 50, 9},
                      CoverCase{16, 16, 1, 16, 10}));

}  // namespace
}  // namespace timpp
