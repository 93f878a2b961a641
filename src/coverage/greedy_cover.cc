#include "coverage/greedy_cover.h"

#include <algorithm>
#include <queue>
#include <span>

#include "util/bit_vector.h"

namespace timpp {

namespace {

// Shared selection bookkeeping: marks `v` selected, kills its live sets and
// decrements the live-coverage counts of every member of a dying set.
// Returns the marginal coverage of `v`.
uint64_t SelectNode(const RRCollection& rr, NodeId v, BitVector* dead,
                    std::vector<uint64_t>* counts) {
  uint64_t marginal = 0;
  for (RRSetId id : rr.SetsContaining(v)) {
    if (dead->Get(id)) continue;
    dead->Set(id);
    ++marginal;
    for (NodeId u : rr.Set(id)) --(*counts)[u];
  }
  return marginal;
}

// SelectNode over a view. Set j of slice s sits at view position
// bases[s] + (j - lo); the slice's share of v's postings is cut out of the
// chunk's ascending list by two lower_bounds.
uint64_t SelectNode(const RRView& view, const std::vector<size_t>& bases,
                    NodeId v, BitVector* dead, std::vector<uint64_t>* counts) {
  uint64_t marginal = 0;
  const std::vector<RRSlice>& slices = view.slices();
  for (size_t s = 0; s < slices.size(); ++s) {
    const RRSlice& slice = slices[s];
    const std::span<const RRSetId> ids = slice.sets->SetsContaining(v);
    const auto begin = std::lower_bound(ids.begin(), ids.end(), slice.lo);
    const auto end = std::lower_bound(begin, ids.end(), slice.hi);
    for (auto it = begin; it != end; ++it) {
      const size_t pos = bases[s] + (*it - slice.lo);
      if (dead->Get(pos)) continue;
      dead->Set(pos);
      ++marginal;
      for (NodeId u : slice.sets->Set(*it)) --(*counts)[u];
    }
  }
  return marginal;
}

}  // namespace

CoverResult GreedyMaxCover(const RRView& view, int k) {
  return GreedyMaxCoverWithBucketCap(view, k, uint64_t{1} << 20);
}

CoverResult GreedyMaxCover(const RRCollection& rr, int k) {
  return GreedyMaxCover(RRView(rr), k);
}

CoverResult GreedyMaxCoverWithBucketCap(const RRCollection& rr, int k,
                                        uint64_t max_buckets) {
  return GreedyMaxCoverWithBucketCap(RRView(rr), k, max_buckets);
}

CoverResult GreedyMaxCoverWithBucketCap(const RRView& view, int k,
                                        uint64_t max_buckets) {
  const NodeId n = view.num_graph_nodes();
  CoverResult result;
  if (k <= 0 || n == 0) return result;

  // Initial coverage counts. A whole chunk contributes its postings'
  // lengths; a chunk cut by the window counts the members of its sets in
  // range instead.
  std::vector<uint64_t> counts(n, 0);
  std::vector<size_t> bases;
  bases.reserve(view.slices().size());
  size_t base = 0;
  for (const RRSlice& slice : view.slices()) {
    bases.push_back(base);
    base += slice.hi - slice.lo;
    const RRCollection& chunk = *slice.sets;
    if (slice.lo == 0 && slice.hi == chunk.num_sets()) {
      for (size_t i = 0; i < chunk.num_indexed_nodes(); ++i) {
        counts[chunk.IndexedNode(i)] += chunk.Postings(i).size();
      }
    } else {
      for (size_t id = slice.lo; id < slice.hi; ++id) {
        for (NodeId u : chunk.Set(static_cast<RRSetId>(id))) ++counts[u];
      }
    }
  }
  uint64_t max_count = 0;
  for (NodeId v = 0; v < n; ++v) max_count = std::max(max_count, counts[v]);

  // Bucket queue with lazy decrease: every unselected node sits in exactly
  // one bucket, possibly higher than its current count (counts only fall).
  // The cursor walks from the top bucket downward; before a bucket is
  // trusted its stale entries are relocated to their true buckets (each
  // relocation moves a node strictly down, so total relocation work is
  // bounded by the total count decrements, O(θ·avg|R|)). The selection
  // from the cleaned top bucket is the exact greedy rule — max current
  // count, ties to the smaller node id — so results are bit-identical to
  // the heap path.
  //
  // Buckets hold single counts (shift 0) while max_count is small — then a
  // cleaned bucket is all one count and the scan reduces to min-id. Counts
  // scale with θ, not n, so a hub covered by a θ-sized fraction of sets
  // would make a one-bucket-per-count array allocate O(θ) vectors; the
  // shift coarsens buckets to count *ranges* just enough to cap the array,
  // keeping memory O(min(max_count, 2^20) + n) while the in-bucket scan
  // stays exact.
  int shift = 0;
  while ((max_count >> shift) >= std::max<uint64_t>(1, max_buckets)) ++shift;
  const auto bucket_of = [shift](uint64_t count) { return count >> shift; };

  std::vector<std::vector<NodeId>> buckets(bucket_of(max_count) + 1);
  for (NodeId v = 0; v < n; ++v) buckets[bucket_of(counts[v])].push_back(v);

  BitVector dead(view.num_sets());
  uint64_t cursor = bucket_of(max_count);

  while (static_cast<int>(result.seeds.size()) < k) {
    // Advance the cursor to the highest bucket with a current entry.
    bool found = false;
    while (true) {
      std::vector<NodeId>& bucket = buckets[cursor];
      size_t i = 0;
      while (i < bucket.size()) {
        const NodeId v = bucket[i];
        if (bucket_of(counts[v]) != cursor) {
          buckets[bucket_of(counts[v])].push_back(v);  // lazy decrease
          bucket[i] = bucket.back();
          bucket.pop_back();
        } else {
          ++i;
        }
      }
      if (!bucket.empty()) {
        found = true;
        break;
      }
      if (cursor == 0) break;
      --cursor;
    }
    if (!found) break;  // every node selected

    // Exact argmax within the top bucket (count desc, id asc). With
    // shift 0 all counts here equal the cursor and this is a min-id scan.
    std::vector<NodeId>& bucket = buckets[cursor];
    size_t best = 0;
    for (size_t i = 1; i < bucket.size(); ++i) {
      if (counts[bucket[i]] > counts[bucket[best]] ||
          (counts[bucket[i]] == counts[bucket[best]] &&
           bucket[i] < bucket[best])) {
        best = i;
      }
    }
    const NodeId v = bucket[best];
    bucket[best] = bucket.back();
    bucket.pop_back();

    const uint64_t marginal = SelectNode(view, bases, v, &dead, &counts);
    result.seeds.push_back(v);
    result.marginal_coverage.push_back(marginal);
    result.covered_sets += marginal;
  }

  result.covered_fraction =
      view.num_sets() > 0 ? static_cast<double>(result.covered_sets) /
                                static_cast<double>(view.num_sets())
                          : 0.0;
  return result;
}

CoverResult HeapGreedyMaxCover(const RRCollection& rr, int k) {
  const NodeId n = rr.num_graph_nodes();
  CoverResult result;
  if (k <= 0 || n == 0) return result;

  std::vector<uint64_t> counts(n);
  for (NodeId v = 0; v < n; ++v) counts[v] = rr.CoverageCount(v);

  // Max-heap ordered by (count desc, id asc); entries carry the count at
  // push time. Coverage counts only decrease, so a popped entry whose count
  // is still current is the global argmax (lazy-forward evaluation).
  struct Entry {
    uint64_t count;
    NodeId node;
    bool operator<(const Entry& other) const {
      if (count != other.count) return count < other.count;
      return node > other.node;
    }
  };
  std::priority_queue<Entry> heap;
  for (NodeId v = 0; v < n; ++v) heap.push(Entry{counts[v], v});

  BitVector dead(rr.num_sets());
  std::vector<char> selected(n, 0);

  while (static_cast<int>(result.seeds.size()) < k && !heap.empty()) {
    Entry top = heap.top();
    heap.pop();
    if (selected[top.node]) continue;
    if (top.count != counts[top.node]) {
      heap.push(Entry{counts[top.node], top.node});  // stale; re-evaluate
      continue;
    }
    selected[top.node] = 1;
    uint64_t marginal = SelectNode(rr, top.node, &dead, &counts);
    result.seeds.push_back(top.node);
    result.marginal_coverage.push_back(marginal);
    result.covered_sets += marginal;
  }

  result.covered_fraction =
      rr.num_sets() > 0 ? static_cast<double>(result.covered_sets) /
                              static_cast<double>(rr.num_sets())
                        : 0.0;
  return result;
}

CoverResult NaiveGreedyMaxCover(const RRCollection& rr, int k) {
  const NodeId n = rr.num_graph_nodes();
  CoverResult result;
  if (k <= 0 || n == 0) return result;

  std::vector<uint64_t> counts(n);
  for (NodeId v = 0; v < n; ++v) counts[v] = rr.CoverageCount(v);

  BitVector dead(rr.num_sets());
  std::vector<char> selected(n, 0);

  for (int round = 0; round < k; ++round) {
    NodeId best = kInvalidNode;
    uint64_t best_count = 0;
    bool found = false;
    for (NodeId v = 0; v < n; ++v) {
      if (selected[v]) continue;
      if (!found || counts[v] > best_count) {
        best = v;
        best_count = counts[v];
        found = true;
      }
    }
    if (!found) break;
    selected[best] = 1;
    uint64_t marginal = SelectNode(rr, best, &dead, &counts);
    result.seeds.push_back(best);
    result.marginal_coverage.push_back(marginal);
    result.covered_sets += marginal;
  }

  result.covered_fraction =
      rr.num_sets() > 0 ? static_cast<double>(result.covered_sets) /
                              static_cast<double>(rr.num_sets())
                        : 0.0;
  return result;
}

uint64_t BruteForceMaxCover(const RRCollection& rr, int k) {
  const NodeId n = rr.num_graph_nodes();
  if (k <= 0 || n == 0) return 0;
  const int kk = std::min<int>(k, n);

  std::vector<NodeId> subset(kk);
  for (int i = 0; i < kk; ++i) subset[i] = static_cast<NodeId>(i);

  BitVector covered(rr.num_sets());
  uint64_t best = 0;
  while (true) {
    covered.Reset();
    for (NodeId v : subset) {
      for (RRSetId id : rr.SetsContaining(v)) covered.Set(id);
    }
    best = std::max<uint64_t>(best, covered.Count());

    int i = kk - 1;
    while (i >= 0 && subset[i] == n - static_cast<NodeId>(kk - i)) --i;
    if (i < 0) break;
    ++subset[i];
    for (int j = i + 1; j < kk; ++j) subset[j] = subset[j - 1] + 1;
  }
  return best;
}

}  // namespace timpp
