#include "rrset/rr_collection.h"

#include <algorithm>

namespace timpp {

RRSetId RRCollection::Add(std::span<const NodeId> nodes, uint64_t width) {
  nodes_.insert(nodes_.end(), nodes.begin(), nodes.end());
  offsets_.push_back(nodes_.size());
  widths_.push_back(width);
  total_width_ += width;
  index_built_ = false;
  return static_cast<RRSetId>(num_sets() - 1);
}

void RRCollection::AppendRange(const RRCollection& src, size_t first,
                               size_t count) {
  first = std::min(first, src.num_sets());
  count = std::min(count, src.num_sets() - first);
  if (count == 0) return;
  const size_t base = nodes_.size();
  const EdgeIndex src_base = src.offsets_[first];
  nodes_.insert(nodes_.end(), src.nodes_.begin() + src.offsets_[first],
                src.nodes_.begin() + src.offsets_[first + count]);
  for (size_t i = first + 1; i <= first + count; ++i) {
    offsets_.push_back(base + (src.offsets_[i] - src_base));
  }
  widths_.insert(widths_.end(), src.widths_.begin() + first,
                 src.widths_.begin() + first + count);
  for (size_t i = first; i < first + count; ++i) {
    total_width_ += src.widths_[i];
  }
  index_built_ = false;
}

void RRCollection::AppendPacked(std::span<const NodeId> nodes,
                                std::span<const uint64_t> sizes,
                                std::span<const uint64_t> widths) {
  nodes_.insert(nodes_.end(), nodes.begin(), nodes.end());
  size_t i = offsets_.size();
  offsets_.resize(i + sizes.size());
  for (uint64_t size : sizes) {
    offsets_[i] = offsets_[i - 1] + size;
    ++i;
  }
  widths_.insert(widths_.end(), widths.begin(), widths.end());
  for (uint64_t width : widths) total_width_ += width;
  index_built_ = false;
}

void RRCollection::BuildIndex() {
  // Counting sort by node. `cursor` is the one dense scratch array: first
  // each node's set count, then its write position in index_sets_.
  std::vector<EdgeIndex> cursor(num_nodes_, 0);
  for (NodeId v : nodes_) ++cursor[v];
  size_t distinct = 0;
  for (NodeId v = 0; v < num_nodes_; ++v) distinct += cursor[v] != 0;

  index_nodes_ = std::vector<NodeId>(distinct);
  index_offsets_ = std::vector<EdgeIndex>(distinct + 1);
  index_sets_ = std::vector<RRSetId>(nodes_.size());
  EdgeIndex total = 0;
  size_t i = 0;
  for (NodeId v = 0; v < num_nodes_; ++v) {
    if (cursor[v] == 0) continue;
    index_nodes_[i] = v;
    index_offsets_[i++] = total;
    const EdgeIndex count = cursor[v];
    cursor[v] = total;
    total += count;
  }
  index_offsets_[distinct] = total;
  // Filling in set order leaves every node's list ascending.
  const size_t sets = num_sets();
  for (size_t id = 0; id < sets; ++id) {
    for (NodeId v : Set(static_cast<RRSetId>(id))) {
      index_sets_[cursor[v]++] = static_cast<RRSetId>(id);
    }
  }
  index_built_ = true;
}

std::span<const RRSetId> RRCollection::SetsContaining(NodeId v) const {
  const auto it =
      std::lower_bound(index_nodes_.begin(), index_nodes_.end(), v);
  if (it == index_nodes_.end() || *it != v) return {};
  return Postings(static_cast<size_t>(it - index_nodes_.begin()));
}

double RRCollection::CoveredFraction(std::span<const NodeId> seeds) const {
  if (num_sets() == 0) return 0.0;
  // Count distinct covered sets by merging the per-seed id lists through a
  // scratch bitmap sized by set count.
  std::vector<char> covered(num_sets(), 0);
  size_t count = 0;
  for (NodeId s : seeds) {
    for (RRSetId id : SetsContaining(s)) {
      if (!covered[id]) {
        covered[id] = 1;
        ++count;
      }
    }
  }
  return static_cast<double>(count) / static_cast<double>(num_sets());
}

size_t RRCollection::MemoryBytes() const {
  return offsets_.capacity() * sizeof(EdgeIndex) +
         nodes_.capacity() * sizeof(NodeId) +
         widths_.capacity() * sizeof(uint64_t) +
         index_nodes_.capacity() * sizeof(NodeId) +
         index_offsets_.capacity() * sizeof(EdgeIndex) +
         index_sets_.capacity() * sizeof(RRSetId);
}

size_t RRCollection::DataBytes() const {
  return offsets_.size() * sizeof(EdgeIndex) +
         nodes_.size() * sizeof(NodeId) +
         widths_.size() * sizeof(uint64_t) +
         index_nodes_.size() * sizeof(NodeId) +
         index_offsets_.size() * sizeof(EdgeIndex) +
         index_sets_.size() * sizeof(RRSetId);
}

void RRCollection::DropIndex() {
  index_built_ = false;
  index_nodes_.clear();
  index_offsets_.clear();
  index_sets_.clear();
}

void RRCollection::TruncateTo(size_t num_sets) {
  if (num_sets >= this->num_sets()) return;
  for (size_t id = num_sets; id < widths_.size(); ++id) {
    total_width_ -= widths_[id];
  }
  offsets_.resize(num_sets + 1);
  nodes_.resize(offsets_[num_sets]);
  widths_.resize(num_sets);
  index_built_ = false;
  index_nodes_.clear();
  index_offsets_.clear();
  index_sets_.clear();
}

void RRCollection::ShrinkToFit() {
  offsets_.shrink_to_fit();
  nodes_.shrink_to_fit();
  widths_.shrink_to_fit();
  index_nodes_.shrink_to_fit();
  index_offsets_.shrink_to_fit();
  index_sets_.shrink_to_fit();
}

void RRCollection::Clear() {
  offsets_.assign(1, 0);
  nodes_.clear();
  widths_.clear();
  total_width_ = 0;
  index_built_ = false;
  index_nodes_.clear();
  index_offsets_.clear();
  index_sets_.clear();
}

}  // namespace timpp
