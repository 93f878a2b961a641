// RRView — a read-only window over indexed RR-set collections.
//
// The greedy cover needs every set of its window plus a node -> set-ids
// index. A batch solve owns one collection and indexes it; the serving
// layer already holds the window's sets in SharedRRCache's published
// chunks, each indexed once when it was published. An RRView names such a
// window without copying anything: an ordered list of slices, each a
// half-open range [lo, hi) of one indexed collection's set ids. Set j of
// the view is the j-th set in slice order, and either end of the window
// may cut a chunk mid-way. A view borrows its collections: they must stay
// alive and unmodified while the view is in use.
#ifndef TIMPP_RRSET_RR_VIEW_H_
#define TIMPP_RRSET_RR_VIEW_H_

#include <cstddef>
#include <vector>

#include "rrset/rr_collection.h"
#include "util/types.h"

namespace timpp {

/// Sets [lo, hi) of one indexed collection.
struct RRSlice {
  const RRCollection* sets = nullptr;
  size_t lo = 0;
  size_t hi = 0;
};

class RRView {
 public:
  /// An empty window over a graph of `num_graph_nodes` nodes.
  explicit RRView(NodeId num_graph_nodes = 0) : num_nodes_(num_graph_nodes) {}

  /// The whole of `rr` (which must be indexed) as one slice.
  explicit RRView(const RRCollection& rr) : num_nodes_(rr.num_graph_nodes()) {
    Append(rr, 0, rr.num_sets());
  }

  /// Appends sets [lo, hi) of `chunk` to the window. `chunk` must be
  /// indexed and span the same graph. An empty range adds nothing, and a
  /// range continuing the last slice of the same chunk extends that slice.
  void Append(const RRCollection& chunk, size_t lo, size_t hi) {
    if (lo >= hi) return;
    num_sets_ += hi - lo;
    nodes_ += chunk.Offset(hi) - chunk.Offset(lo);
    if (!slices_.empty() && slices_.back().sets == &chunk &&
        slices_.back().hi == lo) {
      slices_.back().hi = hi;
      return;
    }
    slices_.push_back(RRSlice{&chunk, lo, hi});
  }

  const std::vector<RRSlice>& slices() const { return slices_; }
  size_t num_sets() const { return num_sets_; }
  NodeId num_graph_nodes() const { return num_nodes_; }

  /// DataBytes() of an unindexed RRCollection holding exactly the window's
  /// sets — what a solve reports as its retained set bytes, whether it
  /// copied the window or viewed it in place.
  size_t DataBytes() const {
    return (num_sets_ + 1) * sizeof(EdgeIndex) + nodes_ * sizeof(NodeId) +
           num_sets_ * sizeof(uint64_t);
  }

 private:
  NodeId num_nodes_;
  std::vector<RRSlice> slices_;
  size_t num_sets_ = 0;
  size_t nodes_ = 0;
};

}  // namespace timpp

#endif  // TIMPP_RRSET_RR_VIEW_H_
