#include "engine/sample_source.h"

#include <cassert>

namespace timpp {

SampleBatch SampleSource::FetchView(uint64_t first, uint64_t count,
                                    RRCollection* storage, RRView* view) {
  assert(storage->num_sets() == position() - first);
  (void)first;
  SampleBatch batch;
  if (count > 0 || !storage->index_built()) {
    // Appending invalidates the index; drop it before the fetch so the
    // growth does not carry the stale one along.
    storage->DropIndex();
    batch = Fetch(storage, count);
    storage->BuildIndex();
  }
  *view = RRView(*storage);
  return batch;
}

}  // namespace timpp
