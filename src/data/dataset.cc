/**
 * @file
 * Implementation of the `Dataset` interface helpers.
 */
#include "src/data/dataset.h"

#include "src/runtime/logging.h"

namespace shredder {
namespace data {

Batch
materialize(const Dataset& ds, std::int64_t begin, std::int64_t count)
{
    SHREDDER_REQUIRE(begin >= 0 && count > 0 && begin + count <= ds.size(),
                     "materialize range [", begin, ", ", begin + count,
                     ") out of dataset size ", ds.size());
    const Shape img = ds.image_shape();
    Batch batch;
    batch.images = Tensor(Shape({count, img[0], img[1], img[2]}));
    batch.labels.resize(static_cast<std::size_t>(count));
    batch.indices.resize(static_cast<std::size_t>(count));
    for (std::int64_t i = 0; i < count; ++i) {
        Sample s = ds.get(begin + i);
        batch.images.set_slice0(i, s.image);
        batch.labels[static_cast<std::size_t>(i)] = s.label;
        batch.indices[static_cast<std::size_t>(i)] = begin + i;
    }
    return batch;
}

}  // namespace data
}  // namespace shredder
