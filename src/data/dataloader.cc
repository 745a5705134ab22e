/**
 * @file
 * Implementation of the batching `DataLoader`.
 */
#include "src/data/dataloader.h"

#include <algorithm>
#include <numeric>

#include "src/runtime/logging.h"

namespace shredder {
namespace data {

DataLoader::DataLoader(const Dataset& dataset, std::int64_t batch_size,
                       bool shuffle, Rng& rng)
    : dataset_(dataset), batch_size_(batch_size), shuffle_(shuffle),
      rng_(rng.fork())
{
    SHREDDER_REQUIRE(batch_size > 0, "batch size must be positive");
    order_.resize(static_cast<std::size_t>(dataset.size()));
    std::iota(order_.begin(), order_.end(), 0);
    reset();
}

void
DataLoader::reset()
{
    cursor_ = 0;
    if (shuffle_) {
        std::shuffle(order_.begin(), order_.end(), rng_.engine());
    }
}

std::int64_t
DataLoader::batches_per_epoch() const
{
    return (dataset_.size() + batch_size_ - 1) / batch_size_;
}

std::optional<Batch>
DataLoader::next()
{
    const std::int64_t total = dataset_.size();
    if (cursor_ >= total) {
        return std::nullopt;
    }
    const std::int64_t count = std::min(batch_size_, total - cursor_);
    const Shape img = dataset_.image_shape();

    Batch batch;
    batch.images = Tensor(Shape({count, img[0], img[1], img[2]}));
    batch.labels.resize(static_cast<std::size_t>(count));
    batch.indices.resize(static_cast<std::size_t>(count));
    for (std::int64_t i = 0; i < count; ++i) {
        const std::int64_t idx =
            order_[static_cast<std::size_t>(cursor_ + i)];
        Sample s = dataset_.get(idx);
        batch.images.set_slice0(i, s.image);
        batch.labels[static_cast<std::size_t>(i)] = s.label;
        batch.indices[static_cast<std::size_t>(i)] = idx;
    }
    cursor_ += count;
    return batch;
}

}  // namespace data
}  // namespace shredder
