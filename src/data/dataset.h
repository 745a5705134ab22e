/**
 * @file
 * Dataset abstractions for the synthetic workloads.
 *
 * The paper evaluates on MNIST, CIFAR-10, SVHN and ImageNet. Those
 * datasets are not available offline, so this substrate provides
 * *procedural* stand-ins (see DESIGN.md §2): each dataset renders a
 * labelled image deterministically from (seed, index), which makes
 * train/test splits, shuffling and exact reproducibility trivial.
 */
#ifndef SHREDDER_DATA_DATASET_H
#define SHREDDER_DATA_DATASET_H

#include <cstdint>
#include <string>
#include <vector>

#include "src/tensor/shape.h"
#include "src/tensor/tensor.h"

namespace shredder {
namespace data {

/** One labelled image. */
struct Sample
{
    Tensor image;  ///< CHW float32, values roughly in [0, 1].
    std::int64_t label = 0;
};

/** A batch assembled by the loader. */
struct Batch
{
    Tensor images;  ///< NCHW.
    std::vector<std::int64_t> labels;
    /** Dataset index of each row, in row order. */
    std::vector<std::int64_t> indices;

    std::int64_t size() const
    {
        return static_cast<std::int64_t>(labels.size());
    }
};

/** Abstract random-access dataset. Thread-safe for concurrent `get`. */
class Dataset
{
  public:
    virtual ~Dataset() = default;

    /** Number of samples. */
    virtual std::int64_t size() const = 0;

    /** Render sample `idx` (deterministic per instance). */
    virtual Sample get(std::int64_t idx) const = 0;

    /** CHW shape of every image. */
    virtual Shape image_shape() const = 0;

    /** Number of label classes. */
    virtual std::int64_t num_classes() const = 0;

    /** Human-readable dataset name. */
    virtual std::string name() const = 0;
};

/**
 * Materialize `count` samples of `ds` starting at `begin` into a Batch
 * (used for fixed evaluation sets).
 */
Batch materialize(const Dataset& ds, std::int64_t begin, std::int64_t count);

}  // namespace data
}  // namespace shredder

#endif  // SHREDDER_DATA_DATASET_H
