/**
 * @file
 * The trained artifacts the serving workloads deploy, and the pinned
 * recipes that make them.
 *
 * Serving workloads measure the served path, not training, so their
 * pre-trained network and learned noise collection are made with a
 * fixed seed and cached as a replay bundle in a cache directory that
 * perfbench/run.py names after a digest of the benchmark binary: any
 * change to the code that trains it trains it again. Every run then
 * writes its own deployment bundles from that master and cold-starts
 * the server from them. The `noise-train` workload never uses this
 * cache: it trains from scratch every run.
 */
#ifndef PERFBENCH_ARTIFACTS_H
#define PERFBENCH_ARTIFACTS_H

#include <cstdint>
#include <memory>
#include <string>

#include "src/core/noise_trainer.h"
#include "src/core/privacy_meter.h"
#include "src/data/dataset.h"
#include "src/deploy/bundle.h"
#include "src/models/trainer.h"

namespace perfbench {

/**
 * The LeNet noise-learning recipe, pinned here so a change to the
 * repository's own defaults cannot silently change what is measured:
 * today's `default_train_config("lenet")`, with its 400 iterations ×
 * batch 16 run as 6400 iterations of one sample. One sample at a time,
 * no layer dispatches to the library's `parallel_for`, which can abort
 * the process (perfbench/README.md, "Known defect").
 */
shredder::core::NoiseTrainConfig lenet_noise_recipe(std::uint64_t seed);

/**
 * `default_meter_config("lenet")`, pinned the same way and kept clear
 * of `parallel_for` the same way: forwards run one sample at a time,
 * and the dimension-wise MI estimator scores 15 of the 120 activation
 * dimensions (every 8th) and scales the sum up to all 120, because it
 * fans out over dimensions once it has more than 16.
 */
shredder::core::MeterConfig lenet_meter_recipe(std::uint64_t seed);

/**
 * Fixed-work pre-training, one sample at a time: exactly `epochs`
 * epochs with no early stop, so set-up time does not jump with the
 * epoch an accuracy target happens to be reached in.
 */
shredder::models::TrainConfig pretrain_recipe(int epochs);

/** A dataset held in memory (what "generating the data" produces). */
class MemoryDataset : public shredder::data::Dataset
{
  public:
    /** Render every sample of `source` once. */
    explicit MemoryDataset(const shredder::data::Dataset& source);

    std::int64_t size() const override
    {
        return static_cast<std::int64_t>(samples_.size());
    }
    shredder::data::Sample get(std::int64_t idx) const override;
    shredder::Shape image_shape() const override { return shape_; }
    std::int64_t num_classes() const override { return classes_; }
    std::string name() const override { return name_; }

  private:
    std::vector<shredder::data::Sample> samples_;
    shredder::Shape shape_;
    std::int64_t classes_ = 0;
    std::string name_;
};

/** `count` generated digits (LeNet's dataset) drawn with `seed`. */
std::unique_ptr<shredder::data::Dataset> make_digits(std::int64_t count,
                                                     std::uint64_t seed);

/**
 * The cached master bundle: LeNet cut at its last conv, pre-trained one
 * epoch, with 6 noise tensors of 1600 iterations each learned at the
 * cut with the pinned recipe. Made and written on first use.
 */
shredder::deploy::Bundle master_bundle(const std::string& cache_dir);

}  // namespace perfbench

#endif  // PERFBENCH_ARTIFACTS_H
