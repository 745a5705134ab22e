/**
 * @file
 * Noise trainers sharing one `SplitModel` on several threads: the
 * model's edge memo, its frozen weights and the thread pool under
 * concurrent training. Labelled `concurrency`, so CI runs it under
 * ThreadSanitizer.
 */
#include <cstring>
#include <thread>

#include <gtest/gtest.h>

#include "src/core/noise_trainer.h"
#include "src/data/digits.h"
#include "src/models/zoo.h"
#include "src/split/split_model.h"

namespace shredder {
namespace {

core::NoiseTrainConfig
recipe(std::uint64_t seed, bool relative)
{
    core::NoiseTrainConfig cfg;
    cfg.batch_size = 4;
    cfg.iterations = 30;
    cfg.init.scale = relative ? 1.5f : 0.5f;
    cfg.init_scale_relative = relative;
    cfg.lambda.initial_lambda = 1e-2f;
    cfg.lambda.privacy_target = 0.5;
    cfg.trace_every = 0;
    cfg.seed = seed;
    return cfg;
}

bool
same_noise(const core::NoiseTrainResult& a, const core::NoiseTrainResult& b)
{
    return a.noise.shape() == b.noise.shape() &&
           std::memcmp(a.noise.data(), b.noise.data(),
                       sizeof(float) *
                           static_cast<std::size_t>(a.noise.size())) == 0;
}

TEST(NoiseTrainerConcurrency, TwoTrainersOnOneModelMatchTheSequentialRun)
{
    Rng rng(31);
    auto net = models::make_lenet(rng);
    data::DigitsConfig dc;
    dc.count = 37;
    dc.seed = 77;
    const data::DigitsDataset ds(dc);
    const std::int64_t cut = split::conv_cut_points(*net).back();
    const core::NoiseTrainConfig cfg_a = recipe(41, false);
    const core::NoiseTrainConfig cfg_b = recipe(42, true);

    // The sequential run: one trainer after the other on one model.
    core::NoiseTrainResult want_a;
    core::NoiseTrainResult want_b;
    {
        split::SplitModel model(*net, cut);
        want_a = core::NoiseTrainer(model, ds, cfg_a).train();
        want_b = core::NoiseTrainer(model, ds, cfg_b).train();
    }

    // Both trainers built first, then trained at once on one fresh
    // model: they fill and read its memo concurrently.
    split::SplitModel shared(*net, cut);
    core::NoiseTrainer trainer_a(shared, ds, cfg_a);
    core::NoiseTrainer trainer_b(shared, ds, cfg_b);
    core::NoiseTrainResult got_a;
    std::thread thread_a([&] { got_a = trainer_a.train(); });
    const core::NoiseTrainResult got_b = trainer_b.train();
    thread_a.join();

    EXPECT_TRUE(same_noise(got_a, want_a));
    EXPECT_TRUE(same_noise(got_b, want_b));
    // Each sample ran through L at least once between the two, and a
    // third trainer finds every row kept.
    EXPECT_GE(got_a.edge_passes + got_b.edge_passes, ds.size());
    EXPECT_EQ(core::NoiseTrainer(shared, ds, cfg_a).train().edge_passes, 0);
}

}  // namespace
}  // namespace shredder
