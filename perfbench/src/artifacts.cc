#include "artifacts.h"

#include <cstdio>
#include <filesystem>

#include "src/core/noise_distribution.h"
#include "src/data/digits.h"
#include "src/models/zoo.h"
#include "src/split/split_model.h"

namespace perfbench {

using namespace shredder;

core::NoiseTrainConfig
lenet_noise_recipe(std::uint64_t seed)
{
    core::NoiseTrainConfig cfg;
    cfg.batch_size = 1;
    cfg.learning_rate = 5e-2f;
    cfg.init_scale_relative = true;
    cfg.init.scale = 3.5f;
    cfg.lambda.initial_lambda = 1e-2f;
    cfg.lambda.privacy_target = 12.0;
    cfg.iterations = 400 * 16;
    cfg.seed = seed;
    return cfg;
}

core::MeterConfig
lenet_meter_recipe(std::uint64_t seed)
{
    core::MeterConfig cfg;
    cfg.accuracy_samples = 512;
    cfg.mi_samples = 384;
    cfg.batch_size = 1;
    cfg.mi.max_dims = 16;
    cfg.seed = seed;
    return cfg;
}

models::TrainConfig
pretrain_recipe(int epochs)
{
    models::TrainConfig cfg;
    cfg.max_epochs = epochs;
    cfg.batch_size = 1;
    cfg.learning_rate = 1e-3f;
    cfg.target_accuracy = 0.0;
    cfg.eval_samples = 1;  // the per-epoch check runs as one batch
    cfg.verbose = false;
    return cfg;
}

MemoryDataset::MemoryDataset(const data::Dataset& source)
    : shape_(source.image_shape()),
      classes_(source.num_classes()),
      name_(source.name())
{
    samples_.reserve(static_cast<std::size_t>(source.size()));
    for (std::int64_t i = 0; i < source.size(); ++i) {
        samples_.push_back(source.get(i));
    }
}

data::Sample
MemoryDataset::get(std::int64_t idx) const
{
    return samples_.at(static_cast<std::size_t>(idx));
}

std::unique_ptr<data::Dataset>
make_digits(std::int64_t count, std::uint64_t seed)
{
    data::DigitsConfig c;
    c.count = count;
    c.seed = seed;
    return std::make_unique<data::DigitsDataset>(c);
}

deploy::Bundle
master_bundle(const std::string& cache_dir)
{
    const std::string path = cache_dir + "/lenet-master.shb";
    if (std::filesystem::exists(path)) {
        return deploy::load_bundle(path);
    }
    std::filesystem::create_directories(cache_dir);
    std::fprintf(stderr, "perfbench: training the LeNet master (once per "
                 "build of the benchmark)\n");
    Rng rng(42);
    auto network = models::make_lenet(rng);
    const std::int64_t cut = split::conv_cut_points(*network).back();
    const MemoryDataset train(*make_digits(6000, 42 * 31 + 1));
    Rng train_rng = rng.fork();
    models::train_model(*network, train, train, pretrain_recipe(1),
                        train_rng);

    split::SplitModel model(*network, cut);
    core::NoiseCollection collection;
    for (int t = 0; t < 6; ++t) {
        core::NoiseTrainConfig ncfg =
            lenet_noise_recipe(7777 + static_cast<std::uint64_t>(t) * 101);
        ncfg.iterations = 1600;
        core::NoiseTrainResult result =
            core::NoiseTrainer(model, train, ncfg).train();
        core::NoiseSample sample;
        sample.noise = std::move(result.noise);
        sample.in_vivo_privacy = result.final_in_vivo;
        sample.train_accuracy = result.final_batch_accuracy;
        collection.add(std::move(sample));
    }
    const core::NoiseDistribution distribution =
        core::NoiseDistribution::fit(collection);

    deploy::BundleContents contents;
    contents.network = network.get();
    contents.cut = cut;
    contents.input_shape = models::input_shape_for("lenet");
    contents.policy.kind = deploy::PolicyKind::kReplay;
    contents.collection = &collection;
    contents.distribution = &distribution;
    const std::string tmp = path + ".tmp";
    deploy::save_bundle(tmp, contents);
    std::filesystem::rename(tmp, path);
    return deploy::load_bundle(path);
}

}  // namespace perfbench
