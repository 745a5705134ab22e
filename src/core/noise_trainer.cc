/**
 * @file
 * Implementation of the noise-learning loop (§2.1–2.4, §3.2).
 */
#include "src/core/noise_trainer.h"

#include <algorithm>
#include <cmath>

#include "src/data/dataloader.h"
#include "src/info/snr.h"
#include "src/nn/loss.h"
#include "src/nn/optimizer.h"
#include "src/runtime/logging.h"

namespace shredder {
namespace core {

namespace {

/**
 * Freeze every network weight, writing only flags not yet set: once a
 * constructor has frozen them, concurrent trainers only read them.
 */
void
freeze(nn::Sequential& network)
{
    for (nn::Parameter* p : network.parameters()) {
        if (!p->frozen) {
            p->frozen = true;
        }
    }
}

}  // namespace

NoiseTrainer::NoiseTrainer(split::SplitModel& model,
                           const data::Dataset& train_set,
                           const NoiseTrainConfig& config)
    : model_(model), train_set_(train_set), config_(config)
{
    SHREDDER_REQUIRE(config.iterations > 0, "trainer needs iterations > 0");
    SHREDDER_REQUIRE(config.batch_size > 0, "trainer needs batch size > 0");
    SHREDDER_REQUIRE(train_set.size() > 0,
                     "trainer needs a non-empty training set");
    freeze(model_.network());
}

NoiseTrainResult
NoiseTrainer::train()
{
    // Weights unfrozen since construction are frozen again.
    freeze(model_.network());
    model_.revalidate_edge_memo();

    NoiseTrainResult result;
    // The run's private execution context: every edge/cloud pass of
    // this loop caches activations here, so concurrent trainers (or a
    // live server) can share the frozen network untouched.
    nn::ExecutionContext ctx(config_.seed * 0x9E3779B97F4A7C15ULL + 1);
    const auto edge_pass = [&](const Tensor& images) {
        return model_.edge_forward_memoized(images, ctx,
                                            &result.edge_passes);
    };

    // Noise tensor shaped like one activation sample at the cut.
    Shape act_shape =
        model_.activation_shape(train_set_.image_shape());
    Shape sample_shape;
    switch (act_shape.rank()) {
      case 2: sample_shape = Shape({act_shape[1]}); break;
      case 4:
        sample_shape = Shape({act_shape[1], act_shape[2], act_shape[3]});
        break;
      default:
        SHREDDER_FATAL("unsupported activation rank ", act_shape.rank());
    }
    NoiseInit init = config_.init;
    init.seed = config_.seed * 1315423911ULL + 17;
    if (config_.init_scale_relative) {
        // Calibrate against the activation RMS of a probe batch.
        const std::int64_t probe_count = std::min<std::int64_t>(
            config_.batch_size, train_set_.size());
        const data::Batch probe =
            data::materialize(train_set_, 0, probe_count);
        const Tensor act = edge_pass(probe.images);
        const double rms = std::sqrt(act.mean_square());
        init.scale = static_cast<float>(init.scale * rms /
                                        std::sqrt(2.0));
        SHREDDER_REQUIRE(init.scale > 0.0f,
                         "degenerate activation RMS at the cut");
    }
    NoiseTensor noise(sample_shape, init);

    nn::Adam optimizer({&noise.param()}, config_.learning_rate);
    ShredderLoss loss(config_.term, config_.lambda.initial_lambda);
    LambdaController lambda_ctrl(config_.lambda);

    Rng rng(config_.seed);
    data::DataLoader loader(train_set_, config_.batch_size,
                            /*shuffle=*/true, rng);

    double in_vivo = 0.0;
    double batch_acc = 0.0;
    for (int it = 0; it < config_.iterations; ++it) {
        auto batch = loader.next();
        if (!batch) {
            loader.reset();
            batch = loader.next();
            SHREDDER_CHECK(batch.has_value(), "empty training set");
        }

        // Edge forward (no gradients needed through L), memoized.
        const Tensor activation = edge_pass(batch->images);
        const Tensor noisy = noise.apply(activation);

        // Cloud forward + loss.
        const Tensor logits =
            model_.cloud_forward(noisy, ctx, nn::Mode::kEval);
        const ShredderLossValue lv =
            loss.compute(logits, batch->labels, noise.value());

        // Backward through R only; then the privacy term.
        optimizer.zero_grad();
        const Tensor grad_at_cut =
            model_.cloud_backward(lv.logits_grad, ctx);
        noise.accumulate_grad(grad_at_cut);
        loss.add_privacy_grad(noise.value(), noise.param().grad);
        optimizer.step();

        // In-vivo privacy on this batch; drive the λ schedule with it.
        in_vivo = info::in_vivo_privacy(activation, noise.value());
        loss.set_lambda(lambda_ctrl.observe(in_vivo));
        batch_acc = nn::accuracy(logits, batch->labels);

        if (config_.trace_every > 0 &&
            (it % config_.trace_every == 0 ||
             it == config_.iterations - 1)) {
            TracePoint tp;
            tp.iteration = it;
            tp.in_vivo_privacy = in_vivo;
            tp.batch_accuracy = batch_acc;
            tp.cross_entropy = lv.cross_entropy;
            tp.lambda = loss.lambda();
            result.trace.push_back(tp);
            if (config_.verbose) {
                inform("noise it ", it, ": 1/SNR=", in_vivo,
                       " acc=", tp.batch_accuracy, " ce=",
                       tp.cross_entropy, " lambda=", tp.lambda);
            }
        }
    }

    result.noise = noise.value();
    result.epochs = static_cast<double>(config_.iterations) *
                    static_cast<double>(config_.batch_size) /
                    static_cast<double>(train_set_.size());
    result.final_in_vivo = in_vivo;
    result.final_batch_accuracy = batch_acc;
    return result;
}

}  // namespace core
}  // namespace shredder
