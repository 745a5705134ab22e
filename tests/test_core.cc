/** @file Tests for the Shredder core (the paper's contribution). */
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <set>
#include <string>
#include <tuple>
#include <utility>

#include <gtest/gtest.h>

#include "src/core/lambda_controller.h"
#include "src/core/noise_collection.h"
#include "src/core/noise_distribution.h"
#include "src/core/noise_tensor.h"
#include "src/core/noise_trainer.h"
#include "src/core/privacy_meter.h"
#include "src/core/shredder_loss.h"
#include "src/data/dataloader.h"
#include "src/data/digits.h"
#include "src/data/textures.h"
#include "src/info/snr.h"
#include "src/models/zoo.h"
#include "src/nn/loss.h"
#include "src/nn/optimizer.h"
#include "src/runtime/logging.h"
#include "src/split/split_model.h"
#include "src/tensor/ops.h"
#include "tests/test_util.h"

namespace shredder {
namespace split {

/** Reaches the model's edge-memo budget, which has no public knob. */
struct SplitModelTestPeer
{
    static void
    set_edge_memo_bytes(SplitModel& model, std::size_t bytes)
    {
        model.set_edge_memo_bytes(bytes);
    }
};

}  // namespace split

namespace {

using core::LambdaController;
using core::LambdaSchedule;
using core::NoiseCollection;
using core::NoiseInit;
using core::NoiseSample;
using core::NoiseTensor;
using core::PrivacyTerm;
using core::ShredderLoss;

// ---------------------------------------------------------------------
// NoiseTensor
// ---------------------------------------------------------------------

TEST(NoiseTensor, LaplaceInitializationMoments)
{
    NoiseInit init;
    init.location = 0.5f;
    init.scale = 1.2f;
    NoiseTensor noise(Shape({64, 16, 4}), init);  // 4096 elems
    EXPECT_NEAR(noise.value().mean(), 0.5, 0.1);
    EXPECT_NEAR(noise.value().variance(), 2 * 1.2 * 1.2, 0.4);
}

TEST(NoiseTensor, ApplyBroadcastsOverBatch)
{
    NoiseTensor noise(Tensor::from_vector({1.0f, -1.0f}));
    Tensor act(Shape({3, 2}));
    act.fill(10.0f);
    Tensor out = noise.apply(act);
    for (std::int64_t n = 0; n < 3; ++n) {
        EXPECT_FLOAT_EQ(out.at2(n, 0), 11.0f);
        EXPECT_FLOAT_EQ(out.at2(n, 1), 9.0f);
    }
}

TEST(NoiseTensor, ApplyLeavesInputUntouched)
{
    NoiseTensor noise(Tensor::from_vector({5.0f}));
    Tensor act = Tensor::zeros(Shape({2, 1}));
    noise.apply(act);
    EXPECT_DOUBLE_EQ(act.abs_sum(), 0.0);
}

TEST(NoiseTensor, GradAccumulatesBatchSum)
{
    NoiseTensor noise(Tensor::from_vector({0.0f, 0.0f}));
    Tensor grad(Shape({3, 2}));
    grad.fill(1.0f);
    grad.at2(1, 1) = 4.0f;
    noise.accumulate_grad(grad);
    EXPECT_FLOAT_EQ(noise.param().grad[0], 3.0f);
    EXPECT_FLOAT_EQ(noise.param().grad[1], 6.0f);
}

TEST(NoiseTensor, SameSeedSameNoise)
{
    NoiseInit init;
    init.seed = 77;
    NoiseTensor a(Shape({32}), init);
    NoiseTensor b(Shape({32}), init);
    EXPECT_DOUBLE_EQ(ops::max_abs_diff(a.value(), b.value()), 0.0);
}

// ---------------------------------------------------------------------
// ShredderLoss
// ---------------------------------------------------------------------

TEST(ShredderLoss, L1TermMatchesEquation3)
{
    ShredderLoss loss(PrivacyTerm::kL1Expansion, 0.01f);
    Tensor logits(Shape({1, 2}));
    logits[0] = 5.0f;  // confident class 0
    Tensor noise = Tensor::from_vector({1.0f, -2.0f, 3.0f});
    const auto v = loss.compute(logits, {0}, noise);
    EXPECT_NEAR(v.privacy, -0.01 * 6.0, 1e-6);
    EXPECT_NEAR(v.total, v.cross_entropy + v.privacy, 1e-9);
}

TEST(ShredderLoss, L1GradPushesMagnitudesUp)
{
    // The Eq. 3 anti-decay: positive noise gets a negative gradient
    // (grows under descent), negative noise a positive one.
    ShredderLoss loss(PrivacyTerm::kL1Expansion, 0.5f);
    Tensor noise = Tensor::from_vector({2.0f, -3.0f, 0.0f});
    Tensor grad = Tensor::zeros(Shape({3}));
    loss.add_privacy_grad(noise, grad);
    EXPECT_FLOAT_EQ(grad[0], -0.5f);
    EXPECT_FLOAT_EQ(grad[1], 0.5f);
    EXPECT_FLOAT_EQ(grad[2], 0.0f);
}

TEST(ShredderLoss, InverseVarianceNumericGradient)
{
    ShredderLoss loss(PrivacyTerm::kInverseVariance, 0.3f);
    Rng rng(1);
    Tensor noise = Tensor::normal(Shape({16}), rng, 0.2f, 1.0f);
    Tensor analytic = Tensor::zeros(noise.shape());
    loss.add_privacy_grad(noise, analytic);

    const auto term = [&](const Tensor& n) {
        return 0.3 / n.variance();
    };
    const float eps = 1e-3f;
    for (std::int64_t i = 0; i < noise.size(); ++i) {
        Tensor np = noise;
        np[i] += eps;
        const double up = term(np);
        np[i] -= 2 * eps;
        const double dn = term(np);
        EXPECT_NEAR(analytic[i], (up - dn) / (2 * eps), 2e-2);
    }
}

TEST(ShredderLoss, NoneTermAddsNothing)
{
    ShredderLoss loss(PrivacyTerm::kNone, 0.5f);
    Tensor noise = Tensor::from_vector({1.0f, 2.0f});
    Tensor grad = Tensor::zeros(Shape({2}));
    loss.add_privacy_grad(noise, grad);
    EXPECT_DOUBLE_EQ(grad.abs_sum(), 0.0);
    Tensor logits(Shape({1, 2}));
    const auto v = loss.compute(logits, {0}, noise);
    EXPECT_DOUBLE_EQ(v.privacy, 0.0);
}

TEST(ShredderLoss, LambdaZeroReducesToCrossEntropy)
{
    ShredderLoss loss(PrivacyTerm::kL1Expansion, 0.0f);
    Tensor logits(Shape({1, 3}));
    Tensor noise = Tensor::from_vector({100.0f});
    const auto v = loss.compute(logits, {1}, noise);
    EXPECT_DOUBLE_EQ(v.privacy, 0.0);
    EXPECT_DOUBLE_EQ(v.total, v.cross_entropy);
}

// ---------------------------------------------------------------------
// LambdaController
// ---------------------------------------------------------------------

TEST(LambdaController, NoTargetNoDecay)
{
    LambdaSchedule sched;
    sched.initial_lambda = 0.01f;
    sched.privacy_target = 0.0;  // disabled
    LambdaController ctrl(sched);
    for (int i = 0; i < 10; ++i) {
        EXPECT_FLOAT_EQ(ctrl.observe(100.0), 0.01f);
    }
    EXPECT_FALSE(ctrl.stabilized());
}

TEST(LambdaController, DecaysAfterPatienceAboveTarget)
{
    LambdaSchedule sched;
    sched.initial_lambda = 0.01f;
    sched.privacy_target = 0.5;
    sched.decay = 0.1f;
    sched.patience = 3;
    LambdaController ctrl(sched);
    ctrl.observe(0.6);
    ctrl.observe(0.6);
    EXPECT_FLOAT_EQ(ctrl.lambda(), 0.01f);  // not yet
    ctrl.observe(0.6);
    EXPECT_FLOAT_EQ(ctrl.lambda(), 0.001f);
    EXPECT_TRUE(ctrl.stabilized());
    EXPECT_EQ(ctrl.decays(), 1);
}

TEST(LambdaController, BelowTargetResetsStreak)
{
    LambdaSchedule sched;
    sched.initial_lambda = 0.01f;
    sched.privacy_target = 0.5;
    sched.patience = 2;
    LambdaController ctrl(sched);
    ctrl.observe(0.6);
    ctrl.observe(0.4);  // resets
    ctrl.observe(0.6);
    EXPECT_FLOAT_EQ(ctrl.lambda(), 0.01f);
    ctrl.observe(0.6);
    EXPECT_LT(ctrl.lambda(), 0.01f);
}

TEST(LambdaController, RespectsFloor)
{
    LambdaSchedule sched;
    sched.initial_lambda = 1e-3f;
    sched.privacy_target = 0.1;
    sched.decay = 0.1f;
    sched.min_lambda = 1e-4f;
    sched.patience = 1;
    LambdaController ctrl(sched);
    for (int i = 0; i < 10; ++i) {
        ctrl.observe(1.0);
    }
    EXPECT_FLOAT_EQ(ctrl.lambda(), 1e-4f);
}

// ---------------------------------------------------------------------
// NoiseCollection
// ---------------------------------------------------------------------

NoiseSample
make_sample(float fill, double privacy)
{
    NoiseSample s;
    s.noise = Tensor::full(Shape({4}), fill);
    s.in_vivo_privacy = privacy;
    s.train_accuracy = 0.9;
    return s;
}

TEST(NoiseCollection, AddGetDraw)
{
    NoiseCollection col;
    EXPECT_TRUE(col.empty());
    col.add(make_sample(1.0f, 0.5));
    col.add(make_sample(2.0f, 0.7));
    EXPECT_EQ(col.size(), 2);
    EXPECT_FLOAT_EQ(col.get(1).noise[0], 2.0f);
    EXPECT_NEAR(col.mean_in_vivo_privacy(), 0.6, 1e-9);

    Rng rng(1);
    for (int i = 0; i < 10; ++i) {
        const float v = col.draw(rng).noise[0];
        EXPECT_TRUE(v == 1.0f || v == 2.0f);
    }
}

TEST(NoiseCollection, DrawHitsAllSamples)
{
    NoiseCollection col;
    for (int i = 0; i < 4; ++i) {
        col.add(make_sample(static_cast<float>(i), 0.1));
    }
    Rng rng(2);
    std::set<float> seen;
    for (int i = 0; i < 200; ++i) {
        seen.insert(col.draw(rng).noise[0]);
    }
    EXPECT_EQ(seen.size(), 4u);
}

TEST(NoiseCollection, SaveLoadRoundTrip)
{
    NoiseCollection col;
    col.add(make_sample(3.5f, 0.42));
    col.add(make_sample(-1.0f, 0.55));
    const std::string path =
        (std::filesystem::temp_directory_path() / "shredder_col_test.bin")
            .string();
    col.save(path);
    const NoiseCollection loaded = NoiseCollection::load(path);
    ASSERT_EQ(loaded.size(), 2);
    EXPECT_FLOAT_EQ(loaded.get(0).noise[0], 3.5f);
    EXPECT_NEAR(loaded.get(1).in_vivo_privacy, 0.55, 1e-12);
    EXPECT_NEAR(loaded.get(0).train_accuracy, 0.9, 1e-12);
    std::remove(path.c_str());
}

TEST(NoiseCollection, RejectsShapeMismatch)
{
    NoiseCollection col;
    col.add(make_sample(1.0f, 0.5));
    NoiseSample bad;
    bad.noise = Tensor::zeros(Shape({8}));
    EXPECT_EXIT(col.add(std::move(bad)), ::testing::ExitedWithCode(1),
                "mismatch");
}

// ---------------------------------------------------------------------
// NoiseDistribution (paper §2.5)
// ---------------------------------------------------------------------

TEST(NoiseDistribution, FitRecoversLocationAndSpread)
{
    // Elements alternate between −3 and +3 across two samples:
    // location 0, Laplace scale = mean|d| = 3.
    NoiseCollection col;
    col.add(make_sample(3.0f, 0.5));
    col.add(make_sample(-3.0f, 0.5));
    const auto dist =
        core::NoiseDistribution::fit(col, core::NoiseFamily::kLaplace);
    EXPECT_NEAR(dist.location()[0], 0.0f, 1e-6);
    EXPECT_NEAR(dist.scale()[0], 3.0f, 1e-6);
    EXPECT_NEAR(dist.mean_variance(), 2.0 * 9.0, 1e-6);
}

TEST(NoiseDistribution, GaussianFamilyUsesStddev)
{
    NoiseCollection col;
    col.add(make_sample(2.0f, 0.5));
    col.add(make_sample(-2.0f, 0.5));
    const auto dist =
        core::NoiseDistribution::fit(col, core::NoiseFamily::kGaussian);
    EXPECT_NEAR(dist.scale()[0], 2.0f, 1e-6);
    EXPECT_NEAR(dist.mean_variance(), 4.0, 1e-6);
}

TEST(NoiseDistribution, SamplesMatchFittedMoments)
{
    NoiseCollection col;
    col.add(make_sample(4.0f, 0.5));
    col.add(make_sample(-4.0f, 0.5));
    const auto dist = core::NoiseDistribution::fit(col);
    Rng rng(1);
    double sum = 0.0, sq = 0.0;
    const int draws = 4000;
    for (int i = 0; i < draws; ++i) {
        const Tensor s = dist.sample(rng);
        for (std::int64_t j = 0; j < s.size(); ++j) {
            sum += s[j];
            sq += static_cast<double>(s[j]) * s[j];
        }
    }
    const double n = static_cast<double>(draws) * 4.0;
    const double mean = sum / n;
    const double var = sq / n - mean * mean;
    EXPECT_NEAR(mean, 0.0, 0.3);
    EXPECT_NEAR(var, 2.0 * 16.0, 2.0);  // Laplace var = 2b²
}

TEST(NoiseDistribution, SingleSampleFitStaysStochastic)
{
    // With one stored tensor the naive scale is 0; the floor must keep
    // sampling non-degenerate (a deterministic transform gives no
    // privacy at all).
    NoiseCollection col;
    col.add(make_sample(5.0f, 0.5));
    const auto dist = core::NoiseDistribution::fit(col);
    Rng rng(2);
    const Tensor a = dist.sample(rng);
    const Tensor b = dist.sample(rng);
    EXPECT_GT(ops::max_abs_diff(a, b), 1e-4);
}

TEST(NoiseDistribution, FitOnEmptyCollectionIsFatal)
{
    NoiseCollection col;
    EXPECT_EXIT(core::NoiseDistribution::fit(col),
                ::testing::ExitedWithCode(1), "empty");
}

// ---------------------------------------------------------------------
// NoiseTrainer: edge memo, read contract, input checks
// ---------------------------------------------------------------------

using core::NoiseTrainConfig;
using core::NoiseTrainer;
using core::NoiseTrainResult;
using split::SplitModelTestPeer;

/**
 * The noise-learning loop without the edge memo, kept verbatim as the
 * reference: L runs on every step. `NoiseTrainer::train` must
 * reproduce it bit for bit.
 */
NoiseTrainResult
reference_train(split::SplitModel& model_, const data::Dataset& train_set_,
                const NoiseTrainConfig& config_)
{
    using namespace core;
    // Freeze every network weight: Shredder never retrains the model.
    for (nn::Parameter* p : model_.network().parameters()) {
        p->frozen = true;
    }

    // The run's private execution context: every edge/cloud pass of
    // this loop caches activations here, so concurrent trainers (or a
    // live server) can share the frozen network untouched.
    nn::ExecutionContext ctx(config_.seed * 0x9E3779B97F4A7C15ULL + 1);

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
        const Tensor act =
            model_.edge_forward(probe.images, ctx, nn::Mode::kEval);
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

    NoiseTrainResult result;
    double in_vivo = 0.0;
    double batch_acc = 0.0;
    for (int it = 0; it < config_.iterations; ++it) {
        auto batch = loader.next();
        if (!batch) {
            loader.reset();
            batch = loader.next();
            SHREDDER_CHECK(batch.has_value(), "empty training set");
        }

        // Edge forward (no gradients needed through L).
        const Tensor activation =
            model_.edge_forward(batch->images, ctx, nn::Mode::kEval);
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

/** Bit equality (NaN-safe, unlike `==`). */
bool
same_bits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

/** Expect bit-identical noise, trace and final statistics. */
void
expect_same_result(const NoiseTrainResult& got, const NoiseTrainResult& want)
{
    if (got.noise.shape() != want.noise.shape()) {
        ADD_FAILURE() << "noise shape " << got.noise.shape().to_string()
                      << " vs " << want.noise.shape().to_string();
        return;
    }
    EXPECT_EQ(std::memcmp(got.noise.data(), want.noise.data(),
                          sizeof(float) *
                              static_cast<std::size_t>(want.noise.size())),
              0)
        << "learned noise differs";
    EXPECT_EQ(got.trace.size(), want.trace.size());
    for (std::size_t i = 0;
         i < std::min(got.trace.size(), want.trace.size()); ++i) {
        const core::TracePoint& g = got.trace[i];
        const core::TracePoint& w = want.trace[i];
        EXPECT_EQ(g.iteration, w.iteration) << "trace point " << i;
        EXPECT_TRUE(same_bits(g.in_vivo_privacy, w.in_vivo_privacy))
            << "trace point " << i;
        EXPECT_TRUE(same_bits(g.batch_accuracy, w.batch_accuracy))
            << "trace point " << i;
        EXPECT_TRUE(same_bits(g.cross_entropy, w.cross_entropy))
            << "trace point " << i;
        EXPECT_TRUE(same_bits(g.lambda, w.lambda)) << "trace point " << i;
    }
    EXPECT_TRUE(same_bits(got.epochs, want.epochs));
    EXPECT_TRUE(same_bits(got.final_in_vivo, want.final_in_vivo));
    EXPECT_TRUE(
        same_bits(got.final_batch_accuracy, want.final_batch_accuracy));
}

/**
 * Train through the model's edge memo and with the reference loop, and
 * expect bit-identical results.
 */
NoiseTrainResult
train_matching_reference(split::SplitModel& model, const data::Dataset& ds,
                         const NoiseTrainConfig& cfg)
{
    const NoiseTrainResult want = reference_train(model, ds, cfg);
    NoiseTrainResult got = NoiseTrainer(model, ds, cfg).train();
    expect_same_result(got, want);
    return got;
}

/** What the training loop's mini-batches visit, replayed. */
struct Visits
{
    std::vector<std::int64_t> order;  ///< Every row, in loader order.
    std::int64_t distinct = 0;        ///< Distinct samples among them.
    /**
     * Rows an empty, unbounded edge memo runs through L: the probe's,
     * then every row of each batch with a row not yet kept.
     */
    std::int64_t memo_passes = 0;

    std::int64_t rows() const
    {
        return static_cast<std::int64_t>(order.size());
    }
};

/** Samples the calibration probe runs through L. */
std::int64_t
probe_rows(const data::Dataset& ds, const NoiseTrainConfig& cfg)
{
    return cfg.init_scale_relative ? std::min(cfg.batch_size, ds.size())
                                   : 0;
}

Visits
loader_visits(const data::Dataset& ds, const NoiseTrainConfig& cfg)
{
    std::set<std::int64_t> kept;
    Visits v;
    for (std::int64_t i = 0; i < probe_rows(ds, cfg); ++i) {
        kept.insert(i);
    }
    v.memo_passes = probe_rows(ds, cfg);
    Rng rng(cfg.seed);
    data::DataLoader loader(ds, cfg.batch_size, /*shuffle=*/true, rng);
    for (int it = 0; it < cfg.iterations; ++it) {
        auto batch = loader.next();
        if (!batch) {
            loader.reset();
            batch = loader.next();
        }
        v.order.insert(v.order.end(), batch->indices.begin(),
                       batch->indices.end());
        if (std::any_of(batch->indices.begin(), batch->indices.end(),
                        [&](std::int64_t i) { return kept.count(i) == 0; })) {
            v.memo_passes += batch->size();
            kept.insert(batch->indices.begin(), batch->indices.end());
        }
    }
    v.distinct = static_cast<std::int64_t>(
        std::set<std::int64_t>(v.order.begin(), v.order.end()).size());
    return v;
}

/** A small recipe that visits each sample several times. */
NoiseTrainConfig
pin_recipe(std::int64_t batch, int iterations, bool relative)
{
    NoiseTrainConfig cfg;
    cfg.batch_size = batch;
    cfg.iterations = iterations;
    cfg.init.scale = relative ? 1.5f : 0.5f;
    cfg.init_scale_relative = relative;
    cfg.lambda.initial_lambda = 1e-2f;
    cfg.lambda.privacy_target = 0.5;
    cfg.lambda.patience = 2;
    cfg.trace_every = 1;
    cfg.seed = 9000 + static_cast<std::uint64_t>(batch * 31 + iterations);
    return cfg;
}

data::DigitsDataset
pin_digits()
{
    data::DigitsConfig c;
    c.count = 37;  // not a multiple of 16: every epoch ends partial
    c.seed = 77;
    return data::DigitsDataset(c);
}

/** Bytes of the edge weights a model's memo copies. */
std::size_t
edge_weight_bytes(split::SplitModel& model)
{
    std::size_t floats = 0;
    for (std::int64_t i = 0; i < model.cut(); ++i) {
        for (const nn::Parameter* p : model.network().layer(i).parameters()) {
            floats += static_cast<std::size_t>(p->value.size());
        }
    }
    return sizeof(float) * floats;
}

TEST(NoiseTrainer, EdgeMemoIsBitExactAtEveryLenetCut)
{
    Rng rng(21);
    auto net = models::make_lenet(rng);
    const data::DigitsDataset ds = pin_digits();
    const auto conv_cuts = split::conv_cut_points(*net);
    ASSERT_EQ(conv_cuts.size(), 3u);
    // One more cut, past the first Linear: its GEMM path depends on
    // the batch size, so that edge keeps nothing and runs every step.
    std::vector<std::int64_t> cuts = conv_cuts;
    for (std::int64_t i = 0; i < net->size(); ++i) {
        if (net->layer(i).kind() == "linear") {
            cuts.push_back(i + 1);
            break;
        }
    }
    ASSERT_EQ(cuts.size(), 4u);
    for (const std::int64_t cut : cuts) {
        const bool memoized = cut != cuts.back();
        // Batch 16: 3 batches per epoch (16, 16, 5), ~3.5 epochs.
        // Batch 1: ~2.4 epochs, with the calibration probe.
        for (const auto& [batch, iterations, relative] :
             {std::tuple<std::int64_t, int, bool>{16, 10, false},
              std::tuple<std::int64_t, int, bool>{1, 90, true}}) {
            SCOPED_TRACE("cut " + std::to_string(cut) + " batch " +
                         std::to_string(batch));
            const NoiseTrainConfig cfg =
                pin_recipe(batch, iterations, relative);
            const Visits v = loader_visits(ds, cfg);
            // A fresh model: its memo starts empty.
            split::SplitModel model(*net, cut);
            const NoiseTrainResult r =
                train_matching_reference(model, ds, cfg);
            // Memoized: L ran once per sample, every later visit hit.
            if (memoized) {
                EXPECT_EQ(r.edge_passes, v.distinct);
                EXPECT_EQ(r.edge_passes, ds.size());
            } else {
                EXPECT_EQ(r.edge_passes, v.rows() + probe_rows(ds, cfg));
            }
            // A second trainer on the model: every row hits, or, past
            // the Linear, every row runs through L again.
            const NoiseTrainResult again =
                train_matching_reference(model, ds, cfg);
            EXPECT_EQ(again.edge_passes, memoized ? 0 : r.edge_passes);
        }
    }
}

TEST(NoiseTrainer, EdgeMemoIsBitExactThroughAlexnetLrn)
{
    // The first cut's edge is conv1 + ReLU; the second adds LRN,
    // overlapping max-pool and conv2 (rank-4, 32×32×32 and 64×15×15).
    Rng rng(22);
    auto net = models::make_alexnet(rng);
    data::TexturesConfig tc;
    tc.count = 7;
    tc.seed = 78;
    const data::TexturesDataset ds(tc);
    const auto cuts = split::conv_cut_points(*net);
    for (const std::int64_t cut : {cuts[0], cuts[1]}) {
        SCOPED_TRACE("cut " + std::to_string(cut));
        split::SplitModel model(*net, cut);
        const NoiseTrainConfig cfg = pin_recipe(3, 6, true);
        const NoiseTrainResult r = train_matching_reference(model, ds, cfg);
        EXPECT_EQ(r.edge_passes, loader_visits(ds, cfg).memo_passes);
    }
}

TEST(NoiseTrainer, EdgeMemoOverBudgetRecomputesAndStaysBitExact)
{
    Rng rng(23);
    auto net = models::make_lenet(rng);
    const data::DigitsDataset ds = pin_digits();
    split::SplitModel model(*net, split::conv_cut_points(*net).front());
    // The budget counts the weight copy, then each row's input and
    // activation.
    const std::size_t weights = edge_weight_bytes(model);
    const std::size_t row_bytes =
        sizeof(float) *
        static_cast<std::size_t>(
            ds.image_shape().numel() +
            model.activation_shape(ds.image_shape()).numel());
    ASSERT_GT(weights, 0u);

    // No room for the weight copy, or for no row past it: L runs for
    // every row of every step, as without a memo.
    for (const std::size_t budget : {weights - 1, weights + row_bytes - 1}) {
        SplitModelTestPeer::set_edge_memo_bytes(model, budget);
        const NoiseTrainConfig cfg = pin_recipe(16, 10, false);
        const NoiseTrainResult r = train_matching_reference(model, ds, cfg);
        EXPECT_EQ(r.edge_passes, loader_visits(ds, cfg).rows());
    }
    // Room for 5 rows at batch 1 (the probe's among them): those 5
    // hit, the other 32 samples run through L on every visit.
    {
        SplitModelTestPeer::set_edge_memo_bytes(model,
                                                weights + 5 * row_bytes);
        const NoiseTrainConfig cfg = pin_recipe(1, 90, true);
        const Visits v = loader_visits(ds, cfg);
        const NoiseTrainResult r = train_matching_reference(model, ds, cfg);
        EXPECT_GT(r.edge_passes, v.distinct);
        EXPECT_LT(r.edge_passes, v.rows());
    }
    // Room for 30 rows at batch 4: the budget runs out inside a
    // batch, and later batches mixing kept and unkept rows run
    // through L while all-kept ones hit.
    {
        SplitModelTestPeer::set_edge_memo_bytes(
            model, weights + 30 * row_bytes + 1);
        const NoiseTrainConfig cfg = pin_recipe(4, 40, false);
        const Visits v = loader_visits(ds, cfg);
        const NoiseTrainResult r = train_matching_reference(model, ds, cfg);
        EXPECT_GT(r.edge_passes, v.distinct);
        EXPECT_LT(r.edge_passes, v.rows());
    }
}

TEST(NoiseTrainer, SixTrainersOnOneModelMatchSixOnFreshModels)
{
    // A collection's tensors: the first trainer fills the shared memo,
    // the other five run no sample through L.
    Rng rng(27);
    auto net = models::make_lenet(rng);
    const data::DigitsDataset ds = pin_digits();
    const std::int64_t cut = split::conv_cut_points(*net).back();
    split::SplitModel shared(*net, cut);
    for (int t = 0; t < 6; ++t) {
        SCOPED_TRACE("tensor " + std::to_string(t));
        NoiseTrainConfig cfg = pin_recipe(4, 40, t % 2 == 1);
        cfg.seed += static_cast<std::uint64_t>(t) * 101;
        split::SplitModel fresh(*net, cut);
        const NoiseTrainResult want = NoiseTrainer(fresh, ds, cfg).train();
        const NoiseTrainResult got = NoiseTrainer(shared, ds, cfg).train();
        expect_same_result(got, want);
        EXPECT_EQ(want.edge_passes, loader_visits(ds, cfg).memo_passes);
        EXPECT_EQ(got.edge_passes, t == 0 ? want.edge_passes : 0);
    }
}

TEST(NoiseTrainer, EdgeMemoEmptiesWhenAnEdgeWeightChanges)
{
    Rng rng(28);
    auto net = models::make_lenet(rng);
    const data::DigitsDataset ds = pin_digits();
    const std::int64_t cut = split::conv_cut_points(*net).back();
    split::SplitModel model(*net, cut);
    const NoiseTrainConfig cfg = pin_recipe(4, 40, true);
    const NoiseTrainResult before = NoiseTrainer(model, ds, cfg).train();

    // One edge weight changes between `train()` calls.
    ASSERT_EQ(net->layer(0).kind(), "conv2d");
    net->layer(0).parameters().front()->value[0] += 0.5f;
    split::SplitModel fresh(*net, cut);
    const NoiseTrainResult want = NoiseTrainer(fresh, ds, cfg).train();
    const NoiseTrainResult got = NoiseTrainer(model, ds, cfg).train();
    expect_same_result(got, want);
    EXPECT_EQ(got.edge_passes, want.edge_passes);
    EXPECT_EQ(got.edge_passes, loader_visits(ds, cfg).memo_passes);
    // The rows kept before the change would have replayed `before`.
    EXPECT_NE(std::memcmp(got.noise.data(), before.noise.data(),
                          sizeof(float) *
                              static_cast<std::size_t>(got.noise.size())),
              0);
}

/** Returns a brighter image on the second read of each index only. */
class SecondReadChangesDataset : public data::Dataset
{
  public:
    explicit SecondReadChangesDataset(const data::Dataset& inner)
        : inner_(inner), reads_(static_cast<std::size_t>(inner.size()))
    {
    }

    std::int64_t size() const override { return inner_.size(); }
    data::Sample
    get(std::int64_t idx) const override
    {
        data::Sample s = inner_.get(idx);
        if (++reads_[static_cast<std::size_t>(idx)] == 2) {
            for (std::int64_t i = 0; i < s.image.size(); ++i) {
                s.image[i] += 0.25f;
            }
        }
        return s;
    }
    Shape image_shape() const override { return inner_.image_shape(); }
    std::int64_t num_classes() const override
    {
        return inner_.num_classes();
    }
    std::string name() const override { return inner_.name(); }

  private:
    const data::Dataset& inner_;
    mutable std::vector<int> reads_;
};

TEST(NoiseTrainer, EdgeMemoNeverServesARowForAChangedImage)
{
    // Rows are keyed by image bytes, not by index: the second read of
    // an index is a new image and runs through L; the third read is
    // the first image again and may hit.
    Rng rng(29);
    auto net = models::make_lenet(rng);
    const data::DigitsDataset inner = pin_digits();
    split::SplitModel model(*net, split::conv_cut_points(*net).back());
    const NoiseTrainConfig cfg = pin_recipe(4, 40, true);
    const SecondReadChangesDataset ref_ds(inner);
    const SecondReadChangesDataset ds(inner);
    const NoiseTrainResult want = reference_train(model, ref_ds, cfg);
    const NoiseTrainResult got = NoiseTrainer(model, ds, cfg).train();
    expect_same_result(got, want);
    EXPECT_GT(got.edge_passes, loader_visits(inner, cfg).memo_passes);
}

TEST(PrivacyMeter, ReadsTheEdgeThroughTheModelMemo)
{
    Rng rng(30);
    auto net = models::make_lenet(rng);
    const data::DigitsDataset train = pin_digits();
    data::DigitsConfig tc;
    tc.count = 29;
    tc.seed = 80;
    const data::DigitsDataset test(tc);
    const std::int64_t cut = split::conv_cut_points(*net).back();
    core::MeterConfig mc;
    mc.accuracy_samples = 29;
    mc.mi_samples = 24;
    mc.batch_size = 8;
    mc.mi.max_dims = 4;

    split::SplitModel shared(*net, cut);
    const NoiseTrainResult noise =
        NoiseTrainer(shared, train, pin_recipe(4, 20, true)).train();
    core::PrivacyMeter meter(shared, test, mc);
    const core::PrivacyReport clean = meter.measure_clean();
    const core::PrivacyReport fixed = meter.measure_fixed(noise.noise);

    // The clean pass kept every test row: L runs for none of them.
    std::int64_t passes = 0;
    nn::ExecutionContext ctx;
    shared.edge_forward_memoized(data::materialize(test, 0, 29).images,
                                 ctx, &passes);
    EXPECT_EQ(passes, 0);

    // Reports equal those of a model with no memo, bit for bit.
    split::SplitModel plain(*net, cut);
    SplitModelTestPeer::set_edge_memo_bytes(plain, 0);
    core::PrivacyMeter plain_meter(plain, test, mc);
    for (const auto& [got, want] :
         {std::pair<core::PrivacyReport, core::PrivacyReport>{
              clean, plain_meter.measure_clean()},
          {fixed, plain_meter.measure_fixed(noise.noise)}}) {
        EXPECT_TRUE(same_bits(got.mi_bits, want.mi_bits));
        EXPECT_TRUE(same_bits(got.accuracy, want.accuracy));
        EXPECT_TRUE(same_bits(got.in_vivo, want.in_vivo));
        EXPECT_EQ(got.samples, want.samples);
    }
}

/** Delegates to a dataset and records every `get`, in call order. */
class RecordingDataset : public data::Dataset
{
  public:
    explicit RecordingDataset(const data::Dataset& inner) : inner_(inner) {}

    std::int64_t size() const override { return inner_.size(); }
    data::Sample
    get(std::int64_t idx) const override
    {
        reads_.push_back(idx);
        return inner_.get(idx);
    }
    Shape image_shape() const override { return inner_.image_shape(); }
    std::int64_t num_classes() const override
    {
        return inner_.num_classes();
    }
    std::string name() const override { return inner_.name(); }

    const std::vector<std::int64_t>& reads() const { return reads_; }

  private:
    const data::Dataset& inner_;
    mutable std::vector<std::int64_t> reads_;
};

TEST(NoiseTrainer, ReadsProbeThenEveryBatchSampleInLoaderOrder)
{
    // A memo hit skips L, never the read: `get` runs once per row of
    // every mini-batch, after the calibration probe (indices 0..b-1).
    Rng rng(25);
    auto net = models::make_lenet(rng);
    split::SplitModel model(*net, split::conv_cut_points(*net).back());
    data::DigitsConfig c;
    c.count = 20;
    c.seed = 79;
    const data::DigitsDataset inner(c);
    for (const bool relative : {false, true}) {
        SCOPED_TRACE(relative ? "relative init" : "absolute init");
        const NoiseTrainConfig cfg = pin_recipe(4, 13, relative);
        RecordingDataset recorded(inner);
        NoiseTrainer(model, recorded, cfg).train();

        std::vector<std::int64_t> expect;
        if (relative) {
            for (std::int64_t i = 0; i < cfg.batch_size; ++i) {
                expect.push_back(i);
            }
        }
        const Visits v = loader_visits(inner, cfg);
        expect.insert(expect.end(), v.order.begin(), v.order.end());
        const std::size_t probe = relative ? 4 : 0;
        EXPECT_EQ(recorded.reads().size(),
                  probe + static_cast<std::size_t>(cfg.iterations) * 4);
        EXPECT_EQ(recorded.reads(), expect);
    }
}

/** A dataset with no samples. */
class EmptyDataset : public data::Dataset
{
  public:
    std::int64_t size() const override { return 0; }
    data::Sample
    get(std::int64_t idx) const override
    {
        SHREDDER_FATAL("get(", idx, ") on an empty dataset");
    }
    Shape image_shape() const override { return Shape({1, 28, 28}); }
    std::int64_t num_classes() const override { return 10; }
    std::string name() const override { return "empty"; }
};

TEST(NoiseTrainerDeathTest, EmptyTrainingSetIsAUserError)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    Rng rng(26);
    auto net = models::make_lenet(rng);
    split::SplitModel model(*net, split::conv_cut_points(*net).back());
    const EmptyDataset empty;
    for (const bool relative : {false, true}) {
        NoiseTrainConfig cfg;
        cfg.init_scale_relative = relative;
        EXPECT_EXIT(NoiseTrainer(model, empty, cfg).train(),
                    ::testing::ExitedWithCode(1),
                    "requirement failed.*non-empty training set");
    }
}

}  // namespace
}  // namespace shredder
