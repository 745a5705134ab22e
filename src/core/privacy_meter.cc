/**
 * @file
 * Implementation of the ex-vivo privacy measurement harness (§2.2, §3).
 */
#include "src/core/privacy_meter.h"

#include <algorithm>

#include "src/info/snr.h"
#include "src/nn/loss.h"
#include "src/runtime/logging.h"

namespace shredder {
namespace core {

PrivacyMeter::PrivacyMeter(split::SplitModel& model,
                           const data::Dataset& test_set,
                           const MeterConfig& config)
    : model_(model), test_set_(test_set), config_(config)
{
    SHREDDER_REQUIRE(config.accuracy_samples > 0 && config.mi_samples > 0,
                     "meter needs positive sample counts");
}

PrivacyReport
PrivacyMeter::measure_clean()
{
    return measure_impl(runtime::NoNoisePolicy());
}

PrivacyReport
PrivacyMeter::measure_fixed(const Tensor& noise)
{
    return measure_impl(runtime::FixedNoisePolicy(noise));
}

PrivacyReport
PrivacyMeter::measure_replay(const NoiseCollection& collection)
{
    SHREDDER_REQUIRE(!collection.empty(),
                     "measure_replay with empty collection");
    return measure_impl(runtime::ReplayPolicy(collection, config_.seed));
}

PrivacyReport
PrivacyMeter::measure_sampling(const NoiseCollection& collection)
{
    SHREDDER_REQUIRE(!collection.empty(),
                     "measure_sampling with empty collection");
    const NoiseDistribution dist =
        NoiseDistribution::fit(collection, config_.family);
    return measure_distribution(dist);
}

PrivacyReport
PrivacyMeter::measure_distribution(const NoiseDistribution& dist)
{
    return measure_impl(runtime::SamplePolicy(dist, config_.seed));
}

PrivacyReport
PrivacyMeter::measure_policy(const runtime::NoisePolicy& policy)
{
    return measure_impl(policy);
}

PrivacyReport
PrivacyMeter::measure_impl(const runtime::NoisePolicy& policy)
{
    const std::int64_t total = std::min(
        test_set_.size(),
        std::max(config_.accuracy_samples, config_.mi_samples));
    const std::int64_t mi_total = std::min(config_.mi_samples, total);
    const std::int64_t acc_total =
        std::min(config_.accuracy_samples, total);

    const Shape img = test_set_.image_shape();
    const std::int64_t dx = img.numel();
    const Shape act_shape = model_.activation_shape(img);
    const std::int64_t da = act_shape.numel();  // batch dim is 1 here

    Tensor inputs(Shape({mi_total, dx}));
    Tensor transmitted(Shape({mi_total, da}));

    // Per-measurement context: the meter never touches the weights.
    // It runs forward-only, so layers keep no backward caches.
    nn::ExecutionContext ctx(config_.seed ^ 0xA5A5A5A5A5A5A5A5ULL);
    model_.revalidate_edge_memo();
    ctx.set_retain_activations(false);
    double correct_weighted = 0.0;
    std::int64_t acc_counted = 0;
    double signal_acc = 0.0, noise_var_acc = 0.0;
    std::int64_t snr_terms = 0;

    Tensor act_row(Shape({da}));    // one query's activation
    Tensor noise_row(Shape({da}));  // its applied noise (noisy − clean)

    std::int64_t done = 0;
    while (done < total) {
        const std::int64_t count =
            std::min(config_.batch_size, total - done);
        const data::Batch batch =
            data::materialize(test_set_, done, count);

        const Tensor activation =
            model_.edge_forward_memoized(batch.images, ctx);

        // Apply the policy row by row, exactly as a server applies it
        // per request: query `done + i` uses request id `done + i`,
        // through the same `apply_into` hot path `execute_batch` uses
        // (the row already holds the activation copy).
        Tensor noisy = activation;
        float* p = noisy.data();
        const float* pa = activation.data();
        for (std::int64_t i = 0; i < count; ++i) {
            const auto id = static_cast<std::uint64_t>(done + i);
            std::copy(pa + i * da, pa + (i + 1) * da, act_row.data());
            policy.apply_into(act_row, id, p + i * da);
            for (std::int64_t j = 0; j < da; ++j) {
                noise_row.data()[j] = p[i * da + j] - act_row[j];
            }
            noise_var_acc += noise_row.variance();
            ++snr_terms;
        }
        signal_acc +=
            activation.mean_square() * static_cast<double>(count);

        for (std::int64_t i = 0; i < count && done + i < mi_total; ++i) {
            const std::int64_t row = done + i;
            std::copy(batch.images.data() + i * dx,
                      batch.images.data() + (i + 1) * dx,
                      inputs.data() + row * dx);
            std::copy(noisy.data() + i * da, noisy.data() + (i + 1) * da,
                      transmitted.data() + row * da);
        }

        if (done < acc_total) {
            const Tensor logits =
                model_.cloud_forward(noisy, ctx, nn::Mode::kEval);
            correct_weighted += nn::accuracy(logits, batch.labels) *
                                static_cast<double>(count);
            acc_counted += count;
        }
        done += count;
    }

    PrivacyReport report;
    const info::DimwiseMiEstimator estimator(config_.mi);
    report.mi_bits = estimator.estimate(inputs, transmitted);
    report.ex_vivo = info::ex_vivo_privacy(report.mi_bits);
    report.accuracy =
        acc_counted > 0
            ? correct_weighted / static_cast<double>(acc_counted)
            : 0.0;
    if (snr_terms > 0 && noise_var_acc > 0.0) {
        const double snr =
            (signal_acc / static_cast<double>(snr_terms)) /
            (noise_var_acc / static_cast<double>(snr_terms));
        report.in_vivo = snr > 0.0 ? 1.0 / snr : 0.0;
    }
    report.samples = mi_total;
    return report;
}

}  // namespace core
}  // namespace shredder
