/**
 * @file
 * Ex-vivo privacy measurement harness (paper §2.2, §3).
 *
 * Collects (input, transmitted-activation) sample pairs over a test
 * set, estimates the mutual information between them with the
 * dimension-wise estimator (DESIGN.md §2), and measures end-to-end
 * accuracy. Four modes:
 *
 *  - clean     : no noise (the paper's "original execution");
 *  - fixed     : one converged tensor replayed on every query —
 *                deterministic, so true MI barely moves (this is why
 *                the paper's §2.5 sampling phase exists);
 *  - replay    : per-query draw of a *stored* tensor from the
 *                collection (ablation D3);
 *  - sampling  : per-query draw from the *fitted* noise distribution —
 *                the paper's deployment path.
 *
 * Every mode is measured THROUGH a `runtime::NoisePolicy` — the same
 * objects the serving path executes (`InferenceServer`,
 * `ServingEngine`). Query `q` of a pass applies the policy under
 * request id `q`, so a server configured with the same policy (same
 * seed) and request ids `0..N−1` adds bit-identical noise to identical
 * activations: the mechanism whose privacy this meter reports is
 * bit-for-bit the mechanism that is deployed. `measure_policy`
 * measures any caller-supplied policy directly.
 *
 * The edge runs through the model's edge memo (split_model.h), which
 * each pass revalidates once: a second pass over the same test rows,
 * or rows a `NoiseTrainer` on the same model already saw, skips L.
 */
#ifndef SHREDDER_CORE_PRIVACY_METER_H
#define SHREDDER_CORE_PRIVACY_METER_H

#include <cstdint>

#include "src/core/noise_collection.h"
#include "src/core/noise_distribution.h"
#include "src/data/dataset.h"
#include "src/info/dimwise.h"
#include "src/runtime/noise_policy.h"
#include "src/split/split_model.h"
#include "src/tensor/rng.h"

namespace shredder {
namespace core {

/** Knobs for the measurement pass. */
struct MeterConfig
{
    /** Samples used for the accuracy measurement. */
    std::int64_t accuracy_samples = 512;
    /** Samples used for the MI estimate (pairs collected). */
    std::int64_t mi_samples = 384;
    std::int64_t batch_size = 32;
    /** Dimension-wise estimator settings (max_dims caps cost). */
    info::DimwiseConfig mi;
    /** Family fitted by measure_sampling. */
    NoiseFamily family = NoiseFamily::kLaplace;
    /**
     * Root seed of the meter-built policies' id-keyed noise draws
     * (query `q` draws with `Rng(noise_seed(seed, q))`).
     */
    std::uint64_t seed = 2024;
};

/** Result of one measurement pass. */
struct PrivacyReport
{
    double mi_bits = 0.0;       ///< Î(x; transmitted).
    double ex_vivo = 0.0;       ///< 1/MI.
    double accuracy = 0.0;      ///< Top-1 accuracy through the noise.
    double in_vivo = 0.0;       ///< 1/SNR (0 for the clean pass).
    std::int64_t samples = 0;   ///< MI sample pairs used.
};

/** See file comment. */
class PrivacyMeter
{
  public:
    /**
     * @param model     Split view of the frozen network.
     * @param test_set  Borrowed held-out data.
     * @param config    Measurement knobs.
     */
    PrivacyMeter(split::SplitModel& model, const data::Dataset& test_set,
                 const MeterConfig& config = {});

    /** Baseline: no noise — the paper's "original execution". */
    PrivacyReport measure_clean();

    /** One fixed tensor on every query (deterministic transform). */
    PrivacyReport measure_fixed(const Tensor& noise);

    /** Per-query draw of a stored tensor (ablation D3). */
    PrivacyReport measure_replay(const NoiseCollection& collection);

    /** Deployment path: per-query sample from the fitted distribution. */
    PrivacyReport measure_sampling(const NoiseCollection& collection);

    /** As `measure_sampling`, with an already-fitted distribution. */
    PrivacyReport measure_distribution(const NoiseDistribution& dist);

    /**
     * Measure an arbitrary noise mechanism — e.g. the very policy
     * object a `ServingEngine` endpoint executes. Query `q` applies
     * `policy.apply(activation, q)`.
     */
    PrivacyReport measure_policy(const runtime::NoisePolicy& policy);

  private:
    /** One pass: every mode funnels into this policy-driven loop. */
    PrivacyReport measure_impl(const runtime::NoisePolicy& policy);

    split::SplitModel& model_;
    const data::Dataset& test_set_;
    MeterConfig config_;
};

}  // namespace core
}  // namespace shredder

#endif  // SHREDDER_CORE_PRIVACY_METER_H
