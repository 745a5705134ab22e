/**
 * @file
 * The noise-learning loop (paper §2.1–2.4, §3.2).
 *
 * Trains *only* the noise tensor: the pre-trained network weights are
 * frozen, the edge part L runs forward-only, and gradients flow from
 * the cross-entropy loss back through the remote part R to the noise
 * (∂(a+n)/∂n = 1), plus the privacy term's direct contribution. Adam
 * is the optimizer, as in the paper.
 *
 * Edge memo. L is frozen and runs in eval mode, so a training sample
 * has the same activation on every visit. The trainer takes every edge
 * activation from `SplitModel::edge_forward_memoized`, whose memo is
 * keyed by input bytes and lives on the model (split_model.h): the
 * first trainer of a collection runs L once per sample, and every
 * later trainer, and the `PrivacyMeter`, on the same model reuses
 * those rows. `train()` revalidates the memo once, so weights changed
 * between calls are never served stale. The learned noise is
 * bit-identical to running L every step. The constructor freezes the
 * network's weights, so trainers built first and then trained on
 * several threads only read the frozen flags.
 * `NoiseTrainResult::edge_passes` counts the samples one `train()`
 * call ran through L, calibration probe included.
 *
 * Read contract. The memo skips only the edge forward, never the data:
 * `train()` calls `Dataset::get` exactly once per sample of every
 * mini-batch, in loader order, after a calibration probe of
 * `min(batch_size, size())` samples (indices 0, 1, …) when
 * `init_scale_relative` is set. Callers that time or audit the reads
 * (a wrapping `Dataset`) can rely on that count and order.
 */
#ifndef SHREDDER_CORE_NOISE_TRAINER_H
#define SHREDDER_CORE_NOISE_TRAINER_H

#include <cstdint>
#include <vector>

#include "src/core/lambda_controller.h"
#include "src/core/noise_tensor.h"
#include "src/core/shredder_loss.h"
#include "src/data/dataset.h"
#include "src/split/split_model.h"
#include "src/tensor/rng.h"

namespace shredder {
namespace core {

/** Knobs for one noise-training run. */
struct NoiseTrainConfig
{
    /** Optimization steps (mini-batches). */
    int iterations = 300;
    std::int64_t batch_size = 16;
    float learning_rate = 5e-2f;
    /** Privacy regularizer variant (Eq. 3 by default). */
    PrivacyTerm term = PrivacyTerm::kL1Expansion;
    /** λ schedule, including the in-vivo target that triggers decay. */
    LambdaSchedule lambda;
    /** Laplace(µ, b) initialization of the noise tensor. */
    NoiseInit init;
    /**
     * Interpret init.scale *relative* to the activation RMS at the
     * cut: the effective Laplace scale becomes
     * init.scale · RMS(a) / √2, i.e. the initial noise std is
     * init.scale × RMS(a) and the initial in-vivo privacy is
     * ≈ init.scale². Makes one config transfer across networks whose
     * activation magnitudes differ wildly (e.g. post-LRN AlexNet).
     */
    bool init_scale_relative = false;
    /** Record a trace point every this many iterations. */
    int trace_every = 10;
    std::uint64_t seed = 7777;
    bool verbose = false;
};

/** One point of the training trace (Fig. 4 series). */
struct TracePoint
{
    int iteration = 0;
    double in_vivo_privacy = 0.0;  ///< 1/SNR on the current batch.
    double batch_accuracy = 0.0;
    double cross_entropy = 0.0;
    double lambda = 0.0;
};

/** Outcome of a noise-training run. */
struct NoiseTrainResult
{
    Tensor noise;                  ///< The converged noise tensor.
    std::vector<TracePoint> trace;
    double epochs = 0.0;           ///< Training cost in dataset epochs.
    double final_in_vivo = 0.0;
    double final_batch_accuracy = 0.0;
    /** Samples run through the edge L by this call (see file comment). */
    std::int64_t edge_passes = 0;
};

/** See file comment. */
class NoiseTrainer
{
  public:
    /**
     * Freezes every network weight (Shredder never retrains the model).
     *
     * @param model      Split view of the frozen pre-trained network.
     * @param train_set  Borrowed training data for the noise updates.
     * @param config     Training knobs.
     */
    NoiseTrainer(split::SplitModel& model, const data::Dataset& train_set,
                 const NoiseTrainConfig& config);

    /** Run the loop and return the learned noise plus its trace. */
    NoiseTrainResult train();

  private:
    split::SplitModel& model_;
    const data::Dataset& train_set_;
    NoiseTrainConfig config_;
};

}  // namespace core
}  // namespace shredder

#endif  // SHREDDER_CORE_NOISE_TRAINER_H
