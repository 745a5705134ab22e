/**
 * @file
 * Edge/cloud partition of a sequential network (paper §2.1).
 *
 * A `SplitModel` borrows a pre-trained `Sequential` and a cut index c:
 * the *local* network L = layers [0, c) runs on the edge and produces
 * the activation `a`; the *remote* network R = layers [c, K) runs on
 * the cloud on the (noisy) activation. Backward through R only — L is
 * never differentiated, exactly as in the paper's gradient derivation.
 *
 * Forwards are `const` and thread per-call activation state through an
 * `nn::ExecutionContext`, so one `SplitModel` (one set of weights)
 * serves any number of concurrent callers — each caller brings its own
 * context. This is what lets `runtime::InferenceServer` keep several
 * cloud forwards in flight without replicating the model.
 *
 * Edge memo. L is frozen and runs in eval mode, so an input has the
 * same activation every time it is seen. `edge_forward_memoized` keeps
 * each input row's activation and returns a batch whose rows are all
 * kept without running L again; a batch with any row not kept runs the
 * batched edge forward and keeps its new rows. The memo lives as long
 * as the model, so every `core::NoiseTrainer` of a collection and the
 * `core::PrivacyMeter` that scores it share one set of edge passes.
 *
 *  - Key. A row is keyed by the bytes of its input (a hash, then an
 *    exact shape check and `memcmp`): it is reused only for a
 *    bit-identical input, whatever dataset or index it came from.
 *  - Validity. The memo keeps a copy of the edge weights it was filled
 *    under (the cut is fixed for the model's life).
 *    `revalidate_edge_memo` compares that copy with the live weights
 *    and empties the memo if they differ; the trainer and the meter
 *    call it once per `train()` / `measure_*` call, not per step. A
 *    caller that changes edge weights and then calls
 *    `edge_forward_memoized` without revalidating gets stale rows.
 *  - Scope. It is used only when every edge layer acts on each batch
 *    row alone (convolution, ReLU, max pooling, LRN: the layers before
 *    every zoo network's conv cuts): those rows do not depend on which
 *    batch computed them, so a memoized activation is bit-identical to
 *    running L. Any other edge, e.g. one with a `Linear` layer (whose
 *    GEMM path depends on the batch size), runs L on every call.
 *  - Budget. It holds at most `kEdgeMemoBytes`, counting the stored
 *    inputs, their activations and the weight copy; rows past that
 *    run through L on every call. Its memory is freed with the model.
 *  - Threads. A mutex guards it; L itself runs outside the lock, so
 *    callers sharing one model still run their edge passes
 *    concurrently. The serving path never touches it.
 */
#ifndef SHREDDER_SPLIT_SPLIT_MODEL_H
#define SHREDDER_SPLIT_SPLIT_MODEL_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/nn/sequential.h"

namespace shredder {
namespace split {

/** Bytes one model's edge memo may hold (see file comment). */
inline constexpr std::size_t kEdgeMemoBytes = std::size_t{256} << 20;

/** Edge/cloud view of a sequential network. */
class SplitModel
{
  public:
    /**
     * @param network  Borrowed network (must outlive this object).
     * @param cut      Layer index of the cut: edge = [0, cut),
     *                 cloud = [cut, size).
     */
    SplitModel(nn::Sequential& network, std::int64_t cut);
    SplitModel(SplitModel&&) noexcept;
    ~SplitModel();

    /** The cut index. */
    std::int64_t cut() const { return cut_; }

    /** Number of layers in the underlying network. */
    std::int64_t depth() const { return network_.size(); }

    /** Borrow the underlying network. */
    nn::Sequential& network() { return network_; }

    /** Run the local network L(x): edge-side forward. */
    Tensor edge_forward(const Tensor& x, nn::ExecutionContext& ctx,
                        nn::Mode mode = nn::Mode::kEval) const;

    /**
     * L(x) in eval mode through the edge memo (see file comment):
     * bit-identical to `edge_forward(x, ctx)`. L keeps no backward
     * caches in `ctx`.
     *
     * @param x       Input batch (NCHW or N×features).
     * @param ctx     Per-call activation state for L.
     * @param passes  If set, incremented by the rows run through L.
     */
    Tensor edge_forward_memoized(const Tensor& x, nn::ExecutionContext& ctx,
                                 std::int64_t* passes = nullptr) const;

    /**
     * Empty the edge memo if the edge weights differ from those it was
     * filled under. Until the first call the memo keeps nothing.
     */
    void revalidate_edge_memo() const;

    /** Run the remote network R(a′): cloud-side forward. */
    Tensor cloud_forward(const Tensor& activation, nn::ExecutionContext& ctx,
                         nn::Mode mode = nn::Mode::kEval) const;

    /**
     * Back-propagate through the cloud part only, using the caches a
     * preceding `cloud_forward` left in `ctx`. Returns
     * ∂loss/∂activation — the gradient Shredder uses to train the
     * noise tensor (∂(a+n)/∂n = 1).
     */
    Tensor cloud_backward(const Tensor& grad_logits,
                          nn::ExecutionContext& ctx);

    /** Shape of the activation tensor at the cut for a CHW input. */
    Shape activation_shape(const Shape& input_chw) const;

    /** Per-sample MACs executed on the edge. */
    std::int64_t edge_macs(const Shape& input_chw) const;

    /** Per-sample MACs executed on the cloud. */
    std::int64_t cloud_macs(const Shape& input_chw) const;

  private:
    struct EdgeMemo;
    // Lets tests shrink the memo budget to reach its over-budget path.
    friend struct SplitModelTestPeer;

    /** Promote CHW to N=1 NCHW if needed. */
    static Shape batched(const Shape& input_chw);

    /** Set the memo budget and empty the memo (tests only). */
    void set_edge_memo_bytes(std::size_t bytes);

    nn::Sequential& network_;
    std::int64_t cut_;
    std::unique_ptr<EdgeMemo> memo_;
};

/**
 * Valid cutting points of a network, defined as "after each
 * convolution layer" the way the paper enumerates them (Conv0, Conv1,
 * …). Returned indices are layer indices suitable for `SplitModel`'s
 * `cut` (i.e. one past the convolution's activation function when the
 * conv is immediately followed by one, so the communicated tensor is
 * the post-activation feature map).
 */
std::vector<std::int64_t> conv_cut_points(const nn::Sequential& network);

}  // namespace split
}  // namespace shredder

#endif  // SHREDDER_SPLIT_SPLIT_MODEL_H
