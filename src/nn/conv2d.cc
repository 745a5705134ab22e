/**
 * @file
 * Implementation of `Conv2d`.
 *
 * Forward runs each batch item on its own, so a row's output never
 * depends on the batch around it. A stride-1 layer that the packed GEMM
 * would run as one k block of the AVX2+FMA micro-kernel takes
 * `conv2d_direct` (zero-padded planes, one contiguous saxpy per tap,
 * bit-identical to the lowering); every other layer, and backward,
 * lowers through im2col/col2im into the packed GEMM. When im2col would
 * copy the item unchanged (a kernel covering the whole unpadded map,
 * or a 1×1 stride-1 unpadded kernel) the GEMM reads the item in place.
 * Scratch comes from per-thread arenas.
 */
#include "src/nn/conv2d.h"

#include <vector>

#include "src/nn/init.h"
#include "src/runtime/logging.h"
#include "src/runtime/thread_pool.h"
#include "src/tensor/gemm.h"
#include "src/tensor/im2col.h"
#include "src/tensor/scratch.h"

namespace shredder {
namespace nn {

namespace {

/**
 * True when im2col of an in_h×in_w item is the item itself in (c, h, w)
 * order: an unpadded kernel that covers the whole map (one output, rows
 * (c, kh, kw)) or an unpadded 1×1 stride-1 kernel (rows c, columns
 * (h, w)).
 */
bool
im2col_is_identity(const Conv2dConfig& cfg, std::int64_t in_h,
                   std::int64_t in_w)
{
    if (cfg.padding != 0) {
        return false;
    }
    return (cfg.kernel == in_h && cfg.kernel == in_w) ||
           (cfg.kernel == 1 && cfg.stride == 1);
}

}  // namespace

Conv2d::Conv2d(const Conv2dConfig& config, Rng& rng) : config_(config)
{
    SHREDDER_REQUIRE(config.in_channels > 0 && config.out_channels > 0 &&
                         config.kernel > 0 && config.stride > 0 &&
                         config.padding >= 0,
                     "bad Conv2d config");
    const std::int64_t fan_in =
        config.in_channels * config.kernel * config.kernel;
    Tensor w(Shape({config.out_channels, fan_in}));
    kaiming_normal(w, fan_in, rng);
    weight_ = Parameter("conv2d.weight", std::move(w));
    if (config.bias) {
        bias_ = Parameter("conv2d.bias", Tensor(Shape({config.out_channels})));
    }
}

Shape
Conv2d::output_shape(const Shape& in) const
{
    SHREDDER_REQUIRE(in.rank() == 4, "Conv2d wants NCHW, got ",
                     in.to_string());
    SHREDDER_REQUIRE(in[1] == config_.in_channels, "Conv2d expects ",
                     config_.in_channels, " channels, got ", in[1]);
    const std::int64_t oh =
        conv_out_extent(in[2], config_.kernel, config_.stride,
                        config_.padding);
    const std::int64_t ow =
        conv_out_extent(in[3], config_.kernel, config_.stride,
                        config_.padding);
    SHREDDER_REQUIRE(oh > 0 && ow > 0, "Conv2d output collapses for input ",
                     in.to_string());
    return Shape({in[0], config_.out_channels, oh, ow});
}

std::vector<Parameter*>
Conv2d::parameters()
{
    std::vector<Parameter*> out{&weight_};
    if (config_.bias) {
        out.push_back(&bias_);
    }
    return out;
}

std::int64_t
Conv2d::macs(const Shape& in) const
{
    const Shape out = output_shape(in);
    const std::int64_t fan_in =
        config_.in_channels * config_.kernel * config_.kernel;
    // Per sample: every output element is a fan_in-long dot product.
    return config_.out_channels * out[2] * out[3] * fan_in;
}

Tensor
Conv2d::forward(const Tensor& x, ExecutionContext& ctx, Mode /*mode*/) const
{
    const Shape out_shape = output_shape(x.shape());
    const std::int64_t batch = x.shape()[0];
    const std::int64_t in_c = x.shape()[1];
    const std::int64_t in_h = x.shape()[2];
    const std::int64_t in_w = x.shape()[3];
    const std::int64_t out_c = out_shape[1];
    const std::int64_t out_h = out_shape[2];
    const std::int64_t out_w = out_shape[3];
    const std::int64_t col_rows = in_c * config_.kernel * config_.kernel;
    const std::int64_t col_cols = out_h * out_w;

    Tensor y(out_shape);
    const float* xp = x.data();
    float* yp = y.data();
    const float* wp = weight_.value.data();
    const bool direct = conv2d_direct_applies(
        in_c, out_c, config_.kernel, config_.stride, out_h, out_w);
    const bool col_is_item = im2col_is_identity(config_, in_h, in_w);

    parallel_for(0, batch, [&](std::int64_t n) {
        const float* item = xp + n * in_c * in_h * in_w;
        if (direct) {
            conv2d_direct(item, in_c, in_h, in_w, config_.kernel,
                          config_.padding, wp, out_c,
                          config_.bias ? bias_.value.data() : nullptr,
                          yp + n * out_c * col_cols);
            return;
        }
        // out[Cout, OHOW] = W[Cout, col_rows] · col[col_rows, OHOW]
        const auto lowered = [&](const float* col) {
            gemm(false, false, out_c, col_cols, col_rows, 1.0f, wp, col,
                 0.0f, yp + n * out_c * col_cols);
        };
        if (col_is_item) {
            lowered(item);
        } else {
            // Per-thread scratch (not the context's arena): these chunks
            // run on pool workers, each of which owns a private arena.
            ScratchLease col = ScratchArena::for_this_thread().acquire(
                static_cast<std::size_t>(col_rows * col_cols));
            im2col(item, in_c, in_h, in_w, config_.kernel, config_.kernel,
                   config_.stride, config_.stride, config_.padding,
                   config_.padding, col.data());
            lowered(col.data());
        }
        if (config_.bias) {
            const float* bp = bias_.value.data();
            float* orow = yp + n * out_c * col_cols;
            for (std::int64_t c = 0; c < out_c; ++c) {
                const float b = bp[c];
                for (std::int64_t i = 0; i < col_cols; ++i) {
                    orow[c * col_cols + i] += b;
                }
            }
        }
    });

    if (ctx.retain_activations()) {
        ctx.state(this).cached = x;
    }
    return y;
}

Tensor
Conv2d::backward(const Tensor& grad_out, ExecutionContext& ctx)
{
    const Tensor& x = ctx.state(this).cached;
    SHREDDER_CHECK(!x.empty(), "Conv2d::backward without forward");
    const Shape out_shape = output_shape(x.shape());
    SHREDDER_CHECK(grad_out.shape() == out_shape,
                   "Conv2d grad shape mismatch: ",
                   grad_out.shape().to_string(), " vs ",
                   out_shape.to_string());

    const std::int64_t batch = x.shape()[0];
    const std::int64_t in_c = x.shape()[1];
    const std::int64_t in_h = x.shape()[2];
    const std::int64_t in_w = x.shape()[3];
    const std::int64_t out_c = out_shape[1];
    const std::int64_t out_h = out_shape[2];
    const std::int64_t out_w = out_shape[3];
    const std::int64_t col_rows = in_c * config_.kernel * config_.kernel;
    const std::int64_t col_cols = out_h * out_w;

    Tensor grad_in(x.shape());
    const float* gp = grad_out.data();
    const float* wp = weight_.value.data();
    const bool need_wgrad = !weight_.frozen;
    const bool col_is_item = im2col_is_identity(config_, in_h, in_w);

    // The context's arena: backward is serial over the batch, so the
    // scratch stays private to this call even with other contexts
    // forwarding concurrently on other threads.
    ScratchArena& arena = ctx.scratch();
    ScratchLease col =
        arena.acquire(static_cast<std::size_t>(col_rows * col_cols));
    ScratchLease col_grad =
        arena.acquire(static_cast<std::size_t>(col_rows * col_cols));

    // Serial over batch: weight gradients accumulate into shared
    // storage and batches are small; correctness over parallelism here.
    for (std::int64_t n = 0; n < batch; ++n) {
        const float* gn = gp + n * out_c * col_cols;
        if (need_wgrad) {
            const float* item = x.data() + n * in_c * in_h * in_w;
            if (!col_is_item) {
                im2col(item, in_c, in_h, in_w, config_.kernel,
                       config_.kernel, config_.stride, config_.stride,
                       config_.padding, config_.padding, col.data());
            }
            // dW[Cout, col_rows] += g[Cout, OHOW] · colᵀ[OHOW, col_rows]
            gemm(false, true, out_c, col_rows, col_cols, 1.0f, gn,
                 col_is_item ? item : col.data(), 1.0f,
                 weight_.grad.data());
        }
        // col_grad[col_rows, OHOW] = Wᵀ[col_rows, Cout] · g[Cout, OHOW]
        gemm(true, false, col_rows, col_cols, out_c, 1.0f, wp, gn, 0.0f,
             col_grad.data());
        col2im(col_grad.data(), in_c, in_h, in_w, config_.kernel,
               config_.kernel, config_.stride, config_.stride,
               config_.padding, config_.padding,
               grad_in.data() + n * in_c * in_h * in_w);
    }

    if (config_.bias && !bias_.frozen) {
        float* bg = bias_.grad.data();
        for (std::int64_t n = 0; n < batch; ++n) {
            for (std::int64_t c = 0; c < out_c; ++c) {
                const float* row = gp + (n * out_c + c) * col_cols;
                double s = 0.0;
                for (std::int64_t i = 0; i < col_cols; ++i) {
                    s += row[i];
                }
                bg[c] += static_cast<float>(s);
            }
        }
    }
    return grad_in;
}

}  // namespace nn
}  // namespace shredder
