/** @file Gradient and behavior tests for every layer type. */
#include <cstring>
#include <limits>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "src/models/zoo.h"
#include "src/nn/activations.h"
#include "src/nn/conv2d.h"
#include "src/nn/dropout.h"
#include "src/nn/flatten.h"
#include "src/nn/linear.h"
#include "src/nn/lrn.h"
#include "src/nn/pool.h"
#include "src/tensor/gemm.h"
#include "src/tensor/im2col.h"
#include "tests/test_util.h"

namespace shredder {
namespace {

using nn::ExecutionContext;
using nn::Mode;

// ---------------------------------------------------------------------
// ReLU
// ---------------------------------------------------------------------

TEST(ReLU, ForwardClampsNegatives)
{
    nn::ReLU relu;
    ExecutionContext ctx;
    Tensor x = Tensor::from_vector({-1.0f, 0.0f, 2.0f});
    Tensor y = relu.forward(x, ctx, Mode::kEval);
    EXPECT_EQ(y[0], 0.0f);
    EXPECT_EQ(y[1], 0.0f);
    EXPECT_EQ(y[2], 2.0f);
}

TEST(ReLU, GradientMasksNegatives)
{
    nn::ReLU relu;
    ExecutionContext ctx;
    Tensor x = Tensor::from_vector({-1.0f, 3.0f});
    relu.forward(x, ctx, Mode::kEval);
    Tensor g = relu.backward(Tensor::from_vector({5.0f, 7.0f}), ctx);
    EXPECT_EQ(g[0], 0.0f);
    EXPECT_EQ(g[1], 7.0f);
}

TEST(ReLU, NumericGradient)
{
    nn::ReLU relu;
    Rng rng(1);
    // Keep values away from the kink for a clean finite difference.
    Tensor x = Tensor::normal(Shape({2, 5}), rng, 0.0f, 2.0f);
    ops::map_inplace(x, [](float v) {
        return std::abs(v) < 0.1f ? v + 0.2f : v;
    });
    testing::check_layer_gradients(relu, x, rng);
}

TEST(ReLU, IndependentContextsDoNotInterfere)
{
    // The statelessness contract: two execution streams may interleave
    // forwards on ONE layer object and still back-propagate correctly,
    // because caches live in the contexts.
    nn::ReLU relu;
    ExecutionContext ctx_a, ctx_b;
    Tensor xa = Tensor::from_vector({-1.0f, 3.0f});
    Tensor xb = Tensor::from_vector({2.0f, -4.0f});
    relu.forward(xa, ctx_a, Mode::kEval);
    relu.forward(xb, ctx_b, Mode::kEval);  // would clobber member caches
    Tensor ga = relu.backward(Tensor::from_vector({5.0f, 7.0f}), ctx_a);
    Tensor gb = relu.backward(Tensor::from_vector({11.0f, 13.0f}), ctx_b);
    EXPECT_EQ(ga[0], 0.0f);  // xa[0] < 0
    EXPECT_EQ(ga[1], 7.0f);
    EXPECT_EQ(gb[0], 11.0f);
    EXPECT_EQ(gb[1], 0.0f);  // xb[1] < 0
}

/** Bitwise tensor equality: NaN payloads and the sign of zero count. */
void
expect_same_bits(const Tensor& got, const Tensor& want, const char* what)
{
    ASSERT_EQ(got.shape(), want.shape()) << what;
    EXPECT_EQ(std::memcmp(got.data(), want.data(),
                          static_cast<std::size_t>(got.size()) *
                              sizeof(float)),
              0)
        << what;
}

TEST(ReLU, BitExactOnSpecialValues)
{
    // The select must give the bits of the naive clamp `if (v < 0) v = 0`
    // for signed zeros, NaN, infinities and denormals, and backward
    // must mask exactly where that clamp's `v <= 0` mask does.
    const float inf = std::numeric_limits<float>::infinity();
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const float den = std::numeric_limits<float>::denorm_min();
    std::vector<float> values = {-0.0f, 0.0f,  nan,  -nan, inf,   -inf,
                                 den,   -den,  1.0f, -1.0f, 3e38f, -3e38f,
                                 1e-38f, -1e-38f};
    Rng rng(5);
    while (values.size() < 67) {  // odd length: a vector tail runs too
        values.push_back(rng.normal());
    }
    const Tensor x = Tensor::from_vector(values);
    Tensor want_y = x;
    Tensor want_g = Tensor::normal(x.shape(), rng);
    const Tensor g = want_g;
    for (std::int64_t i = 0; i < x.size(); ++i) {
        if (want_y[i] < 0.0f) {
            want_y[i] = 0.0f;
        }
        if (x[i] <= 0.0f) {
            want_g[i] = 0.0f;
        }
    }
    nn::ReLU relu;
    ExecutionContext ctx;
    expect_same_bits(relu.forward(x, ctx, Mode::kTrain), want_y, "forward");
    expect_same_bits(relu.backward(g, ctx), want_g, "backward");
}

// ---------------------------------------------------------------------
// Tanh
// ---------------------------------------------------------------------

TEST(Tanh, ForwardRange)
{
    nn::Tanh tanh_layer;
    ExecutionContext ctx;
    Rng rng(2);
    Tensor x = Tensor::normal(Shape({10}), rng, 0.0f, 3.0f);
    Tensor y = tanh_layer.forward(x, ctx, Mode::kEval);
    for (std::int64_t i = 0; i < y.size(); ++i) {
        EXPECT_GT(y[i], -1.0f);
        EXPECT_LT(y[i], 1.0f);
    }
}

TEST(Tanh, NumericGradient)
{
    nn::Tanh tanh_layer;
    Rng rng(3);
    Tensor x = Tensor::normal(Shape({3, 4}), rng);
    testing::check_layer_gradients(tanh_layer, x, rng, 1e-2f, 2e-2);
}

// ---------------------------------------------------------------------
// Linear
// ---------------------------------------------------------------------

TEST(Linear, KnownForward)
{
    Rng rng(4);
    nn::Linear fc(2, 1, rng);
    fc.weight().value[0] = 2.0f;
    fc.weight().value[1] = -1.0f;
    fc.bias().value[0] = 0.5f;
    ExecutionContext ctx;
    Tensor x(Shape({1, 2}));
    x[0] = 3.0f;
    x[1] = 4.0f;
    Tensor y = fc.forward(x, ctx, Mode::kEval);
    EXPECT_FLOAT_EQ(y[0], 2.0f * 3.0f - 4.0f + 0.5f);
}

TEST(Linear, OutputShapeAndMacs)
{
    Rng rng(5);
    nn::Linear fc(10, 4, rng);
    EXPECT_EQ(fc.output_shape(Shape({8, 10})), Shape({8, 4}));
    EXPECT_EQ(fc.macs(Shape({8, 10})), 40);
}

TEST(Linear, NumericGradient)
{
    Rng rng(6);
    nn::Linear fc(6, 4, rng);
    Tensor x = Tensor::normal(Shape({3, 6}), rng);
    testing::check_layer_gradients(fc, x, rng);
}

TEST(Linear, FrozenWeightSkipsGradAccumulation)
{
    Rng rng(7);
    nn::Linear fc(3, 2, rng);
    fc.set_frozen(true);
    ExecutionContext ctx;
    Tensor x = Tensor::normal(Shape({2, 3}), rng);
    fc.zero_grad();
    Tensor y = fc.forward(x, ctx, Mode::kTrain);
    fc.backward(Tensor::ones(y.shape()), ctx);
    EXPECT_DOUBLE_EQ(fc.weight().grad.abs_sum(), 0.0);
    EXPECT_DOUBLE_EQ(fc.bias().grad.abs_sum(), 0.0);
}

// ---------------------------------------------------------------------
// Conv2d
// ---------------------------------------------------------------------

TEST(Conv2d, KnownForwardSumKernel)
{
    // All-ones 2×2 kernel on a 2×2 image of ones, no pad → sums to 4.
    Rng rng(8);
    nn::Conv2dConfig cfg;
    cfg.in_channels = 1;
    cfg.out_channels = 1;
    cfg.kernel = 2;
    nn::Conv2d conv(cfg, rng);
    conv.weight().value.fill(1.0f);
    conv.bias().value.fill(0.0f);
    ExecutionContext ctx;
    Tensor x = Tensor::ones(Shape({1, 1, 2, 2}));
    Tensor y = conv.forward(x, ctx, Mode::kEval);
    EXPECT_EQ(y.shape(), Shape({1, 1, 1, 1}));
    EXPECT_FLOAT_EQ(y[0], 4.0f);
}

TEST(Conv2d, BiasIsAdded)
{
    Rng rng(9);
    nn::Conv2dConfig cfg;
    cfg.in_channels = 1;
    cfg.out_channels = 2;
    cfg.kernel = 1;
    nn::Conv2d conv(cfg, rng);
    conv.weight().value.fill(0.0f);
    conv.bias().value[0] = 1.5f;
    conv.bias().value[1] = -2.0f;
    ExecutionContext ctx;
    Tensor x = Tensor::ones(Shape({1, 1, 3, 3}));
    Tensor y = conv.forward(x, ctx, Mode::kEval);
    EXPECT_FLOAT_EQ(y.at4(0, 0, 1, 1), 1.5f);
    EXPECT_FLOAT_EQ(y.at4(0, 1, 2, 2), -2.0f);
}

TEST(Conv2d, OutputShapeStridePad)
{
    Rng rng(10);
    nn::Conv2dConfig cfg;
    cfg.in_channels = 3;
    cfg.out_channels = 8;
    cfg.kernel = 5;
    cfg.stride = 2;
    cfg.padding = 2;
    nn::Conv2d conv(cfg, rng);
    EXPECT_EQ(conv.output_shape(Shape({2, 3, 64, 64})),
              Shape({2, 8, 32, 32}));
}

TEST(Conv2d, MacsFormula)
{
    Rng rng(11);
    nn::Conv2dConfig cfg;
    cfg.in_channels = 3;
    cfg.out_channels = 4;
    cfg.kernel = 3;
    cfg.padding = 1;
    nn::Conv2d conv(cfg, rng);
    // 4 out-ch × 8×8 positions × (3·3·3) fan-in = 6912.
    EXPECT_EQ(conv.macs(Shape({1, 3, 8, 8})), 4 * 8 * 8 * 27);
}

struct ConvGradCase
{
    std::int64_t in_c, out_c, k, stride, pad, h, w;
};

class Conv2dGradient : public ::testing::TestWithParam<ConvGradCase>
{};

TEST_P(Conv2dGradient, MatchesNumeric)
{
    const auto p = GetParam();
    Rng rng(static_cast<std::uint64_t>(p.in_c * 100 + p.k * 10 + p.stride));
    nn::Conv2dConfig cfg;
    cfg.in_channels = p.in_c;
    cfg.out_channels = p.out_c;
    cfg.kernel = p.k;
    cfg.stride = p.stride;
    cfg.padding = p.pad;
    nn::Conv2d conv(cfg, rng);
    Tensor x = Tensor::normal(Shape({2, p.in_c, p.h, p.w}), rng);
    testing::check_layer_gradients(conv, x, rng, 1e-2f, 4e-2);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, Conv2dGradient,
    ::testing::Values(ConvGradCase{1, 2, 3, 1, 1, 5, 5},
                      ConvGradCase{2, 3, 3, 2, 1, 7, 6},
                      ConvGradCase{3, 2, 5, 1, 2, 6, 6},
                      ConvGradCase{2, 2, 1, 1, 0, 4, 4},
                      ConvGradCase{1, 4, 2, 2, 0, 6, 6}));

/** `Conv2d::forward` as im2col + `gemm` + bias per item (no direct path). */
Tensor
conv_by_lowering(nn::Conv2d& conv, const Tensor& x)
{
    const nn::Conv2dConfig& cfg = conv.config();
    const Shape out_shape = conv.output_shape(x.shape());
    const std::int64_t in_c = x.shape()[1];
    const std::int64_t in_h = x.shape()[2];
    const std::int64_t in_w = x.shape()[3];
    const std::int64_t out_c = out_shape[1];
    const std::int64_t cols = out_shape[2] * out_shape[3];
    const std::int64_t rows = in_c * cfg.kernel * cfg.kernel;
    Tensor y(out_shape);
    std::vector<float> col(static_cast<std::size_t>(rows * cols));
    for (std::int64_t n = 0; n < x.shape()[0]; ++n) {
        im2col(x.data() + n * in_c * in_h * in_w, in_c, in_h, in_w,
               cfg.kernel, cfg.kernel, cfg.stride, cfg.stride, cfg.padding,
               cfg.padding, col.data());
        float* yn = y.data() + n * out_c * cols;
        gemm(false, false, out_c, cols, rows, 1.0f,
             conv.weight().value.data(), col.data(), 0.0f, yn);
        if (cfg.bias) {
            for (std::int64_t c = 0; c < out_c; ++c) {
                for (std::int64_t i = 0; i < cols; ++i) {
                    yn[c * cols + i] += conv.bias().value[c];
                }
            }
        }
    }
    return y;
}

struct ConvGeometry
{
    std::int64_t in_c, out_c, k, stride, pad, h, w;
};

TEST(Conv2d, DirectPathBitExactWithIm2colGemm)
{
    // Geometries on both sides of the direct path's dispatch rule
    // (stride 1, m ≥ 6, n ≥ 8, m·n·k > 16384, k ≤ 256).
    const std::vector<ConvGeometry> grid = {
        {1, 6, 5, 1, 2, 28, 28},   // LeNet conv1 (direct)
        {6, 16, 5, 1, 0, 14, 14},  // LeNet conv2 (direct)
        {16, 120, 5, 1, 0, 5, 5},  // LeNet conv3: n = 1
        {3, 32, 3, 1, 1, 32, 32},  // CIFAR conv0 (direct)
        {3, 32, 5, 2, 2, 20, 20},  // stride 2
        {10, 7, 5, 1, 2, 9, 6},    // k = 250, odd out_c (direct)
        {11, 6, 5, 1, 2, 9, 6},    // k = 275: two k blocks
        {28, 6, 3, 1, 1, 6, 5},    // k = 252 (direct)
        {29, 6, 3, 1, 1, 6, 5},    // k = 261: two k blocks
        {1, 8, 4, 1, 0, 11, 19},   // m·n·k = 16384 exactly
        {1, 8, 4, 1, 0, 6, 46},    // m·n·k = 16512 (direct)
        {2, 5, 3, 1, 1, 20, 20},   // m = 5
        {4, 9, 3, 1, 1, 2, 3},     // n = 6
        {32, 8, 1, 1, 0, 12, 12},  // 1×1 kernel (direct)
        {32, 8, 1, 1, 1, 7, 9},    // 1×1 kernel, padded (direct)
        {2, 6, 7, 1, 3, 10, 13},   // 7×7, padding 3 (direct)
        {2, 6, 11, 1, 2, 12, 15},  // 11×11, k = 242 (direct)
    };
    const float inf = std::numeric_limits<float>::infinity();
    const float nan = std::numeric_limits<float>::quiet_NaN();
    int direct = 0;
    int lowered = 0;
    for (const ConvGeometry& g : grid) {
        nn::Conv2dConfig cfg;
        cfg.in_channels = g.in_c;
        cfg.out_channels = g.out_c;
        cfg.kernel = g.k;
        cfg.stride = g.stride;
        cfg.padding = g.pad;
        for (const bool bias : {true, false}) {
            cfg.bias = bias;
            Rng rng(static_cast<std::uint64_t>(g.in_c * 1000 + g.k * 10));
            nn::Conv2d conv(cfg, rng);
            if (bias) {
                conv.bias().value = Tensor::normal(Shape({g.out_c}), rng);
            }
            const std::int64_t oh = conv_out_extent(g.h, g.k, g.stride, g.pad);
            const std::int64_t ow = conv_out_extent(g.w, g.k, g.stride, g.pad);
            (conv2d_direct_applies(g.in_c, g.out_c, g.k, g.stride, oh, ow)
                 ? direct
                 : lowered)++;
            for (const bool special : {false, true}) {
                if (special) {
                    // ±inf weights meet the zero pad taps (NaN) and the
                    // NaN/±inf inputs below.
                    Tensor& wt = conv.weight().value;
                    wt[0] = inf;
                    wt[wt.size() / 2] = -inf;
                }
                for (const std::int64_t batch : {1, 3, 16}) {
                    Tensor x = Tensor::normal(
                        Shape({batch, g.in_c, g.h, g.w}), rng);
                    if (special) {
                        for (std::int64_t i = 0; i < x.size(); i += 37) {
                            x[i] = (i / 37) % 3 == 0   ? nan
                                   : (i / 37) % 3 == 1 ? inf
                                                       : -inf;
                        }
                    }
                    ExecutionContext ctx;
                    const std::string what =
                        "in_c " + std::to_string(g.in_c) + " out_c " +
                        std::to_string(g.out_c) + " k " +
                        std::to_string(g.k) + " stride " +
                        std::to_string(g.stride) + " pad " +
                        std::to_string(g.pad) + " map " +
                        std::to_string(g.h) + "x" + std::to_string(g.w) +
                        " batch " + std::to_string(batch) +
                        (bias ? " bias" : " no bias") +
                        (special ? " special" : "");
                    expect_same_bits(conv.forward(x, ctx, Mode::kEval),
                                     conv_by_lowering(conv, x),
                                     what.c_str());
                }
            }
        }
    }
    // The grid straddles the rule (the direct side is empty only on a
    // CPU without AVX2+FMA, where every layer lowers).
    EXPECT_GT(lowered, 0);
    if (conv2d_direct_applies(1, 6, 5, 1, 28, 28)) {
        EXPECT_GT(direct, 0);
    }
}

TEST(Conv2d, IdentityIm2colSkipIsBitExact)
{
    // im2col of an item is the item itself when an unpadded kernel
    // covers the whole map or is 1×1 at stride 1; Conv2d then hands the
    // item to the GEMM directly, in forward and in backward's weight
    // gradient. Both must equal the im2col lowering bit for bit; near
    // misses (padding, stride 2, a kernel covering one extent) lower.
    const std::vector<ConvGeometry> grid = {
        {16, 120, 5, 1, 0, 5, 5},  // LeNet conv3: whole map
        {16, 12, 5, 3, 0, 5, 5},   // whole map, stride 3
        {3, 4, 3, 1, 0, 3, 3},     // whole map, 27-float items
        {4, 3, 1, 1, 0, 3, 5},     // 1×1, stride 1
        {5, 7, 1, 1, 0, 1, 1},     // 1×1 on a 1×1 map
        {32, 8, 1, 1, 0, 12, 12},  // 1×1 (forward may run direct)
        {16, 12, 5, 1, 1, 5, 5},   // whole map but padded
        {4, 3, 1, 2, 0, 6, 6},     // 1×1, stride 2
        {3, 4, 3, 1, 0, 3, 4},     // kernel covers the height only
    };
    const float inf = std::numeric_limits<float>::infinity();
    const float nan = std::numeric_limits<float>::quiet_NaN();
    int identity_lowered = 0;
    for (const ConvGeometry& g : grid) {
        nn::Conv2dConfig cfg;
        cfg.in_channels = g.in_c;
        cfg.out_channels = g.out_c;
        cfg.kernel = g.k;
        cfg.stride = g.stride;
        cfg.padding = g.pad;
        const std::int64_t oh = conv_out_extent(g.h, g.k, g.stride, g.pad);
        const std::int64_t ow = conv_out_extent(g.w, g.k, g.stride, g.pad);
        const bool identity =
            g.pad == 0 && ((g.k == g.h && g.k == g.w) ||
                           (g.k == 1 && g.stride == 1));
        if (identity &&
            !conv2d_direct_applies(g.in_c, g.out_c, g.k, g.stride, oh, ow)) {
            ++identity_lowered;
        }
        const std::int64_t rows = g.in_c * g.k * g.k;
        const std::int64_t cols = oh * ow;
        for (const bool special : {false, true}) {
            Rng rng(static_cast<std::uint64_t>(g.in_c * 1000 + g.k * 10 +
                                               g.stride));
            nn::Conv2d conv(cfg, rng);
            conv.bias().value = Tensor::normal(Shape({g.out_c}), rng);
            if (special) {
                Tensor& wt = conv.weight().value;
                wt[0] = inf;
                wt[wt.size() / 2] = -inf;
            }
            for (const std::int64_t batch : {1, 3}) {
                Tensor x =
                    Tensor::normal(Shape({batch, g.in_c, g.h, g.w}), rng);
                if (special) {
                    for (std::int64_t i = 0; i < x.size(); i += 7) {
                        x[i] = (i / 7) % 3 == 0   ? nan
                               : (i / 7) % 3 == 1 ? inf
                                                  : -inf;
                    }
                }
                const std::string what =
                    "in_c " + std::to_string(g.in_c) + " k " +
                    std::to_string(g.k) + " stride " +
                    std::to_string(g.stride) + " pad " +
                    std::to_string(g.pad) + " map " + std::to_string(g.h) +
                    "x" + std::to_string(g.w) + " batch " +
                    std::to_string(batch) + (special ? " special" : "");
                ExecutionContext ctx;
                expect_same_bits(conv.forward(x, ctx, Mode::kTrain),
                                 conv_by_lowering(conv, x),
                                 ("forward " + what).c_str());

                // dW = Σ_n g_n · im2col(x_n)ᵀ, from a zero gradient.
                const Tensor grad =
                    Tensor::normal(Shape({batch, g.out_c, oh, ow}), rng);
                conv.weight().grad = Tensor(conv.weight().value.shape());
                conv.backward(grad, ctx);
                Tensor want(conv.weight().value.shape());
                std::vector<float> col(static_cast<std::size_t>(rows * cols));
                for (std::int64_t n = 0; n < batch; ++n) {
                    im2col(x.data() + n * g.in_c * g.h * g.w, g.in_c, g.h,
                           g.w, g.k, g.k, g.stride, g.stride, g.pad, g.pad,
                           col.data());
                    gemm(false, true, g.out_c, rows, cols, 1.0f,
                         grad.data() + n * g.out_c * cols, col.data(), 1.0f,
                         want.data());
                }
                expect_same_bits(conv.weight().grad, want,
                                 ("weight grad " + what).c_str());
            }
        }
    }
    EXPECT_GE(identity_lowered, 5);
}

TEST(Conv2d, RowsDoNotDependOnBatch)
{
    // Row r of a batch-16 forward is the batch-1 forward of row r, bit
    // for bit, at every LeNet conv and AlexNet's first two: the property
    // NoiseTrainer's edge memo relies on.
    struct Net
    {
        std::string name;
        int convs;
    };
    for (const Net& net : {Net{"lenet", 3}, Net{"alexnet", 2}}) {
        Rng rng(21);
        auto model = models::make_network(net.name, rng);
        const Shape chw = models::input_shape_for(net.name);
        Shape in({16, chw[0], chw[1], chw[2]});
        int seen = 0;
        for (std::int64_t i = 0; i < model->size() && seen < net.convs;
             ++i) {
            const auto* conv =
                dynamic_cast<const nn::Conv2d*>(&model->layer(i));
            if (conv == nullptr) {
                in = model->layer(i).output_shape(in);
                continue;
            }
            ++seen;
            const Tensor x = Tensor::normal(in, rng);
            ExecutionContext ctx;
            const Tensor y = conv->forward(x, ctx, Mode::kEval);
            const std::int64_t xrow = x.size() / 16;
            const std::int64_t yrow = y.size() / 16;
            const Shape row_shape({1, in[1], in[2], in[3]});
            for (std::int64_t r = 0; r < 16; ++r) {
                Tensor xr(row_shape);
                std::memcpy(xr.data(), x.data() + r * xrow,
                            static_cast<std::size_t>(xrow) * sizeof(float));
                const Tensor yr = conv->forward(xr, ctx, Mode::kEval);
                ASSERT_EQ(yr.size(), yrow);
                EXPECT_EQ(std::memcmp(yr.data(), y.data() + r * yrow,
                                      static_cast<std::size_t>(yrow) *
                                          sizeof(float)),
                          0)
                    << net.name << " layer " << i << " row " << r;
            }
            in = conv->output_shape(in);
        }
        EXPECT_EQ(seen, net.convs) << net.name;
    }
}

// ---------------------------------------------------------------------
// Pooling
// ---------------------------------------------------------------------

TEST(MaxPool2d, SelectsWindowMaximum)
{
    nn::MaxPool2d pool(nn::PoolConfig{2, 2, 0});
    ExecutionContext ctx;
    Tensor x(Shape({1, 1, 2, 2}));
    x[0] = 1.0f;
    x[1] = 9.0f;
    x[2] = 3.0f;
    x[3] = 4.0f;
    Tensor y = pool.forward(x, ctx, Mode::kEval);
    EXPECT_EQ(y.shape(), Shape({1, 1, 1, 1}));
    EXPECT_FLOAT_EQ(y[0], 9.0f);
}

TEST(MaxPool2d, GradientRoutesToArgmax)
{
    nn::MaxPool2d pool(nn::PoolConfig{2, 2, 0});
    ExecutionContext ctx;
    Tensor x(Shape({1, 1, 2, 2}));
    x[0] = 1.0f;
    x[1] = 9.0f;
    x[2] = 3.0f;
    x[3] = 4.0f;
    pool.forward(x, ctx, Mode::kEval);
    Tensor g =
        pool.backward(Tensor::full(Shape({1, 1, 1, 1}), 2.0f), ctx);
    EXPECT_FLOAT_EQ(g[1], 2.0f);
    EXPECT_FLOAT_EQ(g[0], 0.0f);
    EXPECT_FLOAT_EQ(g[2], 0.0f);
}

TEST(MaxPool2d, OverlappingWindowsAlexNetStyle)
{
    nn::MaxPool2d pool(nn::PoolConfig{3, 2, 0});
    ExecutionContext ctx;
    Rng rng(12);
    Tensor x = Tensor::normal(Shape({1, 2, 7, 7}), rng);
    Tensor y = pool.forward(x, ctx, Mode::kEval);
    EXPECT_EQ(y.shape(), Shape({1, 2, 3, 3}));
}

TEST(MaxPool2d, NumericGradient)
{
    nn::MaxPool2d pool(nn::PoolConfig{2, 2, 0});
    Rng rng(13);
    // Spread values so argmax is stable under the FD perturbation.
    Tensor x = Tensor::normal(Shape({1, 2, 4, 4}), rng, 0.0f, 5.0f);
    testing::check_layer_gradients(pool, x, rng, 1e-3f, 2e-2);
}

/**
 * Reference max pool that bounds-tests every window element: −∞ start,
 * strict `>`, row-major scan; a window with nothing above −∞ takes its
 * first in-plane element. Fills `y` and the flat `argmax`.
 */
void
naive_max_pool(const Tensor& x, const nn::PoolConfig& cfg, Tensor& y,
               std::vector<std::int64_t>& argmax)
{
    const std::int64_t planes = x.shape()[0] * x.shape()[1];
    const std::int64_t ih = x.shape()[2], iw = x.shape()[3];
    const std::int64_t oh = y.shape()[2], ow = y.shape()[3];
    argmax.assign(static_cast<std::size_t>(y.size()), -1);
    std::int64_t out = 0;
    for (std::int64_t pl = 0; pl < planes; ++pl) {
        for (std::int64_t i = 0; i < oh; ++i) {
            for (std::int64_t j = 0; j < ow; ++j, ++out) {
                float best = -std::numeric_limits<float>::infinity();
                std::int64_t best_idx = -1, first = -1;
                for (std::int64_t ki = 0; ki < cfg.kernel; ++ki) {
                    for (std::int64_t kj = 0; kj < cfg.kernel; ++kj) {
                        const std::int64_t r =
                            i * cfg.stride - cfg.padding + ki;
                        const std::int64_t c =
                            j * cfg.stride - cfg.padding + kj;
                        if (r < 0 || r >= ih || c < 0 || c >= iw) {
                            continue;
                        }
                        const std::int64_t idx = (pl * ih + r) * iw + c;
                        if (first < 0) {
                            first = idx;
                        }
                        if (x[idx] > best) {
                            best = x[idx];
                            best_idx = idx;
                        }
                    }
                }
                if (best_idx < 0) {
                    best_idx = first;
                }
                ASSERT_GE(best_idx, 0) << "empty window";
                y[out] = x[best_idx];
                argmax[static_cast<std::size_t>(out)] = best_idx;
            }
        }
    }
}

TEST(MaxPool2d, BitExactWithNaiveScanOverGeometryGrid)
{
    // Kernel × stride (≠ kernel included) × every legal padding × plane
    // sizes, on inputs drawn from a few small integers (many ties) with
    // NaN sprinkled into mixed windows, plus one all-NaN and one all-−∞
    // plane. Values, argmax and so backward must match the naive scan
    // bit for bit.
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const float inf = std::numeric_limits<float>::infinity();
    Rng rng(31);
    int cases = 0;
    for (std::int64_t kernel = 1; kernel <= 4; ++kernel) {
        for (std::int64_t stride : {1, 2, 3, 5}) {
            for (std::int64_t pad = 0; pad < kernel; ++pad) {
                for (std::int64_t h : {1, 2, 5, 8}) {
                    for (std::int64_t w : {1, 3, 6, 7}) {
                        const std::int64_t oh =
                            (h + 2 * pad - kernel) / stride + 1;
                        const std::int64_t ow =
                            (w + 2 * pad - kernel) / stride + 1;
                        if (oh <= 0 || ow <= 0) {
                            continue;
                        }
                        Tensor x(Shape({2, 2, h, w}));
                        const std::int64_t plane = h * w;
                        for (std::int64_t e = 0; e < x.size(); ++e) {
                            const std::int64_t which = e / plane;
                            if (which == 1) {
                                x[e] = nan;
                            } else if (which == 2) {
                                x[e] = -inf;
                            } else if (rng.bernoulli(0.15)) {
                                x[e] = nan;
                            } else {
                                x[e] = static_cast<float>(
                                    rng.randint(-2, 2));
                            }
                        }
                        const nn::PoolConfig cfg{kernel, stride, pad};
                        nn::MaxPool2d pool(cfg);
                        ExecutionContext ctx;
                        const Tensor y = pool.forward(x, ctx, Mode::kTrain);
                        Tensor want_y(Shape({2, 2, oh, ow}));
                        std::vector<std::int64_t> argmax;
                        naive_max_pool(x, cfg, want_y, argmax);
                        SCOPED_TRACE(::testing::Message()
                                     << "k=" << kernel << " s=" << stride
                                     << " p=" << pad << " " << h << "x"
                                     << w);
                        expect_same_bits(y, want_y, "forward");

                        const Tensor g = Tensor::normal(y.shape(), rng);
                        Tensor want_g(x.shape());
                        for (std::size_t o = 0; o < argmax.size(); ++o) {
                            want_g[argmax[o]] +=
                                g[static_cast<std::int64_t>(o)];
                        }
                        expect_same_bits(pool.backward(g, ctx), want_g,
                                         "backward");
                        ++cases;
                    }
                }
            }
        }
    }
    EXPECT_GT(cases, 100);
}

TEST(MaxPool2d, PaddingMustBeBelowKernel)
{
    // padding ≥ kernel would let a window fall wholly outside the plane.
    EXPECT_DEATH(nn::MaxPool2d(nn::PoolConfig{2, 2, 2}), "MaxPool2d");
    EXPECT_DEATH(nn::AvgPool2d(nn::PoolConfig{3, 1, 3}), "AvgPool2d");
}

TEST(AvgPool2d, AveragesWindow)
{
    nn::AvgPool2d pool(nn::PoolConfig{2, 2, 0});
    ExecutionContext ctx;
    Tensor x(Shape({1, 1, 2, 2}));
    x[0] = 1.0f;
    x[1] = 2.0f;
    x[2] = 3.0f;
    x[3] = 4.0f;
    Tensor y = pool.forward(x, ctx, Mode::kEval);
    EXPECT_FLOAT_EQ(y[0], 2.5f);
}

TEST(AvgPool2d, NumericGradient)
{
    nn::AvgPool2d pool(nn::PoolConfig{2, 2, 0});
    Rng rng(14);
    Tensor x = Tensor::normal(Shape({2, 2, 4, 4}), rng);
    testing::check_layer_gradients(pool, x, rng);
}

// ---------------------------------------------------------------------
// Flatten
// ---------------------------------------------------------------------

TEST(Flatten, ForwardShape)
{
    nn::Flatten flat;
    ExecutionContext ctx;
    Rng rng(15);
    Tensor x = Tensor::normal(Shape({4, 3, 2, 2}), rng);
    Tensor y = flat.forward(x, ctx, Mode::kEval);
    EXPECT_EQ(y.shape(), Shape({4, 12}));
    EXPECT_EQ(y[5], x[5]);  // data order preserved
}

TEST(Flatten, BackwardRestoresShape)
{
    nn::Flatten flat;
    ExecutionContext ctx;
    Rng rng(16);
    Tensor x = Tensor::normal(Shape({2, 3, 2, 2}), rng);
    Tensor y = flat.forward(x, ctx, Mode::kEval);
    Tensor g = flat.backward(Tensor::ones(y.shape()), ctx);
    EXPECT_EQ(g.shape(), x.shape());
}

// ---------------------------------------------------------------------
// Dropout
// ---------------------------------------------------------------------

TEST(Dropout, EvalIsIdentity)
{
    nn::Dropout drop(0.5f);
    ExecutionContext ctx(17);
    Rng rng(17);
    Tensor x = Tensor::normal(Shape({100}), rng);
    Tensor y = drop.forward(x, ctx, Mode::kEval);
    EXPECT_DOUBLE_EQ(ops::max_abs_diff(x, y), 0.0);
}

TEST(Dropout, TrainZeroesRoughlyP)
{
    nn::Dropout drop(0.4f);
    ExecutionContext ctx(18);
    Tensor x = Tensor::ones(Shape({20000}));
    Tensor y = drop.forward(x, ctx, Mode::kTrain);
    std::int64_t zeros = 0;
    for (std::int64_t i = 0; i < y.size(); ++i) {
        if (y[i] == 0.0f) {
            ++zeros;
        } else {
            EXPECT_NEAR(y[i], 1.0f / 0.6f, 1e-5);
        }
    }
    EXPECT_NEAR(static_cast<double>(zeros) / y.size(), 0.4, 0.02);
}

TEST(Dropout, TrainPreservesExpectation)
{
    nn::Dropout drop(0.3f);
    ExecutionContext ctx(19);
    Tensor x = Tensor::ones(Shape({50000}));
    Tensor y = drop.forward(x, ctx, Mode::kTrain);
    EXPECT_NEAR(y.mean(), 1.0, 0.02);
}

TEST(Dropout, BackwardUsesSameMask)
{
    nn::Dropout drop(0.5f);
    ExecutionContext ctx(20);
    Tensor x = Tensor::ones(Shape({1000}));
    Tensor y = drop.forward(x, ctx, Mode::kTrain);
    Tensor g = drop.backward(Tensor::ones(x.shape()), ctx);
    for (std::int64_t i = 0; i < x.size(); ++i) {
        EXPECT_EQ(g[i], y[i]);  // identical mask & scale
    }
}

TEST(Dropout, SeededContextIsReproducible)
{
    nn::Dropout drop(0.5f);
    Tensor x = Tensor::ones(Shape({512}));
    ExecutionContext ctx_a(99), ctx_b(99);
    Tensor ya = drop.forward(x, ctx_a, Mode::kTrain);
    Tensor yb = drop.forward(x, ctx_b, Mode::kTrain);
    EXPECT_DOUBLE_EQ(ops::max_abs_diff(ya, yb), 0.0);
}

TEST(Dropout, EvalInAnotherContextDoesNotPoisonTraining)
{
    // Regression for the seed-era hazard: `last_was_train_` was a
    // layer member, so an eval forward (any other stream!) between a
    // train forward and its backward made backward skip the mask —
    // silently wrong gradients. With per-context state the training
    // stream is immune to interleaved eval traffic.
    nn::Dropout drop(0.5f);
    Tensor x = Tensor::ones(Shape({1000}));

    ExecutionContext train_ctx(21);
    Tensor y = drop.forward(x, train_ctx, Mode::kTrain);

    ExecutionContext serve_ctx;  // e.g. a concurrent inference stream
    drop.forward(x, serve_ctx, Mode::kEval);

    Tensor g = drop.backward(Tensor::ones(x.shape()), train_ctx);
    for (std::int64_t i = 0; i < x.size(); ++i) {
        EXPECT_EQ(g[i], y[i]) << "mask lost at " << i;
    }
    // And the eval stream's backward is a pass-through, as its own
    // forward was.
    Tensor ge = drop.backward(Tensor::ones(x.shape()), serve_ctx);
    EXPECT_DOUBLE_EQ(ops::max_abs_diff(ge, Tensor::ones(x.shape())), 0.0);
}

TEST(Dropout, TwoTrainingStreamsKeepDistinctMasks)
{
    nn::Dropout drop(0.5f);
    Tensor x = Tensor::ones(Shape({2000}));
    ExecutionContext ctx_a(1), ctx_b(2);
    Tensor ya = drop.forward(x, ctx_a, Mode::kTrain);
    Tensor yb = drop.forward(x, ctx_b, Mode::kTrain);
    // Backward through each context applies that context's own mask.
    Tensor ga = drop.backward(Tensor::ones(x.shape()), ctx_a);
    Tensor gb = drop.backward(Tensor::ones(x.shape()), ctx_b);
    EXPECT_DOUBLE_EQ(ops::max_abs_diff(ga, ya), 0.0);
    EXPECT_DOUBLE_EQ(ops::max_abs_diff(gb, yb), 0.0);
    // Different seeds ⇒ different masks (overwhelmingly likely).
    EXPECT_GT(ops::max_abs_diff(ya, yb), 0.0);
}

// ---------------------------------------------------------------------
// LocalResponseNorm
// ---------------------------------------------------------------------

TEST(Lrn, NormalizesAcrossChannels)
{
    nn::LrnConfig cfg;
    cfg.size = 3;
    cfg.alpha = 1.0f;
    cfg.beta = 1.0f;
    cfg.k = 1.0f;
    nn::LocalResponseNorm lrn(cfg);
    ExecutionContext ctx;
    Tensor x = Tensor::ones(Shape({1, 3, 1, 1}));
    Tensor y = lrn.forward(x, ctx, Mode::kEval);
    // Middle channel window covers all 3 ones: scale = 1 + (1/3)*3 = 2.
    EXPECT_NEAR(y.at4(0, 1, 0, 0), 0.5f, 1e-5);
    // Edge channels see a 2-wide window: scale = 1 + (1/3)*2.
    EXPECT_NEAR(y.at4(0, 0, 0, 0), 1.0f / (1.0f + 2.0f / 3.0f), 1e-5);
}

TEST(Lrn, IdentityWhenAlphaZero)
{
    nn::LrnConfig cfg;
    cfg.alpha = 0.0f;
    cfg.k = 1.0f;
    nn::LocalResponseNorm lrn(cfg);
    ExecutionContext ctx;
    Rng rng(21);
    Tensor x = Tensor::normal(Shape({2, 4, 3, 3}), rng);
    Tensor y = lrn.forward(x, ctx, Mode::kEval);
    EXPECT_NEAR(ops::max_abs_diff(x, y), 0.0, 1e-6);
}

TEST(Lrn, NumericGradient)
{
    nn::LrnConfig cfg;
    cfg.size = 3;
    cfg.alpha = 0.5f;
    cfg.beta = 0.75f;
    cfg.k = 2.0f;
    nn::LocalResponseNorm lrn(cfg);
    Rng rng(22);
    Tensor x = Tensor::normal(Shape({1, 4, 3, 3}), rng);
    testing::check_layer_gradients(lrn, x, rng, 1e-2f, 3e-2);
}

// ---------------------------------------------------------------------
// ExecutionContext plumbing
// ---------------------------------------------------------------------

TEST(ExecutionContext, StateSlotsAreKeyedByLayerIdentity)
{
    nn::ReLU a, b;
    ExecutionContext ctx;
    EXPECT_EQ(ctx.num_states(), 0u);
    ctx.state(&a).in_shape = Shape({1, 2});
    ctx.state(&b).in_shape = Shape({3, 4});
    EXPECT_EQ(ctx.num_states(), 2u);
    EXPECT_EQ(ctx.state(&a).in_shape, Shape({1, 2}));
    EXPECT_EQ(ctx.state(&b).in_shape, Shape({3, 4}));
    ctx.clear();
    EXPECT_EQ(ctx.num_states(), 0u);
    EXPECT_EQ(ctx.state(&a).in_shape.rank(), 0);
}

TEST(ExecutionContext, ForwardOnlyContextSkipsActivationCaches)
{
    // Serving contexts disable retention: outputs are identical, but
    // no per-layer activation copy is stored.
    Rng rng(30);
    nn::Linear fc(4, 3, rng);
    Tensor x = Tensor::normal(Shape({2, 4}), rng);

    ExecutionContext train_ctx;
    ExecutionContext serve_ctx;
    serve_ctx.set_retain_activations(false);
    Tensor y_train = fc.forward(x, train_ctx, Mode::kEval);
    Tensor y_serve = fc.forward(x, serve_ctx, Mode::kEval);
    EXPECT_DOUBLE_EQ(ops::max_abs_diff(y_train, y_serve), 0.0);
    EXPECT_FALSE(train_ctx.state(&fc).cached.empty());
    EXPECT_TRUE(serve_ctx.state(&fc).cached.empty());

    nn::MaxPool2d pool(nn::PoolConfig{2, 2, 0});
    Tensor img = Tensor::normal(Shape({1, 1, 4, 4}), rng);
    Tensor p_train = pool.forward(img, train_ctx, Mode::kEval);
    Tensor p_serve = pool.forward(img, serve_ctx, Mode::kEval);
    EXPECT_DOUBLE_EQ(ops::max_abs_diff(p_train, p_serve), 0.0);
    EXPECT_FALSE(train_ctx.state(&pool).argmax.empty());
    EXPECT_TRUE(serve_ctx.state(&pool).argmax.empty());
}

TEST(ExecutionContext, ClearResetsLayerState)
{
    nn::LayerState state;
    state.cached = Tensor::ones(Shape({4}));
    state.argmax = {1, 2};
    state.mask = {0.5f};
    state.stochastic = true;
    state.clear();
    EXPECT_TRUE(state.cached.empty());
    EXPECT_TRUE(state.argmax.empty());
    EXPECT_TRUE(state.mask.empty());
    EXPECT_FALSE(state.stochastic);
}

// ---------------------------------------------------------------------
// Identity
// ---------------------------------------------------------------------

TEST(Identity, PassThrough)
{
    nn::Identity id;
    ExecutionContext ctx;
    Rng rng(23);
    Tensor x = Tensor::normal(Shape({5}), rng);
    EXPECT_DOUBLE_EQ(
        ops::max_abs_diff(id.forward(x, ctx, Mode::kEval), x), 0.0);
    EXPECT_DOUBLE_EQ(ops::max_abs_diff(id.backward(x, ctx), x), 0.0);
    EXPECT_EQ(id.kind(), "identity");
}

}  // namespace
}  // namespace shredder
