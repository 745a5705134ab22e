/** @file Unit tests for im2col / col2im. */
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/tensor/im2col.h"
#include "src/tensor/rng.h"

namespace shredder {
namespace {

TEST(Im2col, OutExtent)
{
    EXPECT_EQ(conv_out_extent(28, 5, 1, 2), 28);
    EXPECT_EQ(conv_out_extent(28, 5, 1, 0), 24);
    EXPECT_EQ(conv_out_extent(32, 2, 2, 0), 16);
    EXPECT_EQ(conv_out_extent(64, 5, 2, 2), 32);
    EXPECT_EQ(conv_out_extent(15, 3, 2, 0), 7);
}

TEST(Im2col, TinyKnownCase)
{
    // 1×2×2 image, 2×2 kernel, stride 1, no pad → single column.
    const std::vector<float> im{1, 2, 3, 4};
    std::vector<float> col(4, -1.0f);
    im2col(im.data(), 1, 2, 2, 2, 2, 1, 1, 0, 0, col.data());
    EXPECT_EQ(col, (std::vector<float>{1, 2, 3, 4}));
}

TEST(Im2col, PaddingProducesZeros)
{
    // 1×1×1 image, 3×3 kernel, pad 1 → 1 output; 8 of 9 entries zero.
    const std::vector<float> im{5.0f};
    std::vector<float> col(9, -1.0f);
    im2col(im.data(), 1, 1, 1, 3, 3, 1, 1, 1, 1, col.data());
    int nonzero = 0;
    for (float v : col) {
        if (v != 0.0f) {
            ++nonzero;
            EXPECT_EQ(v, 5.0f);
        }
    }
    EXPECT_EQ(nonzero, 1);
    EXPECT_EQ(col[4], 5.0f);  // kernel center hits the pixel
}

TEST(Im2col, ChannelsAreStackedInRowBlocks)
{
    // 2 channels of a 2×2 image, 1×1 kernel → col is 2×4.
    const std::vector<float> im{1, 2, 3, 4, 10, 20, 30, 40};
    std::vector<float> col(8, 0.0f);
    im2col(im.data(), 2, 2, 2, 1, 1, 1, 1, 0, 0, col.data());
    EXPECT_EQ(col, (std::vector<float>{1, 2, 3, 4, 10, 20, 30, 40}));
}

TEST(Im2col, Col2imIsAdjoint)
{
    // Adjoint identity: ⟨im2col(x), y⟩ == ⟨x, col2im(y)⟩ for random x, y.
    const std::int64_t C = 3, H = 7, W = 6, K = 3, S = 2, P = 1;
    const std::int64_t OH = conv_out_extent(H, K, S, P);
    const std::int64_t OW = conv_out_extent(W, K, S, P);
    const std::int64_t cols = C * K * K * OH * OW;

    Rng rng(123);
    std::vector<float> x(static_cast<std::size_t>(C * H * W));
    for (auto& v : x) {
        v = rng.normal();
    }
    std::vector<float> y(static_cast<std::size_t>(cols));
    for (auto& v : y) {
        v = rng.normal();
    }

    std::vector<float> fx(static_cast<std::size_t>(cols), 0.0f);
    im2col(x.data(), C, H, W, K, K, S, S, P, P, fx.data());
    std::vector<float> aty(static_cast<std::size_t>(C * H * W), 0.0f);
    col2im(y.data(), C, H, W, K, K, S, S, P, P, aty.data());

    double lhs = 0.0, rhs = 0.0;
    for (std::size_t i = 0; i < fx.size(); ++i) {
        lhs += static_cast<double>(fx[i]) * y[i];
    }
    for (std::size_t i = 0; i < x.size(); ++i) {
        rhs += static_cast<double>(x[i]) * aty[i];
    }
    EXPECT_NEAR(lhs, rhs, 1e-3 * std::abs(lhs) + 1e-3);
}

TEST(Im2col, Col2imAccumulatesOverlaps)
{
    // 1×3 row, kernel 2, stride 1: middle pixel belongs to 2 windows.
    const std::vector<float> col{1, 1, 1, 1};  // k=2 rows × 2 outputs
    std::vector<float> im(3, 0.0f);
    col2im(col.data(), 1, 1, 3, 1, 2, 1, 1, 0, 0, im.data());
    EXPECT_EQ(im[0], 1.0f);
    EXPECT_EQ(im[1], 2.0f);
    EXPECT_EQ(im[2], 1.0f);
}

/** im2col element by element: every column entry tests its bounds. */
void
naive_im2col(const float* im, std::int64_t c_n, std::int64_t h,
             std::int64_t w, std::int64_t k, std::int64_t s, std::int64_t p,
             float* col)
{
    const std::int64_t oh_n = conv_out_extent(h, k, s, p);
    const std::int64_t ow_n = conv_out_extent(w, k, s, p);
    for (std::int64_t c = 0; c < c_n; ++c) {
        for (std::int64_t kh = 0; kh < k; ++kh) {
            for (std::int64_t kw = 0; kw < k; ++kw) {
                for (std::int64_t oh = 0; oh < oh_n; ++oh) {
                    for (std::int64_t ow = 0; ow < ow_n; ++ow) {
                        const std::int64_t ih = oh * s - p + kh;
                        const std::int64_t iw = ow * s - p + kw;
                        const bool in = ih >= 0 && ih < h && iw >= 0 && iw < w;
                        *col++ = in ? im[(c * h + ih) * w + iw] : 0.0f;
                    }
                }
            }
        }
    }
}

/** col2im element by element, in the same accumulation order. */
void
naive_col2im(const float* col, std::int64_t c_n, std::int64_t h,
             std::int64_t w, std::int64_t k, std::int64_t s, std::int64_t p,
             float* im)
{
    const std::int64_t oh_n = conv_out_extent(h, k, s, p);
    const std::int64_t ow_n = conv_out_extent(w, k, s, p);
    for (std::int64_t c = 0; c < c_n; ++c) {
        for (std::int64_t kh = 0; kh < k; ++kh) {
            for (std::int64_t kw = 0; kw < k; ++kw) {
                for (std::int64_t oh = 0; oh < oh_n; ++oh) {
                    for (std::int64_t ow = 0; ow < ow_n; ++ow, ++col) {
                        const std::int64_t ih = oh * s - p + kh;
                        const std::int64_t iw = ow * s - p + kw;
                        if (ih >= 0 && ih < h && iw >= 0 && iw < w) {
                            im[(c * h + ih) * w + iw] += *col;
                        }
                    }
                }
            }
        }
    }
}

TEST(Im2col, BitExactWithNaiveReferenceOverGeometryGrid)
{
    // Both transforms only move (or add) data, so the clipped-span
    // versions must match the per-element reference bit for bit.
    struct Map
    {
        std::int64_t h, w;
    };
    const std::int64_t channels = 2;
    Rng rng(77);
    int checked = 0;
    for (const std::int64_t stride : {1, 2, 4}) {
        for (const std::int64_t pad : {0, 1, 2}) {
            for (const std::int64_t k : {1, 3, 5, 11}) {
                for (const Map m : {Map{5, 9}, Map{13, 11}, Map{24, 17}}) {
                    const std::int64_t oh = conv_out_extent(m.h, k, stride, pad);
                    const std::int64_t ow = conv_out_extent(m.w, k, stride, pad);
                    if (m.h + 2 * pad < k || m.w + 2 * pad < k) {
                        continue;  // the kernel does not fit the map
                    }
                    const std::string what =
                        "stride " + std::to_string(stride) + " pad " +
                        std::to_string(pad) + " k " + std::to_string(k) +
                        " map " + std::to_string(m.h) + "x" +
                        std::to_string(m.w);
                    const auto im_n =
                        static_cast<std::size_t>(channels * m.h * m.w);
                    const auto col_n =
                        static_cast<std::size_t>(channels * k * k * oh * ow);
                    std::vector<float> im(im_n);
                    for (auto& v : im) {
                        v = rng.normal();
                    }
                    std::vector<float> got(col_n, -1.0f);
                    std::vector<float> want(col_n, -2.0f);
                    im2col(im.data(), channels, m.h, m.w, k, k, stride, stride,
                           pad, pad, got.data());
                    naive_im2col(im.data(), channels, m.h, m.w, k, stride, pad,
                                 want.data());
                    EXPECT_EQ(std::memcmp(got.data(), want.data(),
                                          col_n * sizeof(float)),
                              0)
                        << "im2col " << what;

                    // col2im accumulates into whatever the image holds.
                    std::vector<float> col(col_n);
                    for (auto& v : col) {
                        v = rng.normal();
                    }
                    std::vector<float> got_im = im;
                    std::vector<float> want_im = im;
                    col2im(col.data(), channels, m.h, m.w, k, k, stride, stride,
                           pad, pad, got_im.data());
                    naive_col2im(col.data(), channels, m.h, m.w, k, stride, pad,
                                 want_im.data());
                    EXPECT_EQ(std::memcmp(got_im.data(), want_im.data(),
                                          im_n * sizeof(float)),
                              0)
                        << "col2im " << what;
                    ++checked;
                }
            }
        }
    }
    EXPECT_GT(checked, 80);
}

}  // namespace
}  // namespace shredder
