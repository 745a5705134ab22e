/**
 * @file
 * Implementation of im2col/col2im convolution lowering.
 */
#include "src/tensor/im2col.h"

#include <algorithm>

namespace shredder {

namespace {

/** ⌈num / den⌉ for den > 0, clamped below at 0. */
std::int64_t
ceil_div_nonneg(std::int64_t num, std::int64_t den)
{
    return num <= 0 ? 0 : (num + den - 1) / den;
}

/**
 * The output columns [lo, hi) of one kernel column `kw` whose input
 * column ow·stride − pad + kw lies inside [0, width); the columns
 * outside read the zero pad.
 */
void
in_range_cols(std::int64_t width, std::int64_t out_w, std::int64_t stride,
              std::int64_t pad, std::int64_t kw, std::int64_t* lo,
              std::int64_t* hi)
{
    *lo = std::min(out_w, ceil_div_nonneg(pad - kw, stride));
    *hi = std::max(*lo,
                   std::min(out_w, ceil_div_nonneg(width + pad - kw, stride)));
}

}  // namespace

void
im2col(const float* data_im, std::int64_t channels, std::int64_t height,
       std::int64_t width, std::int64_t kernel_h, std::int64_t kernel_w,
       std::int64_t stride_h, std::int64_t stride_w, std::int64_t pad_h,
       std::int64_t pad_w, float* data_col)
{
    const std::int64_t out_h =
        conv_out_extent(height, kernel_h, stride_h, pad_h);
    const std::int64_t out_w =
        conv_out_extent(width, kernel_w, stride_w, pad_w);
    const std::int64_t channel_size = height * width;

    float* col = data_col;
    for (std::int64_t c = 0; c < channels; ++c) {
        const float* im = data_im + c * channel_size;
        for (std::int64_t kh = 0; kh < kernel_h; ++kh) {
            for (std::int64_t kw = 0; kw < kernel_w; ++kw) {
                std::int64_t lo = 0;
                std::int64_t hi = 0;
                in_range_cols(width, out_w, stride_w, pad_w, kw, &lo, &hi);
                for (std::int64_t oh = 0; oh < out_h; ++oh, col += out_w) {
                    const std::int64_t ih = oh * stride_h - pad_h + kh;
                    if (ih < 0 || ih >= height) {
                        std::fill(col, col + out_w, 0.0f);
                        continue;
                    }
                    // Input column of output column ow: ow·stride_w + off.
                    const float* imrow = im + ih * width;
                    const std::int64_t off = kw - pad_w;
                    std::fill(col, col + lo, 0.0f);
                    if (stride_w == 1 && lo < hi) {
                        std::copy(imrow + lo + off, imrow + hi + off, col + lo);
                    } else {
                        for (std::int64_t ow = lo; ow < hi; ++ow) {
                            col[ow] = imrow[ow * stride_w + off];
                        }
                    }
                    std::fill(col + hi, col + out_w, 0.0f);
                }
            }
        }
    }
}

void
col2im(const float* data_col, std::int64_t channels, std::int64_t height,
       std::int64_t width, std::int64_t kernel_h, std::int64_t kernel_w,
       std::int64_t stride_h, std::int64_t stride_w, std::int64_t pad_h,
       std::int64_t pad_w, float* data_im)
{
    const std::int64_t out_h =
        conv_out_extent(height, kernel_h, stride_h, pad_h);
    const std::int64_t out_w =
        conv_out_extent(width, kernel_w, stride_w, pad_w);
    const std::int64_t channel_size = height * width;

    const float* col = data_col;
    for (std::int64_t c = 0; c < channels; ++c) {
        float* im = data_im + c * channel_size;
        for (std::int64_t kh = 0; kh < kernel_h; ++kh) {
            for (std::int64_t kw = 0; kw < kernel_w; ++kw) {
                std::int64_t lo = 0;
                std::int64_t hi = 0;
                in_range_cols(width, out_w, stride_w, pad_w, kw, &lo, &hi);
                for (std::int64_t oh = 0; oh < out_h; ++oh, col += out_w) {
                    const std::int64_t ih = oh * stride_h - pad_h + kh;
                    if (ih < 0 || ih >= height) {
                        continue;
                    }
                    float* imrow = im + ih * width;
                    const std::int64_t off = kw - pad_w;
                    for (std::int64_t ow = lo; ow < hi; ++ow) {
                        imrow[ow * stride_w + off] += col[ow];
                    }
                }
            }
        }
    }
}

}  // namespace shredder
