/**
 * @file
 * Packed, register-tiled GEMM (GotoBLAS/BLIS-style loop nest).
 *
 * Layout of the computation, outermost to innermost:
 *
 *   jc over n in NC   — B block sized for the last-level cache
 *   pc over k in KC   — pack op(B) block into NR-wide micro-panels
 *   ic over m in MC   — pack op(A) block into MR-wide micro-panels (L2)
 *   jr over nc in NR  — one B micro-panel (kc×NR, lives in L1)
 *   ir over mc in MR  — micro-kernel: MR×NR register accumulators
 *
 * The packing step reads op(A)/op(B) through explicit row/column
 * strides, so all four transpose combinations share one kernel and
 * none materializes a full transposed copy: scratch is bounded by
 * O(MC·KC + NC·KC) floats per thread and reused across calls via
 * `ScratchArena`. Large-m problems split their MC row blocks across
 * `ThreadPool::global()` (each worker packs A into its own arena; the
 * shared packed B is read-only).
 *
 * Two micro-kernels are compiled and picked once at runtime: a 6×8
 * tile for the portable SSE2 baseline (12 XMM accumulators) and a
 * 6×16 tile compiled with `target("avx2,fma")` (12 YMM accumulators,
 * FMA) chosen when the CPU supports it — so the default build, with
 * no -march flags, still runs wide on modern x86. See
 * docs/PERFORMANCE.md for the derivation and measured numbers.
 *
 * The AVX2 choice also carries `conv2d_direct`'s kernel: a stride-1
 * convolution over zero-padded planes that adds the same taps in the
 * same order with the same FMA as the micro-kernel over im2col columns,
 * so it replaces that lowering without changing a bit.
 */
#include "src/tensor/gemm.h"

#include <algorithm>
#include <cmath>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

#include "src/runtime/logging.h"
#include "src/runtime/thread_pool.h"
#include "src/tensor/scratch.h"

namespace shredder {

namespace {

constexpr std::int64_t kMr = 6;     ///< micro-tile rows
constexpr std::int64_t kNrSse = 8;  ///< micro-tile columns, SSE baseline
constexpr std::int64_t kNrAvx = 16; ///< micro-tile columns, AVX2+FMA path
constexpr std::int64_t kKc = 256;   ///< k block: micro-panels stay in L1
constexpr std::int64_t kMc = 96;    ///< m block: packed A block stays in L2
constexpr std::int64_t kNc = 2048;  ///< n block: packed B block stays in LLC

/** Problems below this flop-ish count skip packing entirely. */
constexpr std::int64_t kSmallWork = 16 * 1024;

/** Outputs `gemm_small` accumulates side by side (independent chains). */
constexpr std::int64_t kSmallBlock = 4;

/** Minimum m·n·k before row-panel threading pays for itself. */
constexpr std::int64_t kParallelMinWork = 1 << 20;

std::int64_t
round_up(std::int64_t v, std::int64_t to)
{
    return (v + to - 1) / to * to;
}

/**
 * Pack a kc×nc block of op(B) into micro-panels of `nr` columns
 * (`nr` is the active micro-kernel's width). Element (p, j) of the
 * block lives at `b[p*rs + j*cs]`. Panel j0/nr holds kc rows of nr
 * consecutive columns, contiguous in p; tail columns are zero-filled
 * so the micro-kernel never branches on the column count.
 */
void
pack_b(std::int64_t kc, std::int64_t nc, std::int64_t nr, const float* b,
       std::int64_t rs, std::int64_t cs, float* out)
{
    for (std::int64_t j0 = 0; j0 < nc; j0 += nr) {
        const std::int64_t w = std::min(nr, nc - j0);
        float* panel = out + j0 * kc;
        if (cs == 1 && w == nr) {
            // op(B) rows contiguous (plain B): copy nr-wide strips.
            const float* src = b + j0;
            for (std::int64_t p = 0; p < kc; ++p) {
                for (std::int64_t j = 0; j < nr; ++j) {
                    panel[p * nr + j] = src[p * rs + j];
                }
            }
        } else if (rs == 1) {
            // op(B) columns contiguous (transposed B): copy columns.
            for (std::int64_t j = 0; j < w; ++j) {
                const float* src = b + (j0 + j) * cs;
                for (std::int64_t p = 0; p < kc; ++p) {
                    panel[p * nr + j] = src[p];
                }
            }
            for (std::int64_t j = w; j < nr; ++j) {
                for (std::int64_t p = 0; p < kc; ++p) {
                    panel[p * nr + j] = 0.0f;
                }
            }
        } else {
            for (std::int64_t p = 0; p < kc; ++p) {
                for (std::int64_t j = 0; j < w; ++j) {
                    panel[p * nr + j] = b[p * rs + (j0 + j) * cs];
                }
                for (std::int64_t j = w; j < nr; ++j) {
                    panel[p * nr + j] = 0.0f;
                }
            }
        }
    }
}

/**
 * Pack an mc×kc block of op(A) into micro-panels of kMr rows.
 * Element (i, p) of the block lives at `a[i*rs + p*cs]`; panels are
 * contiguous in p with zero-filled tail rows.
 */
void
pack_a(std::int64_t mc, std::int64_t kc, const float* a, std::int64_t rs,
       std::int64_t cs, float* out)
{
    for (std::int64_t i0 = 0; i0 < mc; i0 += kMr) {
        const std::int64_t h = std::min(kMr, mc - i0);
        float* panel = out + i0 * kc;
        if (rs == 1 && h == kMr) {
            // op(A) columns contiguous in i (transposed A).
            const float* src = a + i0;
            for (std::int64_t p = 0; p < kc; ++p) {
                for (std::int64_t i = 0; i < kMr; ++i) {
                    panel[p * kMr + i] = src[p * cs + i];
                }
            }
        } else {
            // Plain A: kMr sequential row streams advance together.
            for (std::int64_t p = 0; p < kc; ++p) {
                for (std::int64_t i = 0; i < h; ++i) {
                    panel[p * kMr + i] = a[(i0 + i) * rs + p * cs];
                }
                for (std::int64_t i = h; i < kMr; ++i) {
                    panel[p * kMr + i] = 0.0f;
                }
            }
        }
    }
}

/**
 * The register tile: C[0..mr)×[0..nr) += alpha · Σ_p ap[p]·bp[p].
 * `ap`/`bp` are zero-padded micro-panels, so the accumulation always
 * runs the full kMr×NR shape and only the write-back honors mr/nr.
 *
 * The unroll pragmas matter: full unrolling of the i/j loops lets
 * GCC's scalar-replacement pass promote `acc` to vector registers —
 * without it the tile round-trips through the stack every iteration
 * and the kernel runs ~3× slower than the seed loop.
 */
template <int NR>
__attribute__((always_inline)) inline void
micro_tile(std::int64_t kc, const float* __restrict__ ap,
           const float* __restrict__ bp, float alpha, float* __restrict__ c,
           std::int64_t ldc, std::int64_t mr, std::int64_t nr)
{
    float acc[kMr][NR] = {};
    for (std::int64_t p = 0; p < kc; ++p) {
        const float* __restrict__ av = ap + p * kMr;
        const float* __restrict__ bv = bp + p * NR;
#pragma GCC unroll 8
        for (int i = 0; i < kMr; ++i) {
            const float a = av[i];
#pragma GCC unroll 16
            for (int j = 0; j < NR; ++j) {
                acc[i][j] += a * bv[j];
            }
        }
    }
    if (mr == kMr && nr == NR) {
#pragma GCC unroll 8
        for (int i = 0; i < kMr; ++i) {
#pragma GCC unroll 16
            for (int j = 0; j < NR; ++j) {
                c[i * ldc + j] += alpha * acc[i][j];
            }
        }
    } else {
        for (std::int64_t i = 0; i < mr; ++i) {
            for (std::int64_t j = 0; j < nr; ++j) {
                c[i * ldc + j] += alpha * acc[i][j];
            }
        }
    }
}

using MicroKernelFn = void (*)(std::int64_t kc, const float* ap,
                               const float* bp, float alpha, float* c,
                               std::int64_t ldc, std::int64_t mr,
                               std::int64_t nr);

/** Portable baseline: 6×8 tile, 12 XMM accumulators under plain -O3. */
void
micro_kernel_sse(std::int64_t kc, const float* ap, const float* bp,
                 float alpha, float* c, std::int64_t ldc, std::int64_t mr,
                 std::int64_t nr)
{
    micro_tile<kNrSse>(kc, ap, bp, alpha, c, ldc, mr, nr);
}

#if defined(__x86_64__) || defined(__i386__)
/**
 * 6×16 tile compiled for AVX2+FMA (12 YMM accumulators, fused
 * multiply-add). Selected at runtime so the default portable build
 * still exploits modern x86 without -march flags.
 */
__attribute__((target("avx2,fma"))) void
micro_kernel_avx2(std::int64_t kc, const float* ap, const float* bp,
                  float alpha, float* c, std::int64_t ldc, std::int64_t mr,
                  std::int64_t nr)
{
    micro_tile<kNrAvx>(kc, ap, bp, alpha, c, ldc, mr, nr);
}
#endif

/** Wide outputs one direct-convolution register tile covers (4 YMM). */
constexpr std::int64_t kDirectCols = 32;

using DirectConvFn = void (*)(const float* plane, std::int64_t in_c,
                              std::int64_t plane_size, std::int64_t wp,
                              std::int64_t kernel, const float* w,
                              std::int64_t out_c, std::int64_t wide,
                              float* out);

#if defined(__x86_64__) || defined(__i386__)
/**
 * Step 2 of `conv2d_direct`: out[oc][j] = Σ_t w[oc][t] · plane[off(t) + j]
 * over the zero-padded planes, for every wide output j < `wide` (a
 * multiple of kDirectCols). Tap t = (c, kh, kw) sits at
 * off(t) = c·plane_size + kh·wp + kw, so each tap is one contiguous
 * saxpy. A tile keeps 2 output channels × 4 vectors in registers and
 * adds the taps in t order with the fused multiply-add of
 * `micro_kernel_avx2`. An odd last channel pairs with itself; `out`
 * has room for the extra row.
 */
__attribute__((target("avx2,fma"))) void
direct_conv_avx2(const float* plane, std::int64_t in_c,
                 std::int64_t plane_size, std::int64_t wp,
                 std::int64_t kernel, const float* w, std::int64_t out_c,
                 std::int64_t wide, float* out)
{
    const std::int64_t taps = in_c * kernel * kernel;
    for (std::int64_t oc = 0; oc < out_c; oc += 2) {
        const float* wrow[2] = {w + oc * taps,
                                w + std::min(oc + 1, out_c - 1) * taps};
        for (std::int64_t j = 0; j < wide; j += kDirectCols) {
            __m256 acc[2][4];
#pragma GCC unroll 2
            for (int r = 0; r < 2; ++r) {
#pragma GCC unroll 4
                for (int v = 0; v < 4; ++v) {
                    acc[r][v] = _mm256_setzero_ps();
                }
            }
            std::int64_t t = 0;
            for (std::int64_t c = 0; c < in_c; ++c) {
                for (std::int64_t kh = 0; kh < kernel; ++kh) {
                    const float* src = plane + c * plane_size + kh * wp + j;
                    for (std::int64_t kw = 0; kw < kernel; ++kw, ++t) {
                        __m256 xv[4];
#pragma GCC unroll 4
                        for (int v = 0; v < 4; ++v) {
                            xv[v] = _mm256_loadu_ps(src + kw + 8 * v);
                        }
#pragma GCC unroll 2
                        for (int r = 0; r < 2; ++r) {
                            const __m256 wv = _mm256_broadcast_ss(wrow[r] + t);
#pragma GCC unroll 4
                            for (int v = 0; v < 4; ++v) {
                                acc[r][v] = _mm256_fmadd_ps(wv, xv[v], acc[r][v]);
                            }
                        }
                    }
                }
            }
#pragma GCC unroll 2
            for (int r = 0; r < 2; ++r) {
#pragma GCC unroll 4
                for (int v = 0; v < 4; ++v) {
                    _mm256_storeu_ps(out + (oc + r) * wide + j + 8 * v,
                                     acc[r][v]);
                }
            }
        }
    }
}
#endif

/**
 * Runtime-selected micro-kernel, its panel width, and the direct
 * convolution kernel that matches it bit for bit (null when the
 * micro-kernel has no fused multiply-add).
 */
struct KernelChoice
{
    MicroKernelFn fn;
    std::int64_t nr;
    DirectConvFn conv;
};

KernelChoice
select_kernel()
{
#if defined(__x86_64__) || defined(__i386__)
    if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
        return {micro_kernel_avx2, kNrAvx, direct_conv_avx2};
    }
#endif
    return {micro_kernel_sse, kNrSse, nullptr};
}

const KernelChoice&
kernel_choice()
{
    static const KernelChoice choice = select_kernel();
    return choice;
}

/**
 * Strided fallback for problems too small to amortize packing, and
 * for skinny shapes (m < kMr or n < kNr) where the zero-padded tile
 * would waste most of its flops. Picks saxpy or dot order so the
 * innermost loop is contiguous either way, and never lets one output's
 * chain of k dependent adds set the pace alone: the narrow saxpy and
 * the dot orders keep kSmallBlock outputs in flight. Every c(i,j) sees
 * the same operations in increasing p whichever order runs, so the
 * choice changes no result bit.
 */
void
gemm_small(std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
           const float* a, std::int64_t a_rs, std::int64_t a_cs,
           const float* b, std::int64_t b_rs, std::int64_t b_cs, float* c)
{
    if (b_cs == 1 && n >= kNrSse) {
        // Wide op(B): i-p-j, vectorized along the row of C.
        for (std::int64_t i = 0; i < m; ++i) {
            float* crow = c + i * n;
            for (std::int64_t p = 0; p < k; ++p) {
                const float av = alpha * a[i * a_rs + p * a_cs];
                const float* brow = b + p * b_rs;
                for (std::int64_t j = 0; j < n; ++j) {
                    crow[j] += av * brow[j];
                }
            }
        }
        return;
    }
    if (b_cs == 1) {
        // Narrow op(B) (a batch-1 conv lowers to n = 1): run p outside a
        // block of rows, each row keeping c += (alpha·a)·b in p order.
        // A short last block recomputes its last row; only `rows` store.
        for (std::int64_t j = 0; j < n; ++j) {
            for (std::int64_t i0 = 0; i0 < m; i0 += kSmallBlock) {
                const std::int64_t rows = std::min(kSmallBlock, m - i0);
                const float* arow[kSmallBlock];
                float acc[kSmallBlock];
                for (std::int64_t r = 0; r < kSmallBlock; ++r) {
                    const std::int64_t i = i0 + std::min(r, rows - 1);
                    arow[r] = a + i * a_rs;
                    acc[r] = c[i * n + j];
                }
                for (std::int64_t p = 0; p < k; ++p) {
                    const float bv = b[p * b_rs + j];
                    for (std::int64_t r = 0; r < kSmallBlock; ++r) {
                        acc[r] += (alpha * arow[r][p * a_cs]) * bv;
                    }
                }
                for (std::int64_t r = 0; r < rows; ++r) {
                    c[(i0 + r) * n + j] = acc[r];
                }
            }
        }
        return;
    }
    // op(B) columns are strided (transposed B): dot order over a block of
    // columns, each summed in its own double in p order. A short last
    // block recomputes its last column; only `cols` store.
    for (std::int64_t i = 0; i < m; ++i) {
        for (std::int64_t j0 = 0; j0 < n; j0 += kSmallBlock) {
            const std::int64_t cols = std::min(kSmallBlock, n - j0);
            const float* bcol[kSmallBlock];
            for (std::int64_t r = 0; r < kSmallBlock; ++r) {
                bcol[r] = b + (j0 + std::min(r, cols - 1)) * b_cs;
            }
            double acc[kSmallBlock] = {};
            for (std::int64_t p = 0; p < k; ++p) {
                const double av = a[i * a_rs + p * a_cs];
                for (std::int64_t r = 0; r < kSmallBlock; ++r) {
                    acc[r] += av * bcol[r][p * b_rs];
                }
            }
            for (std::int64_t r = 0; r < cols; ++r) {
                c[i * n + j0 + r] += alpha * static_cast<float>(acc[r]);
            }
        }
    }
}

/** The blocked path; see the file comment for the loop nest. */
void
gemm_blocked(std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
             const float* a, std::int64_t a_rs, std::int64_t a_cs,
             const float* b, std::int64_t b_rs, std::int64_t b_cs, float* c)
{
    const KernelChoice& kern = kernel_choice();
    const std::int64_t knr = kern.nr;
    ScratchArena& arena = ScratchArena::for_this_thread();
    for (std::int64_t jc = 0; jc < n; jc += kNc) {
        const std::int64_t nc = std::min(kNc, n - jc);
        for (std::int64_t pc = 0; pc < k; pc += kKc) {
            const std::int64_t kc = std::min(kKc, k - pc);
            ScratchLease bpack = arena.acquire(
                static_cast<std::size_t>(round_up(nc, knr) * kc));
            pack_b(kc, nc, knr, b + pc * b_rs + jc * b_cs, b_rs, b_cs,
                   bpack.data());

            const float* bpack_data = bpack.data();
            const std::int64_t num_blocks = (m + kMc - 1) / kMc;
            auto row_block = [&](std::int64_t blk) {
                const std::int64_t ic = blk * kMc;
                const std::int64_t mc = std::min(kMc, m - ic);
                // Workers pack A into their own thread's arena.
                ScratchLease apack =
                    ScratchArena::for_this_thread().acquire(
                        static_cast<std::size_t>(round_up(mc, kMr) * kc));
                pack_a(mc, kc, a + ic * a_rs + pc * a_cs, a_rs, a_cs,
                       apack.data());
                for (std::int64_t jr = 0; jr < nc; jr += knr) {
                    const std::int64_t nr = std::min(knr, nc - jr);
                    const float* bpanel = bpack_data + jr * kc;
                    for (std::int64_t ir = 0; ir < mc; ir += kMr) {
                        kern.fn(kc, apack.data() + ir * kc, bpanel, alpha,
                                c + (ic + ir) * n + jc + jr, n,
                                std::min(kMr, mc - ir), nr);
                    }
                }
            };

            const bool threaded = num_blocks > 1 &&
                                  m * n * k >= kParallelMinWork &&
                                  !ThreadPool::in_worker() &&
                                  ThreadPool::global().size() > 1;
            if (threaded) {
                parallel_for(0, num_blocks, row_block);
            } else {
                for (std::int64_t blk = 0; blk < num_blocks; ++blk) {
                    row_block(blk);
                }
            }
        }
    }
}

/**
 * Packed-activation clamp of the int8 path: bounds the int16 image of
 * activation + quantized noise so a k ≤ kS8MaxK dot product cannot
 * overflow the int32 accumulator (2047 · 128 · 8192 < 2³¹).
 */
constexpr std::int32_t kS8PackClamp = 2047;

using S8DotFn = std::int32_t (*)(const std::int16_t* a,
                                 const std::int8_t* b, std::int64_t k);

/** Portable int16×int8 dot product (bit-identical to the AVX2 path). */
std::int32_t
s8_dot_portable(const std::int16_t* a, const std::int8_t* b,
                std::int64_t k)
{
    std::int32_t acc = 0;
    for (std::int64_t p = 0; p < k; ++p) {
        acc += static_cast<std::int32_t>(a[p]) * b[p];
    }
    return acc;
}

#if defined(__x86_64__) || defined(__i386__)
/**
 * AVX2 dot kernel: 16 int8 weights sign-extended to int16 lanes,
 * multiply-accumulated against 16 packed int16 activations with
 * `vpmaddwd` (two products per int32 lane, no saturation possible
 * thanks to the ±2047 pack clamp), 8-lane int32 accumulator summed
 * horizontally at the end. Scalar tail for k % 16.
 */
__attribute__((target("avx2"))) std::int32_t
s8_dot_avx2(const std::int16_t* a, const std::int8_t* b, std::int64_t k)
{
    __m256i acc = _mm256_setzero_si256();
    std::int64_t p = 0;
    for (; p + 16 <= k; p += 16) {
        const __m128i b8 = _mm_loadu_si128(
            reinterpret_cast<const __m128i*>(b + p));
        const __m256i b16 = _mm256_cvtepi8_epi16(b8);
        const __m256i a16 = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(a + p));
        acc = _mm256_add_epi32(acc, _mm256_madd_epi16(a16, b16));
    }
    __m128i s = _mm_add_epi32(_mm256_castsi256_si128(acc),
                              _mm256_extracti128_si256(acc, 1));
    s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(1, 0, 3, 2)));
    s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(2, 3, 0, 1)));
    std::int32_t total = _mm_cvtsi128_si32(s);
    for (; p < k; ++p) {
        total += static_cast<std::int32_t>(a[p]) * b[p];
    }
    return total;
}
#endif

const S8DotFn&
s8_dot_choice()
{
    static const S8DotFn fn = [] {
#if defined(__x86_64__) || defined(__i386__)
        if (__builtin_cpu_supports("avx2")) {
            return &s8_dot_avx2;
        }
#endif
        return &s8_dot_portable;
    }();
    return fn;
}

}  // namespace

S8Weights
prepare_s8_weights(const float* w, std::int64_t n, std::int64_t k)
{
    SHREDDER_CHECK(n >= 0 && k >= 0, "negative s8 weight dims");
    S8Weights out;
    const std::int64_t count = n * k;
    float maxabs = 0.0f;
    for (std::int64_t i = 0; i < count; ++i) {
        const float mag = std::fabs(w[i]);
        maxabs = mag > maxabs ? mag : maxabs;
    }
    out.scale = maxabs > 0.0f ? maxabs / 127.0f : 1.0f;
    out.data.resize(static_cast<std::size_t>(count));
    out.colsum.assign(static_cast<std::size_t>(n), 0);
    for (std::int64_t j = 0; j < n; ++j) {
        std::int32_t sum = 0;
        for (std::int64_t p = 0; p < k; ++p) {
            const float r = std::round(w[j * k + p] / out.scale);
            const std::int32_t q =
                r < -127.0f ? -127 : (r > 127.0f ? 127 : static_cast<std::int32_t>(r));
            out.data[static_cast<std::size_t>(j * k + p)] =
                static_cast<std::int8_t>(q);
            sum += q;
        }
        out.colsum[static_cast<std::size_t>(j)] = sum;
    }
    return out;
}

void
gemm_s8(std::int64_t m, std::int64_t n, std::int64_t k,
        const std::int8_t* const* a_rows, const float* a_scale,
        const std::int32_t* a_zp, const float* const* a_noise,
        const std::int8_t* b, float b_scale, const std::int32_t* b_colsum,
        const float* bias, float* c)
{
    SHREDDER_CHECK(m >= 0 && n >= 0 && k >= 0, "negative gemm_s8 dims");
    SHREDDER_CHECK(k <= kS8MaxK, "gemm_s8 k ", k, " exceeds ", kS8MaxK,
                   " (int32 accumulator bound)");
    const S8DotFn dot = s8_dot_choice();
    ScratchArena& arena = ScratchArena::for_this_thread();
    // The int16 packed row borrows the fp32 scratch arena (k floats
    // comfortably hold k int16 values).
    ScratchLease lease = arena.acquire(static_cast<std::size_t>(k + 16));
    auto* packed = reinterpret_cast<std::int16_t*>(lease.data());
    for (std::int64_t i = 0; i < m; ++i) {
        const std::int8_t* arow = a_rows[i];
        const float* nrow = a_noise != nullptr ? a_noise[i] : nullptr;
        if (nrow != nullptr) {
            // Fused noise add: quantize the noise into the row's own
            // code (round(noise/scale) grid steps) while sign-
            // extending — the add costs no extra pass over the data.
            const float inv = 1.0f / a_scale[i];
            for (std::int64_t p = 0; p < k; ++p) {
                float qn = std::nearbyintf(nrow[p] * inv);
                if (std::isnan(qn)) {
                    qn = 0.0f;  // NaN noise adds nothing, not poison.
                }
                const float v = static_cast<float>(arow[p]) + qn;
                packed[p] =
                    v <= static_cast<float>(-kS8PackClamp)
                        ? static_cast<std::int16_t>(-kS8PackClamp)
                        : (v >= static_cast<float>(kS8PackClamp)
                               ? static_cast<std::int16_t>(kS8PackClamp)
                               : static_cast<std::int16_t>(v));
            }
        } else {
            for (std::int64_t p = 0; p < k; ++p) {
                packed[p] = static_cast<std::int16_t>(arow[p]);
            }
        }
        const float row_scale = a_scale[i] * b_scale;
        const std::int32_t zp = a_zp[i];
        float* crow = c + i * n;
        for (std::int64_t j = 0; j < n; ++j) {
            const std::int32_t acc = dot(packed, b + j * k, k);
            crow[j] = row_scale * static_cast<float>(acc - zp * b_colsum[j]) +
                      (bias != nullptr ? bias[j] : 0.0f);
        }
    }
}

void
gemm(bool trans_a, bool trans_b, std::int64_t m, std::int64_t n,
     std::int64_t k, float alpha, const float* a, const float* b, float beta,
     float* c)
{
    SHREDDER_CHECK(m >= 0 && n >= 0 && k >= 0, "negative gemm dims");
    // Scale/zero C first so the kernels can be pure accumulation.
    const std::int64_t cn = m * n;
    if (beta == 0.0f) {
        std::fill(c, c + cn, 0.0f);
    } else if (beta != 1.0f) {
        for (std::int64_t i = 0; i < cn; ++i) {
            c[i] *= beta;
        }
    }
    if (m == 0 || n == 0 || k == 0 || alpha == 0.0f) {
        return;
    }

    // op(A)(i,p) = a[i*a_rs + p*a_cs], op(B)(p,j) = b[p*b_rs + j*b_cs].
    const std::int64_t a_rs = trans_a ? 1 : k;
    const std::int64_t a_cs = trans_a ? m : 1;
    const std::int64_t b_rs = trans_b ? 1 : n;
    const std::int64_t b_cs = trans_b ? k : 1;

    if (m < kMr || n < kNrSse || m * n * k <= kSmallWork) {
        gemm_small(m, n, k, alpha, a, a_rs, a_cs, b, b_rs, b_cs, c);
        return;
    }
    gemm_blocked(m, n, k, alpha, a, a_rs, a_cs, b, b_rs, b_cs, c);
}

bool
conv2d_direct_applies(std::int64_t in_c, std::int64_t out_c,
                      std::int64_t kernel, std::int64_t stride,
                      std::int64_t out_h, std::int64_t out_w)
{
    // gemm's dispatch to gemm_blocked, restricted to one k block: there
    // each output is a single fused chain over all k taps, from 0.
    const std::int64_t m = out_c;
    const std::int64_t n = out_h * out_w;
    const std::int64_t k = in_c * kernel * kernel;
    return kernel_choice().conv != nullptr && stride == 1 && m >= kMr &&
           n >= kNrSse && m * n * k > kSmallWork && k <= kKc;
}

void
conv2d_direct(const float* x, std::int64_t in_c, std::int64_t in_h,
              std::int64_t in_w, std::int64_t kernel, std::int64_t padding,
              const float* w, std::int64_t out_c, const float* bias, float* y)
{
    const KernelChoice& kern = kernel_choice();
    SHREDDER_CHECK(kern.conv != nullptr, "conv2d_direct needs AVX2+FMA");
    const std::int64_t hp = in_h + 2 * padding;
    const std::int64_t wp = in_w + 2 * padding;
    const std::int64_t out_h = hp - kernel + 1;
    const std::int64_t out_w = wp - kernel + 1;
    const std::int64_t plane_size = hp * wp;
    // Wide output j = oh·wp + ow runs over whole padded rows; the
    // columns ow ≥ out_w are computed and dropped. The last tile reads
    // up to (kernel − 1)·(wp + 1) floats past `wide` in the last plane.
    const std::int64_t wide = round_up((out_h - 1) * wp + out_w, kDirectCols);
    const std::int64_t padded =
        (in_c - 1) * plane_size + wide + (kernel - 1) * (wp + 1);

    // Step 1: copy the item once into zero-padded planes.
    ScratchArena& arena = ScratchArena::for_this_thread();
    ScratchLease plane = arena.acquire(static_cast<std::size_t>(padded));
    float* pp = plane.data();
    std::fill(pp, pp + padded, 0.0f);
    for (std::int64_t c = 0; c < in_c; ++c) {
        for (std::int64_t ih = 0; ih < in_h; ++ih) {
            const float* src = x + (c * in_h + ih) * in_w;
            std::copy(src, src + in_w,
                      pp + c * plane_size + (ih + padding) * wp + padding);
        }
    }

    // Step 2: every tap of every wide output, in im2col row order.
    ScratchLease out = arena.acquire(
        static_cast<std::size_t>(round_up(out_c, 2) * wide));
    kern.conv(pp, in_c, plane_size, wp, kernel, w, out_c, wide, out.data());

    // Step 3: drop the pad columns. `+ 0.0f` is gemm's C = 0 + 1·acc (a
    // −0 sum stores as +0), and the bias comes last, as in Conv2d.
    for (std::int64_t oc = 0; oc < out_c; ++oc) {
        const float b = bias != nullptr ? bias[oc] : 0.0f;
        for (std::int64_t oh = 0; oh < out_h; ++oh) {
            const float* src = out.data() + oc * wide + oh * wp;
            float* dst = y + (oc * out_h + oh) * out_w;
            for (std::int64_t ow = 0; ow < out_w; ++ow) {
                const float v = src[ow] + 0.0f;
                dst[ow] = bias != nullptr ? v + b : v;
            }
        }
    }
}

}  // namespace shredder
