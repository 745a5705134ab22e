/**
 * @file
 * Implementation of the edge/cloud network partition (§2.1).
 */
#include "src/split/split_model.h"

#include <algorithm>
#include <cstring>
#include <iterator>
#include <mutex>
#include <string>
#include <unordered_map>

#include "src/runtime/logging.h"

namespace shredder {
namespace split {

namespace {

/**
 * True when every edge layer computes each batch row from that row
 * alone, with the same arithmetic whatever the batch: a memoized row
 * then equals the row a fresh batched edge forward would give. These
 * are the layers before every zoo network's conv cuts; any other layer
 * turns the memo off.
 */
bool
edge_acts_per_row(const nn::Sequential& network, std::int64_t cut)
{
    static const char* const kPerRow[] = {"conv2d", "relu", "maxpool2d",
                                          "lrn"};
    for (std::int64_t i = 0; i < cut; ++i) {
        const std::string kind = network.layer(i).kind();
        if (std::none_of(std::begin(kPerRow), std::end(kPerRow),
                         [&](const char* k) { return kind == k; })) {
            return false;
        }
    }
    return true;
}

/**
 * Hash of `n` floats' bytes, eight at a time: a row's bucket in the
 * memo, whose rows are then compared exactly.
 */
std::uint64_t
hash_row(const float* row, std::size_t n)
{
    const auto* b = reinterpret_cast<const unsigned char*>(row);
    const std::size_t bytes = n * sizeof(float);
    std::uint64_t h = 0x9E3779B97F4A7C15ULL ^ bytes;
    std::size_t i = 0;
    for (; i + 8 <= bytes; i += 8) {
        std::uint64_t w;
        std::memcpy(&w, b + i, 8);
        h = (h ^ w) * 0xFF51AFD7ED558CCDULL;
        h ^= h >> 32;
    }
    if (i < bytes) {
        std::uint32_t w;
        std::memcpy(&w, b + i, 4);
        h = (h ^ w) * 0xFF51AFD7ED558CCDULL;
        h ^= h >> 32;
    }
    return h;
}

}  // namespace

/** The edge memo (see the header's file comment). */
struct SplitModel::EdgeMemo
{
    /** One kept row: its input and its activation, batch dim 1. */
    struct Row
    {
        Shape input_shape;
        std::vector<float> input;
        Shape activation_shape;
        std::vector<float> activation;
    };

    std::mutex mu;
    bool per_row = false;  ///< Fixed at construction.
    std::size_t budget = kEdgeMemoBytes;
    bool open = false;     ///< Set by a revalidation that fit the weights.
    std::uint64_t generation = 0;  ///< Bumped whenever rows are dropped.
    std::size_t bytes = 0;         ///< Weight copy plus every kept row.
    std::vector<float> weights;    ///< Edge weights the rows were made under.
    std::unordered_multimap<std::uint64_t, Row> rows;  ///< By input hash.

    /** The kept row for input `x` of shape `shape`, or null. */
    const Row*
    find(std::uint64_t key, const Shape& shape, const float* x,
         std::size_t n) const
    {
        const auto [lo, hi] = rows.equal_range(key);
        for (auto it = lo; it != hi; ++it) {
            const Row& r = it->second;
            if (r.input_shape == shape &&
                std::memcmp(r.input.data(), x, n * sizeof(float)) == 0) {
                return &r;
            }
        }
        return nullptr;
    }

    /** Drop every row and the weight copy. */
    void
    clear()
    {
        rows.clear();
        weights.clear();
        bytes = 0;
        open = false;
        ++generation;
    }
};

SplitModel::SplitModel(nn::Sequential& network, std::int64_t cut)
    : network_(network), cut_(cut), memo_(std::make_unique<EdgeMemo>())
{
    SHREDDER_REQUIRE(cut >= 0 && cut <= network.size(), "cut ", cut,
                     " out of range [0, ", network.size(), "]");
    memo_->per_row = edge_acts_per_row(network, cut);
}

SplitModel::SplitModel(SplitModel&&) noexcept = default;
SplitModel::~SplitModel() = default;

Tensor
SplitModel::edge_forward(const Tensor& x, nn::ExecutionContext& ctx,
                         nn::Mode mode) const
{
    return network_.forward_range(x, 0, cut_, ctx, mode);
}

Tensor
SplitModel::edge_forward_memoized(const Tensor& x,
                                  nn::ExecutionContext& ctx,
                                  std::int64_t* passes) const
{
    EdgeMemo& memo = *memo_;
    const std::int64_t n = x.shape()[0];
    const Shape row_shape = x.shape().with_dim(0, 1);
    const auto row_floats = static_cast<std::size_t>(row_shape.numel());
    std::vector<std::uint64_t> keys;
    std::uint64_t generation = 0;
    bool keep = false;
    if (memo.per_row && n > 0) {
        keys.resize(static_cast<std::size_t>(n));
        for (std::int64_t r = 0; r < n; ++r) {
            keys[static_cast<std::size_t>(r)] = hash_row(
                x.data() + static_cast<std::size_t>(r) * row_floats,
                row_floats);
        }
        std::vector<const EdgeMemo::Row*> hits;
        hits.reserve(keys.size());
        const std::lock_guard<std::mutex> lock(memo.mu);
        keep = memo.open;
        generation = memo.generation;
        for (std::int64_t r = 0; keep && r < n; ++r) {
            const EdgeMemo::Row* hit = memo.find(
                keys[static_cast<std::size_t>(r)], row_shape,
                x.data() + static_cast<std::size_t>(r) * row_floats,
                row_floats);
            if (hit == nullptr) {
                break;
            }
            hits.push_back(hit);
        }
        if (keep && static_cast<std::int64_t>(hits.size()) == n) {
            std::vector<float> out;
            out.reserve(hits.size() * hits[0]->activation.size());
            for (const EdgeMemo::Row* hit : hits) {
                out.insert(out.end(), hit->activation.begin(),
                           hit->activation.end());
            }
            return Tensor(hits[0]->activation_shape.with_dim(0, n),
                          std::move(out));
        }
    }

    // L is never differentiated: its pass keeps no backward caches.
    const bool retain = ctx.retain_activations();
    ctx.set_retain_activations(false);
    Tensor a = edge_forward(x, ctx, nn::Mode::kEval);
    ctx.set_retain_activations(retain);
    if (passes != nullptr) {
        *passes += n;
    }
    if (!keep) {
        return a;
    }

    const Shape act_row_shape = a.shape().with_dim(0, 1);
    const auto act_floats = static_cast<std::size_t>(act_row_shape.numel());
    const std::size_t row_bytes = sizeof(float) * (row_floats + act_floats);
    const std::lock_guard<std::mutex> lock(memo.mu);
    if (!memo.open || memo.generation != generation) {
        return a;  // emptied while L ran: these rows may be stale
    }
    for (std::int64_t r = 0; r < n; ++r) {
        if (memo.budget - memo.bytes < row_bytes) {
            break;
        }
        const float* in = x.data() + static_cast<std::size_t>(r) * row_floats;
        const std::uint64_t key = keys[static_cast<std::size_t>(r)];
        if (memo.find(key, row_shape, in, row_floats) != nullptr) {
            continue;
        }
        const float* act = a.data() + static_cast<std::size_t>(r) * act_floats;
        memo.rows.emplace(
            key, EdgeMemo::Row{row_shape,
                               std::vector<float>(in, in + row_floats),
                               act_row_shape,
                               std::vector<float>(act, act + act_floats)});
        memo.bytes += row_bytes;
    }
    return a;
}

void
SplitModel::revalidate_edge_memo() const
{
    EdgeMemo& memo = *memo_;
    if (!memo.per_row) {
        return;
    }
    std::vector<float> live;
    for (std::int64_t i = 0; i < cut_; ++i) {
        for (const nn::Parameter* p : network_.layer(i).parameters()) {
            live.insert(live.end(), p->value.data(),
                        p->value.data() + p->value.size());
        }
    }
    const std::lock_guard<std::mutex> lock(memo.mu);
    if (memo.open && live.size() == memo.weights.size() &&
        (live.empty() ||
         std::memcmp(live.data(), memo.weights.data(),
                     live.size() * sizeof(float)) == 0)) {
        return;
    }
    memo.clear();
    const std::size_t weight_bytes = live.size() * sizeof(float);
    if (weight_bytes <= memo.budget) {
        memo.weights = std::move(live);
        memo.bytes = weight_bytes;
        memo.open = true;
    }
}

void
SplitModel::set_edge_memo_bytes(std::size_t bytes)
{
    const std::lock_guard<std::mutex> lock(memo_->mu);
    memo_->clear();
    memo_->budget = bytes;
}

Tensor
SplitModel::cloud_forward(const Tensor& activation,
                          nn::ExecutionContext& ctx, nn::Mode mode) const
{
    return network_.forward_range(activation, cut_, network_.size(), ctx,
                                  mode);
}

Tensor
SplitModel::cloud_backward(const Tensor& grad_logits,
                           nn::ExecutionContext& ctx)
{
    return network_.backward_range(grad_logits, cut_, network_.size(), ctx);
}

Shape
SplitModel::batched(const Shape& input_chw)
{
    if (input_chw.rank() == 3) {
        return Shape({1, input_chw[0], input_chw[1], input_chw[2]});
    }
    return input_chw;
}

Shape
SplitModel::activation_shape(const Shape& input_chw) const
{
    return network_.output_shape_range(batched(input_chw), 0, cut_);
}

std::int64_t
SplitModel::edge_macs(const Shape& input_chw) const
{
    return network_.macs_range(batched(input_chw), 0, cut_);
}

std::int64_t
SplitModel::cloud_macs(const Shape& input_chw) const
{
    const Shape at_cut =
        network_.output_shape_range(batched(input_chw), 0, cut_);
    return network_.macs_range(at_cut, cut_, network_.size());
}

std::vector<std::int64_t>
conv_cut_points(const nn::Sequential& network)
{
    std::vector<std::int64_t> cuts;
    for (std::int64_t i = 0; i < network.size(); ++i) {
        if (network.layer(i).kind() != "conv2d") {
            continue;
        }
        // Include the activation function (and nothing else) that
        // directly follows the convolution: the transmitted tensor is
        // the post-activation feature map.
        std::int64_t cut = i + 1;
        if (cut < network.size()) {
            const auto& next = network.layer(cut).kind();
            if (next == "relu" || next == "tanh") {
                ++cut;
            }
        }
        cuts.push_back(cut);
    }
    return cuts;
}

}  // namespace split
}  // namespace shredder
