/** @file Tests for the split-execution substrate. */
#include <limits>

#include <gtest/gtest.h>

#include "src/models/zoo.h"
#include "src/split/channel.h"
#include "src/split/cost_model.h"
#include "src/split/split_model.h"
#include "src/tensor/ops.h"
#include "src/tensor/serialize.h"
#include "tests/test_util.h"

namespace shredder {
namespace {

using nn::Mode;

TEST(SplitModel, EdgePlusCloudEqualsFullForward)
{
    Rng rng(1);
    auto net = models::make_lenet(rng);
    nn::ExecutionContext ctx;
    Tensor x = Tensor::normal(Shape({2, 1, 28, 28}), rng);
    const Tensor full = net->forward(x, ctx, Mode::kEval);

    for (std::int64_t cut = 0; cut <= net->size(); ++cut) {
        split::SplitModel sm(*net, cut);
        const Tensor a = sm.edge_forward(x, ctx);
        const Tensor y = sm.cloud_forward(a, ctx);
        testing::expect_tensors_near(full, y, 0.0, "split equivalence");
    }
}

TEST(SplitModel, ActivationShapeMatchesExecution)
{
    Rng rng(2);
    auto net = models::make_svhn_net(rng);
    Tensor x = Tensor::normal(Shape({1, 3, 32, 32}), rng);
    nn::ExecutionContext ctx;
    for (std::int64_t cut : split::conv_cut_points(*net)) {
        split::SplitModel sm(*net, cut);
        const Tensor a = sm.edge_forward(x, ctx);
        EXPECT_EQ(sm.activation_shape(Shape({3, 32, 32})), a.shape());
    }
}

TEST(SplitModel, NonFiniteActivationIsServedAtEveryCut)
{
    // Nothing between the wire decoder and cloud_forward rejects
    // non-finite floats, so an all-NaN or all-±inf activation must come
    // out as logits of the right shape at every conv cut of every zoo
    // network — never abort, even where a max-pool window then holds
    // nothing above −∞.
    const float inf = std::numeric_limits<float>::infinity();
    for (const char* name : {"lenet", "cifar", "svhn", "alexnet"}) {
        Rng rng(8);
        auto net = models::make_network(name, rng);
        const Shape input = models::input_shape_for(name);
        const Shape batched_input({1, input[0], input[1], input[2]});
        const Shape logits = net->output_shape(batched_input);
        nn::ExecutionContext ctx;
        for (std::int64_t cut : split::conv_cut_points(*net)) {
            split::SplitModel sm(*net, cut);
            const Shape act = sm.activation_shape(input);
            for (const float v :
                 {std::numeric_limits<float>::quiet_NaN(), inf, -inf}) {
                const Tensor y = sm.cloud_forward(Tensor(act, v), ctx);
                EXPECT_EQ(y.shape(), logits)
                    << name << " cut " << cut << " value " << v;
            }
        }
    }
}

TEST(SplitModel, CloudBackwardReachesCutGradient)
{
    // Finite-difference check: d(loss)/d(activation) via cloud_backward.
    Rng rng(3);
    auto net = models::make_lenet(rng);
    const std::int64_t cut = split::conv_cut_points(*net).back();
    split::SplitModel sm(*net, cut);

    nn::ExecutionContext ctx;
    Tensor x = Tensor::normal(Shape({1, 1, 28, 28}), rng);
    const Tensor a = sm.edge_forward(x, ctx);
    const Tensor y0 = sm.cloud_forward(a, ctx);
    const Tensor w = Tensor::normal(y0.shape(), rng);

    sm.cloud_forward(a, ctx);
    const Tensor analytic = sm.cloud_backward(w, ctx);

    Tensor ap = a;
    const float eps = 1e-2f;
    const std::int64_t stride = std::max<std::int64_t>(1, a.size() / 32);
    for (std::int64_t i = 0; i < a.size(); i += stride) {
        const float orig = ap[i];
        ap[i] = orig + eps;
        const double lp = ops::dot(w, sm.cloud_forward(ap, ctx));
        ap[i] = orig - eps;
        const double lm = ops::dot(w, sm.cloud_forward(ap, ctx));
        ap[i] = orig;
        EXPECT_NEAR(analytic[i], (lp - lm) / (2 * eps), 4e-2);
    }
}

TEST(SplitModel, MacsPartitionConserved)
{
    Rng rng(4);
    auto net = models::make_cifar_net(rng);
    const Shape in({3, 32, 32});
    split::SplitModel whole(*net, net->size());
    const std::int64_t total = whole.edge_macs(in);
    for (std::int64_t cut : split::conv_cut_points(*net)) {
        split::SplitModel sm(*net, cut);
        EXPECT_EQ(sm.edge_macs(in) + sm.cloud_macs(in), total);
    }
}

TEST(ConvCutPoints, LeNetHasThreeConvs)
{
    Rng rng(5);
    auto net = models::make_lenet(rng);
    const auto cuts = split::conv_cut_points(*net);
    ASSERT_EQ(cuts.size(), 3u);
    // Each cut transmits the post-ReLU feature map.
    for (std::int64_t cut : cuts) {
        EXPECT_EQ(net->layer(cut - 1).kind(), "relu");
    }
}

TEST(ConvCutPoints, SvhnHasSevenConvs)
{
    Rng rng(6);
    auto net = models::make_svhn_net(rng);
    EXPECT_EQ(split::conv_cut_points(*net).size(), 7u);
}

TEST(ConvCutPoints, AlexnetHasFiveConvs)
{
    Rng rng(7);
    auto net = models::make_alexnet(rng);
    EXPECT_EQ(split::conv_cut_points(*net).size(), 5u);
}

// ---------------------------------------------------------------------
// Cost model
// ---------------------------------------------------------------------

TEST(CostModel, EdgeMacsMonotoneWithDepth)
{
    Rng rng(8);
    auto net = models::make_svhn_net(rng);
    split::CostModel cm(*net, Shape({3, 32, 32}));
    const auto cuts = split::conv_cut_points(*net);
    std::int64_t prev = -1;
    for (std::int64_t cut : cuts) {
        const auto cost = cm.evaluate(cut);
        EXPECT_GT(cost.edge_macs, prev);
        prev = cost.edge_macs;
    }
}

TEST(CostModel, CommBytesTrackActivationSize)
{
    Rng rng(9);
    auto net = models::make_svhn_net(rng);
    split::CostModel cm(*net, Shape({3, 32, 32}));
    const auto cuts = split::conv_cut_points(*net);
    // Conv6 (bottleneck) must be far cheaper to transmit than Conv0.
    const auto first = cm.evaluate(cuts.front());
    const auto last = cm.evaluate(cuts.back());
    EXPECT_LT(last.comm_bytes, first.comm_bytes / 10);
}

TEST(CostModel, BestCutForSvhnIsConv6)
{
    // §3.4: Conv6 wins on cost × privacy for SVHN.
    Rng rng(10);
    auto net = models::make_svhn_net(rng);
    split::CostModel cm(*net, Shape({3, 32, 32}));
    const auto cuts = split::conv_cut_points(*net);
    EXPECT_EQ(cm.best_cut(cuts, /*margin=*/0.05), cuts.back());
}

TEST(CostModel, ZeroCutMeansAllCloud)
{
    Rng rng(11);
    auto net = models::make_lenet(rng);
    split::CostModel cm(*net, Shape({1, 28, 28}));
    const auto cost = cm.evaluate(0);
    EXPECT_EQ(cost.edge_macs, 0);
    EXPECT_GT(cost.cloud_macs, 0);
    EXPECT_GT(cost.comm_bytes, 28 * 28 * 4);  // raw image + header
}

TEST(CostModel, ReportToString)
{
    Rng rng(12);
    auto net = models::make_lenet(rng);
    split::CostModel cm(*net, Shape({1, 28, 28}));
    const auto s = cm.evaluate(2).to_string();
    EXPECT_NE(s.find("edge_macs"), std::string::npos);
    EXPECT_NE(s.find("KMAC*MB"), std::string::npos);
}

// ---------------------------------------------------------------------
// Channels
// ---------------------------------------------------------------------

TEST(LoopbackChannel, LosslessRoundTripAndAccounting)
{
    split::LoopbackChannel ch;
    Rng rng(13);
    Tensor t = Tensor::normal(Shape({2, 3, 4, 4}), rng);
    const std::int64_t bytes = ch.send(t);
    EXPECT_EQ(bytes, serialized_size(t));
    EXPECT_TRUE(ch.pending());
    Tensor u = ch.receive();
    EXPECT_FALSE(ch.pending());
    testing::expect_tensors_near(t, u, 0.0, "loopback");
    EXPECT_EQ(ch.total_bytes(), bytes);
    EXPECT_EQ(ch.total_messages(), 1);
}

TEST(LoopbackChannel, FifoOrder)
{
    split::LoopbackChannel ch;
    ch.send(Tensor::full(Shape({1}), 1.0f));
    ch.send(Tensor::full(Shape({1}), 2.0f));
    EXPECT_EQ(ch.receive()[0], 1.0f);
    EXPECT_EQ(ch.receive()[0], 2.0f);
}

TEST(QuantizingChannel, ErrorBoundedByStep)
{
    split::QuantizingChannel ch;
    Rng rng(14);
    Tensor t = Tensor::normal(Shape({64}), rng, 0.0f, 2.0f);
    ch.send(t);
    Tensor u = ch.receive();
    const float step = (t.max() - t.min()) / 255.0f;
    EXPECT_LE(ops::max_abs_diff(t, u), step * 0.51 + 1e-6);
}

TEST(QuantizingChannel, FourTimesSmallerThanFloat)
{
    split::QuantizingChannel q;
    split::LoopbackChannel f;
    Rng rng(15);
    Tensor t = Tensor::normal(Shape({1, 16, 8, 8}), rng);
    const std::int64_t qb = q.send(t);
    const std::int64_t fb = f.send(t);
    EXPECT_LT(qb, fb / 3);
}

TEST(QuantizingChannel, ConstantTensorSurvives)
{
    split::QuantizingChannel ch;
    Tensor t = Tensor::full(Shape({10}), 3.5f);
    ch.send(t);
    Tensor u = ch.receive();
    testing::expect_tensors_near(t, u, 1e-6, "constant quantization");
}

TEST(ChannelDeath, ReceiveOnEmptyIsFatal)
{
    split::LoopbackChannel ch;
    EXPECT_EXIT(ch.receive(), ::testing::ExitedWithCode(1), "empty");
}

}  // namespace
}  // namespace shredder
