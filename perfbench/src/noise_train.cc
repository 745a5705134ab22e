/**
 * @file
 * The `noise-train` workload: the paper's offline loop (§2.1–2.4) from
 * scratch. Set-up generates the data and pre-trains LeNet; the run
 * learns a collection of 6 noise tensors at the last-conv cut with the
 * pinned recipe, then scores it with the privacy meter. Training and
 * metering run one sample at a time (see `lenet_noise_recipe`).
 */
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "artifacts.h"
#include "loadgen.h"
#include "src/core/lambda_controller.h"
#include "src/core/noise_tensor.h"
#include "src/core/shredder_loss.h"
#include "src/data/dataloader.h"
#include "src/info/snr.h"
#include "src/models/zoo.h"
#include "src/net/protocol.h"
#include "src/nn/loss.h"
#include "src/nn/optimizer.h"
#include "src/runtime/noise_policy.h"
#include "src/split/split_model.h"
#include "workloads.h"

namespace perfbench {

using namespace shredder;

namespace {

constexpr int kNoiseTensors = 6;
constexpr std::int64_t kTrainCount = 3000;
constexpr std::int64_t kTestCount = 1000;
// The workload pins every seed of its recipe: the data, the pre-trained
// network, the noise learning and the replay draws it is scored through
// are the same in every run, so top1 and mi_bits move only when the
// code does. `--seed` drives only the traced run's step replica. With
// the network, the learning or the replay draws taken from `--seed`,
// mi_bits moved by 2x, 2x and 10% between seeds.
constexpr std::uint64_t kSetupSeed = 42;
constexpr std::uint64_t kMeterSeed = 2024;
constexpr std::uint64_t kReplaySeed = 0x5EED;

/**
 * The training data, handed to `NoiseTrainer` through its public
 * `Dataset` interface. Every `get` is time-stamped, so the start of
 * each mini-batch — and with it each training iteration — is visible
 * without touching the trainer.
 */
class StampedDataset : public data::Dataset
{
  public:
    explicit StampedDataset(const data::Dataset& inner) : inner_(inner)
    {
        stamps_.reserve(1 << 14);
    }

    std::int64_t size() const override { return inner_.size(); }
    data::Sample get(std::int64_t idx) const override
    {
        stamps_.push_back(now_ns());
        return inner_.get(idx);
    }
    Shape image_shape() const override { return inner_.image_shape(); }
    std::int64_t num_classes() const override
    {
        return inner_.num_classes();
    }
    std::string name() const override { return inner_.name(); }

    std::vector<std::int64_t>& stamps() const { return stamps_; }

  private:
    const data::Dataset& inner_;
    mutable std::vector<std::int64_t> stamps_;
};

/** One set-up: generate the data and pre-train from scratch. */
struct Setup
{
    std::unique_ptr<MemoryDataset> train;
    std::unique_ptr<MemoryDataset> test;
    std::unique_ptr<nn::Sequential> net;
    double seconds = 0.0;
    double pretrain_seconds = 0.0;
};

Setup
set_up(std::uint64_t seed)
{
    Setup s;
    const std::int64_t t0 = now_ns();
    s.train = std::make_unique<MemoryDataset>(
        *make_digits(kTrainCount, seed * 31 + 1));
    s.test = std::make_unique<MemoryDataset>(
        *make_digits(kTestCount, seed * 31 + 2));
    const std::int64_t t1 = now_ns();
    Rng rng(seed);
    s.net = models::make_lenet(rng);
    Rng train_rng = rng.fork();
    models::train_model(*s.net, *s.train, *s.test, pretrain_recipe(1),
                        train_rng);
    const std::int64_t t2 = now_ns();
    s.seconds = static_cast<double>(t2 - t0) / 1e9;
    s.pretrain_seconds = static_cast<double>(t2 - t1) / 1e9;
    return s;
}

}  // namespace

Report
run_noise_train(const RunArgs& args)
{
    Report report;

    // --- Set-up, three times from scratch; the median is reported. ---
    std::vector<double> setups;
    std::vector<double> pretrains;
    Setup s;
    for (int r = 0; r < 3; ++r) {
        s = set_up(kSetupSeed);
        setups.push_back(s.seconds);
        pretrains.push_back(s.pretrain_seconds);
    }
    report.e2e("setup_s", median(setups), "s");

    const auto cuts = split::conv_cut_points(*s.net);
    split::SplitModel model(*s.net, cuts.back());

    // --- Learn the collection with the pinned recipe. ---
    StampedDataset stamped(*s.train);
    core::NoiseCollection collection;
    std::vector<double> iter_ms;
    double learn_s = 0.0;
    std::int64_t samples = 0;
    const double cpu0 = process_cpu_seconds();
    for (int t = 0; t < kNoiseTensors; ++t) {
        const core::NoiseTrainConfig cfg = lenet_noise_recipe(
            kSetupSeed * 1000003ULL + 7777 + static_cast<std::uint64_t>(t));
        stamped.stamps().clear();
        const std::int64_t t0 = now_ns();
        core::NoiseTrainResult result =
            core::NoiseTrainer(model, stamped, cfg).train();
        const std::int64_t t1 = now_ns();
        learn_s += static_cast<double>(t1 - t0) / 1e9;
        samples += static_cast<std::int64_t>(cfg.iterations) * cfg.batch_size;

        // Iteration k starts at the first `get` of mini-batch k, after
        // the trainer's calibration probe of one batch.
        const auto& st = stamped.stamps();
        const auto batch = static_cast<std::size_t>(cfg.batch_size);
        const std::size_t expect =
            batch + static_cast<std::size_t>(cfg.iterations) * batch;
        if (st.size() != expect) {
            throw InvalidRun("noise trainer read " +
                             std::to_string(st.size()) +
                             " samples, expected " + std::to_string(expect));
        }
        for (int k = 0; k < cfg.iterations; ++k) {
            const std::int64_t begin = st[batch * (1 + k)];
            const std::int64_t end = k + 1 < cfg.iterations
                                         ? st[batch * (2 + k)]
                                         : t1;
            iter_ms.push_back(static_cast<double>(end - begin) / 1e6);
        }

        core::NoiseSample sample;
        sample.noise = std::move(result.noise);
        sample.in_vivo_privacy = result.final_in_vivo;
        sample.train_accuracy = result.final_batch_accuracy;
        collection.add(std::move(sample));
    }
    const double learn_cpu_s = process_cpu_seconds() - cpu0;
    report.attempted = static_cast<std::int64_t>(iter_ms.size());
    const Quantile p50 = quantile(iter_ms, 0.5);
    const Quantile p99 = quantile(iter_ms, 0.99);
    report.layer("core.train_iter_p99_ms", p99.value, "ms");
    report.layer("core.train_samples_per_s",
                 static_cast<double>(samples) / learn_s, "1/s");
    report.e2e("cpu_us_per_request",
               learn_cpu_s * 1e6 / static_cast<double>(samples), "us");
    report.notes.push_back("core.train_iter_ms, core.train_iter_p99_ms: per "
                           "iteration (one sample) over " +
                           std::to_string(p99.count) +
                           " iterations; cpu_us_per_request = process CPU "
                           "time per training sample");

    // --- Score it: clean pass vs the replay mechanism. ---
    core::PrivacyMeter meter(model, *s.test, lenet_meter_recipe(kMeterSeed));
    const core::PrivacyReport clean = meter.measure_clean();
    const runtime::ReplayPolicy replay(collection, kReplaySeed);
    const std::int64_t m0 = now_ns();
    const core::PrivacyReport noisy = meter.measure_policy(replay);
    const double meter_s = static_cast<double>(now_ns() - m0) / 1e9;
    report.e2e("top1", noisy.accuracy, "frac");
    report.e2e("mi_bits", noisy.mi_bits, "bits");
    report.correct = noisy.mi_bits < clean.mi_bits;
    report.failed = report.correct ? 0 : 1;
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "privacy gate: replay mi %.4f bits vs clean %.4f bits; "
                  "top1 %.4f vs clean %.4f",
                  noisy.mi_bits, clean.mi_bits, noisy.accuracy,
                  clean.accuracy);
    report.notes.push_back(buf);

    // The frames the learned mechanism would put on the wire per query.
    {
        net::Request r;
        r.request_id = 1;
        r.endpoint = "replay";
        r.activation = collection.get(0).noise;
        report.e2e("wire_bytes_per_request",
                   static_cast<double>(net::encode_request(r).size() +
                                       LoadGenerator::response_bytes(10)),
                   "B");
    }

    if (!args.trace) {
        return report;
    }

    // --- Per-layer metrics (traced run). ---
    report.layer("core.train_iter_ms", p50.value, "ms");
    report.layer("models.pretrain_s", median(pretrains), "s");
    report.layer("info.meter_s", meter_s, "s");

    // A replica of one training step built from the same public calls
    // NoiseTrainer makes, with a span around each stage. The step's
    // self time (span minus its children) is loss, Adam and λ.
    const core::NoiseTrainConfig cfg = lenet_noise_recipe(args.seed);
    nn::ExecutionContext ctx(args.seed);
    Rng rng(args.seed);
    data::DataLoader loader(*s.train, cfg.batch_size, true, rng);
    const Shape act = model.activation_shape(s.train->image_shape());
    core::NoiseTensor noise(Shape({act[1], act[2], act[3]}), cfg.init);
    nn::Adam optimizer({&noise.param()}, cfg.learning_rate);
    core::ShredderLoss loss(cfg.term, cfg.lambda.initial_lambda);
    core::LambdaController lambda(cfg.lambda);
    constexpr int kReplicaSteps = 200;
    SpanBuffer spans(8 * kReplicaSteps + 16);
    auto step = [&](bool record) {
        auto batch = loader.next();
        if (!batch) {
            loader.reset();
            batch = loader.next();
        }
        const std::int64_t t0 = now_ns();
        const Tensor a = model.edge_forward(batch->images, ctx);
        const std::int64_t t1 = now_ns();
        const Tensor logits =
            model.cloud_forward(noise.apply(a), ctx, nn::Mode::kEval);
        const std::int64_t t2 = now_ns();
        const core::ShredderLossValue lv =
            loss.compute(logits, batch->labels, noise.value());
        optimizer.zero_grad();
        const std::int64_t t3 = now_ns();
        const Tensor grad = model.cloud_backward(lv.logits_grad, ctx);
        const std::int64_t t4 = now_ns();
        noise.accumulate_grad(grad);
        loss.add_privacy_grad(noise.value(), noise.param().grad);
        optimizer.step();
        loss.set_lambda(
            lambda.observe(info::in_vivo_privacy(a, noise.value())));
        nn::accuracy(logits, batch->labels);
        const std::int64_t t5 = now_ns();
        if (record) {
            const std::int64_t root = spans.add("core.step", t0, t5);
            spans.add("nn.edge_forward", t0, t1, root);
            spans.add("nn.cloud_forward_train", t1, t2, root);
            spans.add("nn.cloud_backward", t3, t4, root);
        }
    };
    step(false);
    const std::int64_t u0 = now_ns();
    for (int i = 0; i < kReplicaSteps; ++i) {
        step(false);
    }
    const std::int64_t u1 = now_ns();
    for (int i = 0; i < kReplicaSteps; ++i) {
        step(true);
    }
    const std::int64_t u2 = now_ns();
    report.layer("nn.edge_forward_ms",
                 median_duration_ns(spans, "nn.edge_forward") / 1e6, "ms");
    report.layer("nn.cloud_forward_train_ms",
                 median_duration_ns(spans, "nn.cloud_forward_train") / 1e6,
                 "ms");
    report.layer("nn.cloud_backward_ms",
                 median_duration_ns(spans, "nn.cloud_backward") / 1e6, "ms");
    std::vector<double> residual;
    const auto self = self_times(spans.spans());
    for (std::size_t i = 0; i < self.size(); ++i) {
        if (std::strcmp(spans.spans()[i].name, "core.step") == 0) {
            residual.push_back(static_cast<double>(self[i]) / 1e6);
        }
    }
    report.layer("core.step_residual_ms", median(residual), "ms");
    report.layer("trace.overhead_ms",
                 static_cast<double>((u2 - u1) - (u1 - u0)) / 1e6 /
                     kReplicaSteps,
                 "ms");
    report.layer("trace.spans", static_cast<double>(spans.spans().size()),
                 "count");
    std::filesystem::create_directories(args.work_dir);
    write_spans(args.work_dir + "/spans.csv", {&spans});
    return report;
}

}  // namespace perfbench
