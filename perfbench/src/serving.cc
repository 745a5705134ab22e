/**
 * @file
 * The serving workloads, `lenet-mix` and `lenet-replay`: cold-start a
 * `shredder_serve` front door from bundles written for this run, drive
 * open-loop load through it, then a closed loop that measures its CPU
 * time per request, and check the served logits against the offline
 * recipe built from the same bundles.
 */
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <future>
#include <mutex>
#include <random>
#include <thread>

#include "artifacts.h"
#include "loadgen.h"
#include "server_proc.h"
#include "src/core/privacy_meter.h"
#include "src/deploy/bundle.h"
#include "src/net/protocol.h"
#include "src/nn/linear.h"
#include "src/runtime/noise_policy.h"
#include "src/runtime/serving_engine.h"
#include "src/split/split_model.h"
#include "workloads.h"

namespace perfbench {

using namespace shredder;

namespace {

/** One endpoint of a serving workload. */
struct EndpointSpec
{
    std::string name;
    /** Layer-metric suffix of its policy (`runtime.policy_apply_us.*`). */
    std::string kind;
    deploy::PolicySpec policy;
    WireDtype dtype = WireDtype::kF32;
    bool int8_compute = false;
};

// Both serving workloads: LeNet cut at its last conv (the paper's
// default cut), cold-started from bundles, under open-loop load.
const char* const kEndpointKeys = "adaptive_batching=true slo_ms=2 max_batch=8";
constexpr std::int64_t kMaxBatch = 8;  // as in kEndpointKeys
// The nominal rate, per endpoint. Each endpoint's batcher holds a batch
// open only while (max_batch - 1) x its mean inter-arrival gap is under
// slo_ms, i.e. above 3,500 req/s per endpoint. At 1,000 the gap is
// 3.5x that threshold, so every request ships at once and the open-loop
// latency is the served path's own. Near the threshold (4,000 per
// endpoint) the batcher flips between holding and shipping with the
// arrival noise, and p50 moved by tens of percent from run to run.
constexpr double kQpsPerEndpoint = 1000.0;
constexpr double kSloMs = 10.0;
constexpr int kConnections = 1;
// Closed loop: six full batches in flight per endpoint, so the queue
// always holds a full batch.
constexpr std::int64_t kClosedWindowPerEndpoint = 6 * kMaxBatch;
constexpr std::int64_t kPoolSize = 1024;
constexpr double kWindowS = 0.25;
constexpr double kWarmupS = 1.0;
constexpr int kSetupReps = 5;
// Traced run only: the max-rate search starts at half the closed-loop
// rate, doubles until a probe fails (at most 8 times), then bisects the
// last doubling 4 times: a resolution of 2^(1/16), 4.4%.
constexpr int kSearchDoublings = 8;
constexpr int kSearchSteps = 4;
constexpr double kSearchStepS = 0.5;
constexpr std::int64_t kGateSamples = 200;
constexpr int kNominalAttempts = 8;

/** What distinguishes the serving workloads. */
struct ServingSpec
{
    std::vector<EndpointSpec> endpoints;
    unsigned shards = 1;
    unsigned threads_per_shard = 2;
};

deploy::PolicySpec
policy_of(deploy::PolicyKind kind)
{
    deploy::PolicySpec p;
    p.kind = kind;
    p.seed = 0x5EED;
    return p;
}

ServingSpec
spec_for(const std::string& workload)
{
    ServingSpec s;
    const EndpointSpec replay{"replay", "replay",
                              policy_of(deploy::PolicyKind::kReplay),
                              WireDtype::kF32, false};
    if (workload == "lenet-mix") {
        deploy::PolicySpec composed = policy_of(deploy::PolicyKind::kComposed);
        composed.stages = {policy_of(deploy::PolicyKind::kShuffle),
                           policy_of(deploy::PolicyKind::kReplay)};
        s.endpoints = {
            replay,
            {"sample", "sample", policy_of(deploy::PolicyKind::kSample),
             WireDtype::kF32, false},
            {"shuffle", "shuffle", composed, WireDtype::kF32, false},
            {"int8", "int8", policy_of(deploy::PolicyKind::kReplay),
             WireDtype::kI8, true},
        };
        s.shards = 2;
        s.threads_per_shard = 1;
    } else {
        // One plain fp32 tenant on one shard: the single-tenant baseline
        // the mix is read against.
        s.endpoints = {replay};
    }
    return s;
}

Shape
batched(const Shape& chw)
{
    return Shape({1, chw[0], chw[1], chw[2]});
}

/** Median per-call time (ns) of `fn` over `reps` calls after a warm-up. */
template <typename F>
double
median_call_ns(SpanBuffer& buffer, const char* name, int reps, F&& fn)
{
    fn();
    std::vector<double> d;
    d.reserve(static_cast<std::size_t>(reps));
    for (int i = 0; i < reps; ++i) {
        d.push_back(static_cast<double>(timed(buffer, name, fn)));
    }
    return median(std::move(d));
}

/**
 * Upper bound of |int8-served − fp32-recipe| on any logit: the first
 * cloud linear layer sees each input within half an activation step
 * (noise rounded onto the activation grid) and each weight within half
 * a weight step, so one output moves by at most
 * k·(½·a_scale·max|W| + ½·w_scale·max|a′|) — the k·(a_scale·c₁ +
 * w_scale·c₂) budget tests/test_quantize.cc uses, with the operand
 * magnitudes taken exactly. Later layers scale it by their ∞-norm
 * (ReLU, flatten and dropout are 1-Lipschitz).
 */
double
int8_tolerance(const nn::Sequential& net, std::int64_t cut, float a_scale,
               const Tensor& noised)
{
    double bound = 0.0;
    bool first = true;
    for (std::int64_t i = cut; i < net.size(); ++i) {
        auto* lin = dynamic_cast<const nn::Linear*>(&net.layer(i));
        if (lin == nullptr) {
            continue;
        }
        const Tensor& w = const_cast<nn::Linear*>(lin)->weight().value;
        const std::int64_t out = w.shape()[0];
        const std::int64_t in = w.shape()[1];
        if (first) {
            double wmax = 0.0;
            for (std::int64_t j = 0; j < w.size(); ++j) {
                wmax = std::max(wmax, std::fabs(static_cast<double>(w[j])));
            }
            double amax = 0.0;
            for (std::int64_t j = 0; j < noised.size(); ++j) {
                amax = std::max(amax,
                                std::fabs(static_cast<double>(noised[j])));
            }
            const double w_scale = wmax / 127.0;
            bound = static_cast<double>(in) *
                    (0.5 * a_scale * wmax + 0.5 * w_scale * amax);
            first = false;
            continue;
        }
        double norm = 0.0;
        for (std::int64_t r = 0; r < out; ++r) {
            double row = 0.0;
            for (std::int64_t c = 0; c < in; ++c) {
                row += std::fabs(static_cast<double>(w[r * in + c]));
            }
            norm = std::max(norm, row);
        }
        bound *= norm;
    }
    return bound + 1e-4;
}

/**
 * True when `served` is bit for bit what the offline recipe
 * `cloud_forward(noised)` computes at one of the batch sizes the server
 * may have run the request in (1..max_batch). Rows of a batch do not
 * mix, but the GEMM's blocking depends on the batch size, so the last
 * bits of a row depend on how many rows ran with it; a batch of n
 * copies of the request gives every row position at size n at once.
 */
bool
served_by_recipe(const split::SplitModel& model, const Tensor& noised,
                 const Tensor& served, std::int64_t max_batch,
                 nn::ExecutionContext& ctx)
{
    const Shape& s = noised.shape();
    const std::int64_t classes = served.size();
    for (std::int64_t n = 1; n <= max_batch; ++n) {
        Tensor batch(Shape({n, s[0], s[1], s[2]}));
        for (std::int64_t i = 0; i < n; ++i) {
            batch.set_slice0(i, noised);
        }
        const Tensor y = model.cloud_forward(batch, ctx);
        if (y.size() != n * classes) {
            return false;
        }
        for (std::int64_t i = 0; i < n; ++i) {
            if (std::memcmp(y.data() + i * classes, served.data(),
                            sizeof(float) *
                                static_cast<std::size_t>(classes)) == 0) {
                return true;
            }
        }
    }
    return false;
}

/** Cold-start the server and get one answer from every endpoint. */
std::unique_ptr<ServeProcess>
cold_start(const RunArgs& args, const ServingSpec& spec,
           const std::string& manifest, const Tensor& probe, double* seconds)
{
    const std::int64_t t0 = now_ns();
    auto server = std::make_unique<ServeProcess>(
        args.serve_bin, manifest,
        std::vector<std::string>{"--shards", std::to_string(spec.shards),
                                 "--threads-per-shard",
                                 std::to_string(spec.threads_per_shard)},
        args.work_dir);
    net::Client client("127.0.0.1", server->port());
    std::uint64_t id = 1;
    for (const EndpointSpec& ep : spec.endpoints) {
        client.infer(ep.name, probe, id++, ep.dtype);
    }
    *seconds = static_cast<double>(now_ns() - t0) / 1e9;
    client.close();
    return server;
}

/** Counter deltas of the served engine over one phase. */
struct ServedDelta
{
    double requests = 0.0;
    double batches = 0.0;
    double busy_s = 0.0;
    double int8_direct = 0.0;
    double fp32_fused = 0.0;
    std::map<double, double> queue_wait;
};

ServedDelta
delta(const Scrape& before, const Scrape& after)
{
    ServedDelta d;
    auto diff = [&](const char* name) {
        return family_sum(after, name) - family_sum(before, name);
    };
    d.requests = diff("shredder_requests_total");
    d.batches = diff("shredder_batches_total");
    d.busy_s = diff("shredder_busy_seconds_total");
    d.int8_direct = diff("shredder_int8_direct_batches_total");
    d.fp32_fused = diff("shredder_fp32_fused_batches_total");
    const auto b0 = histogram_buckets(before, "shredder_queue_wait_seconds");
    for (const auto& [bound, count] :
         histogram_buckets(after, "shredder_queue_wait_seconds")) {
        const auto it = b0.find(bound);
        d.queue_wait[bound] = count - (it == b0.end() ? 0.0 : it->second);
    }
    return d;
}

/**
 * The in-process twin: the same manifest in a `ServingEngine` in this
 * process, fed the same schedule through `submit` — what the server
 * costs without sockets and framing.
 */
struct TwinResult
{
    double p50_ms = 0.0;
    runtime::ServerStats stats;
};

TwinResult
run_twin(const ServingSpec& spec, const std::string& manifest,
         const std::vector<Tensor>& pool, const PhaseSpec& phase)
{
    runtime::ServingEngineConfig cfg;
    cfg.shards = spec.shards;
    cfg.threads_per_shard = spec.threads_per_shard;
    runtime::ServingEngine engine(cfg);
    engine.register_endpoints_from_manifest(manifest);

    const Schedule schedule =
        make_schedule(phase, pool.size(), spec.endpoints.size());
    const std::size_t n = schedule.offset_ns.size();
    const std::vector<std::int64_t>& sched = schedule.offset_ns;
    const std::vector<std::size_t>& which = schedule.pool_index;
    std::mutex mutex;
    std::condition_variable cv;
    std::deque<std::pair<std::size_t, std::future<Tensor>>> queue;
    bool done = false;
    std::vector<double> lat;
    lat.reserve(n);
    const std::int64_t t0 = now_ns();
    std::thread waiter([&] {
        for (;;) {
            std::pair<std::size_t, std::future<Tensor>> item;
            {
                std::unique_lock<std::mutex> lock(mutex);
                cv.wait(lock, [&] { return !queue.empty() || done; });
                if (queue.empty()) {
                    return;
                }
                item = std::move(queue.front());
                queue.pop_front();
            }
            try {
                item.second.get();
                lat.push_back(static_cast<double>(
                                  now_ns() - (t0 + sched[item.first])) /
                              1e6);
            } catch (const std::exception&) {
            }
        }
    });
    for (std::size_t i = 0; i < n; ++i) {
        wait_until(t0 + sched[i]);
        const EndpointSpec& ep = spec.endpoints[i % spec.endpoints.size()];
        const std::uint64_t id = phase.first_id + i;
        std::future<Tensor> f =
            ep.dtype == WireDtype::kF32
                ? engine.submit(ep.name, pool[which[i]], id)
                : engine.submit_quantized(ep.name,
                                          quantize(pool[which[i]], ep.dtype),
                                          id);
        {
            std::lock_guard<std::mutex> lock(mutex);
            queue.emplace_back(i, std::move(f));
        }
        cv.notify_one();
    }
    {
        std::lock_guard<std::mutex> lock(mutex);
        done = true;
    }
    cv.notify_all();
    waiter.join();
    TwinResult out;
    out.p50_ms = median(lat);
    out.stats = engine.stats();
    engine.shutdown();
    return out;
}

/** Leaked MI of the served mechanisms, and what the meter took. */
struct ServedPrivacy
{
    double mi_bits = 0.0;
    double meter_s = 0.0;
};

/**
 * Privacy of the served mechanisms, traffic-weighted (even split). The
 * int8 tenant's mechanism includes its wire quantization. The meter
 * scores them on one fixed evaluation set, so the value changes only
 * when the master, the policies or the meter change.
 */
ServedPrivacy
served_privacy(const ServingSpec& spec, std::vector<deploy::Bundle>& bundles,
               const std::vector<std::shared_ptr<const runtime::NoisePolicy>>&
                   policies)
{
    ServedPrivacy out;
    const auto meter_set = make_digits(1024, 4243);
    const core::MeterConfig mc = lenet_meter_recipe(2024);
    const std::int64_t t0 = now_ns();
    for (std::size_t t = 0; t < spec.endpoints.size(); ++t) {
        split::SplitModel m(bundles[t].network(), bundles[t].cut());
        core::PrivacyMeter meter(m, *meter_set, mc);
        std::shared_ptr<const runtime::NoisePolicy> served = policies[t];
        if (spec.endpoints[t].dtype != WireDtype::kF32) {
            served = std::make_shared<runtime::ComposedPolicy>(
                std::vector<std::shared_ptr<const runtime::NoisePolicy>>{
                    std::make_shared<runtime::QuantizePolicy>(
                        spec.endpoints[t].dtype),
                    policies[t]});
        }
        out.mi_bits += meter.measure_policy(*served).mi_bits;
    }
    out.meter_s = static_cast<double>(now_ns() - t0) / 1e9;
    out.mi_bits /= static_cast<double>(spec.endpoints.size());
    return out;
}

}  // namespace

Report
run_serving(const RunArgs& args)
{
    const ServingSpec spec = spec_for(args.workload);
    Report report;
    SpanBuffer offline(1 << 16);

    nn::ExecutionContext ctx(args.seed);
    const auto test =
        make_digits(kPoolSize, 1000003ULL * args.seed + 11);
    std::filesystem::create_directories(args.work_dir);
    const std::string manifest = args.work_dir + "/manifest.txt";
    // Trained on the first run of a build (untimed); loaded from the
    // cache by every set-up below.
    master_bundle(args.cache_dir);

    // --- Set-up, several times; the last one's server stays up. ---
    // One set-up loads the master, runs the edge half over this run's
    // inputs, writes the bundles and cold-starts the server up to the
    // first answer from every endpoint.
    std::unique_ptr<deploy::Bundle> master_ptr;
    std::unique_ptr<split::SplitModel> model_ptr;
    std::vector<Tensor> pool;
    std::vector<std::int64_t> labels;
    std::unique_ptr<ServeProcess> server;
    std::vector<double> setups;
    std::vector<double> cold_starts;
    for (int r = 0; r < kSetupReps; ++r) {
        if (server) {
            server->stop();
        }
        const std::int64_t t0 = now_ns();
        model_ptr.reset();
        master_ptr = std::make_unique<deploy::Bundle>(
            master_bundle(args.cache_dir));
        deploy::Bundle& m = *master_ptr;
        model_ptr = std::make_unique<split::SplitModel>(m.network(), m.cut());
        pool.clear();
        labels.clear();
        // The edge half runs as a device would, one input at a time (and
        // so never through the thread pool's parallel_for, see README).
        for (std::int64_t i = 0; i < kPoolSize; ++i) {
            const data::Batch one = data::materialize(*test, i, 1);
            pool.push_back(model_ptr->edge_forward(one.images, ctx).slice0(0));
            labels.push_back(one.labels.front());
        }
        std::ofstream list(manifest);
        for (const EndpointSpec& ep : spec.endpoints) {
            deploy::BundleContents c;
            c.network = &m.network();
            c.cut = m.cut();
            c.input_shape = m.input_shape();
            c.policy = ep.policy;
            c.collection = &m.collection();
            c.distribution = &m.distribution();
            c.wire_dtype = ep.dtype;
            c.int8_compute = ep.int8_compute;
            deploy::save_bundle(args.work_dir + "/" + ep.name + ".shb", c);
            list << "endpoint " << ep.name << " " << ep.name << ".shb "
                 << kEndpointKeys << "\n";
        }
        list.close();
        double cold = 0.0;
        server = cold_start(args, spec, manifest, pool.front(), &cold);
        setups.push_back(static_cast<double>(now_ns() - t0) / 1e9);
        cold_starts.push_back(cold);
    }
    deploy::Bundle& master = *master_ptr;
    split::SplitModel& model = *model_ptr;
    report.e2e("setup_s", median(setups), "s");
    report.notes.push_back("setup_s: median of " +
                           std::to_string(setups.size()) +
                           " set-ups; cold start alone (median) " +
                           std::to_string(median(cold_starts)) + " s");

    LoadInputs inputs;
    for (const EndpointSpec& ep : spec.endpoints) {
        inputs.mix.push_back(Target{ep.name, ep.dtype});
    }
    inputs.pool = &pool;
    inputs.labels = &labels;
    LoadGenerator gen("127.0.0.1", server->port(), kConnections, inputs);
    const double nominal_qps =
        kQpsPerEndpoint * static_cast<double>(spec.endpoints.size());

    std::uint64_t next_id = 1000;
    auto phase = [&](double rate, double seconds, std::uint64_t salt) {
        PhaseSpec p;
        p.rate = rate;
        p.seconds = seconds;
        p.seed = args.seed * 7919ULL + salt;
        p.first_id = next_id;
        p.window_s = kWindowS;
        next_id += static_cast<std::uint64_t>(rate * seconds) + 1000;
        return p;
    };

    // --- Warm-up, then the nominal-rate phase the latencies come from. ---
    const PhaseResult warm = gen.run(phase(nominal_qps, kWarmupS, 1));
    Scrape before = scrape_metrics(server->port());
    const double nominal_s = 0.3 * args.seconds;
    PhaseSpec nominal_spec = phase(nominal_qps, nominal_s, 2);
    // Odd, so the kept requests cover every endpoint of the mix.
    nominal_spec.keep_every =
        std::max<std::int64_t>(1, static_cast<std::int64_t>(
                                      nominal_qps * nominal_s /
                                      static_cast<double>(kGateSamples))) |
        1;
    // A phase the generator could not keep to its schedule (late p99
    // beyond the SLO) measured the host, not the server: it is discarded
    // and run again (new ids, same schedule), at most kNominalAttempts
    // times in all.
    PhaseResult nominal;
    PhaseCounts discarded;
    Scrape after;
    double late_p99 = 0.0;
    int attempts = 0;
    for (;;) {
        ++attempts;
        if (attempts > 1) {
            discarded.sent += nominal.counts.sent;
            discarded.failed += nominal.counts.failed;
        }
        nominal = gen.run(nominal_spec);
        after = scrape_metrics(server->port());
        late_p99 = quantile(nominal.late_ms, 0.99).value;
        if (late_p99 <= kSloMs || attempts == kNominalAttempts) {
            break;
        }
        nominal_spec.first_id = next_id;
        next_id += static_cast<std::uint64_t>(nominal_s * nominal_qps) +
                   1000;
        before = after;
    }
    std::fprintf(stderr,
                 "perfbench: nominal phase (attempt %d): %lld sent, %lld ok, "
                 "late p50 %.3f p99 %.3f ms, latency p50 %.3f p99 %.3f ms\n",
                 attempts, static_cast<long long>(nominal.counts.sent),
                 static_cast<long long>(nominal.counts.ok),
                 quantile(nominal.late_ms, 0.5).value, late_p99,
                 quantile(nominal.latency_ms, 0.5).value,
                 nominal.p99().value);
    if (late_p99 > kSloMs) {
        throw InvalidRun("the load generator fell behind its schedule "
                         "(late p99 " + std::to_string(late_p99) +
                         " ms); latencies would not be the server's");
    }

    // --- Traced run: the nominal schedule again, with spans. ---
    PhaseResult traced;
    if (args.trace) {
        PhaseSpec t = nominal_spec;
        t.keep_every = 0;
        t.trace_every = 4;
        t.first_id = next_id;
        next_id += static_cast<std::uint64_t>(t.rate * t.seconds) + 1000;
        traced = gen.run(t);
    }

    // --- Closed loop: the rate the server sustains, and its CPU cost. ---
    auto closed = [&](double seconds, std::uint64_t salt,
                      std::function<void(std::int64_t)> sample) {
        ClosedSpec c;
        c.sample = std::move(sample);
        c.seconds = seconds;
        c.window = kClosedWindowPerEndpoint *
                   static_cast<std::int64_t>(spec.endpoints.size());
        c.seed = args.seed * 7919ULL + salt;
        c.first_id = next_id;
        next_id += 1ULL << 32;
        return gen.run_closed(c);
    };
    const ClosedResult closed_warm = closed(0.5, 3, nullptr);
    // The server's CPU time per answered request in each one-second
    // window; the median is reported, so a burst of interference from
    // the host in a few windows does not move it.
    std::vector<std::pair<double, std::int64_t>> samples;
    const ClosedResult saturated =
        closed(0.55 * args.seconds, 4, [&](std::int64_t answered) {
            samples.emplace_back(server->cpu_seconds(), answered);
        });
    std::vector<double> window_cpu_us;
    for (std::size_t i = 1; i < samples.size(); ++i) {
        const std::int64_t n = samples[i].second - samples[i - 1].second;
        if (n > 0) {
            window_cpu_us.push_back(
                (samples[i].first - samples[i - 1].first) * 1e6 /
                static_cast<double>(n));
        }
    }
    const double cpu_us_per_request = median(window_cpu_us);
    std::fprintf(stderr,
                 "perfbench: closed loop: %lld ok in %.3f s = %.0f req/s, "
                 "server CPU %.3f us/request (median of %zu windows)\n",
                 static_cast<long long>(saturated.counts.ok),
                 saturated.seconds, saturated.rate(), cpu_us_per_request,
                 window_cpu_us.size());

    // --- Max rate within the SLO (traced run only). ---
    PhaseCounts search_counts;
    SearchResult search;
    if (args.trace) {
        std::uint64_t salt = 100;
        auto probe = [&](double rate) {
            const PhaseResult r = gen.run(phase(rate, kSearchStepS, salt++));
            search_counts.sent += r.counts.sent;
            search_counts.ok += r.counts.ok;
            search_counts.failed += r.counts.failed;
            search_counts.refused += r.counts.refused;
            StepResult s;
            s.rate = rate;
            s.counts = r.counts;
            s.p99_ms = median(r.window_p99_ms);
            s.served_p99_ms =
                slo_quantile(r.served_ms, r.counts.misses(), 0.99).value;
            s.late_p99_ms = quantile(r.late_ms, 0.99).value;
            return s;
        };
        const double start = 0.5 * saturated.rate();
        const StepResult first = probe(start);
        search = search_max_rate(start, step_passes(first, kSloMs),
                                 kSearchDoublings, kSearchSteps, kSloMs,
                                 probe);
        search.steps.insert(search.steps.begin(), first);
        if (search.capped) {
            throw InvalidRun("the max-rate search passed every rate up to " +
                             std::to_string(search.max_rate) +
                             " req/s and found no upper bound");
        }
        if (search.generator_bound) {
            report.notes.push_back(
                "max_qps_at_slo: the lowest failing rate failed only because "
                "the generator fell behind; the answer may be the client's "
                "limit");
        }
    }

    const Scrape final_scrape = scrape_metrics(server->port());
    server->stop();

    // --- Correctness gate: served logits vs the offline recipe. ---
    std::vector<deploy::Bundle> bundles;
    std::vector<std::shared_ptr<const runtime::NoisePolicy>> policies;
    for (const EndpointSpec& ep : spec.endpoints) {
        bundles.push_back(
            deploy::load_bundle(args.work_dir + "/" + ep.name + ".shb"));
    }
    for (deploy::Bundle& b : bundles) {
        policies.push_back(b.make_policy());
    }
    std::int64_t checked = 0;
    std::int64_t mismatched = 0;
    double worst_int8_margin = 0.0;
    for (const KeptResponse& k : nominal.kept) {
        const EndpointSpec& ep = spec.endpoints[k.target];
        split::SplitModel m(bundles[k.target].network(),
                            bundles[k.target].cut());
        Tensor a = pool[k.pool_index];
        float a_scale = 0.0f;
        if (ep.dtype != WireDtype::kF32) {
            const QuantizedTensor q = quantize(a, ep.dtype);
            a_scale = q.scale;
            a = dequantize(q);
        }
        const Tensor noised = policies[k.target]->apply(a, k.request_id);
        ++checked;
        bool same = false;
        if (ep.dtype == WireDtype::kF32) {
            same = served_by_recipe(m, noised, k.logits, kMaxBatch, ctx);
        } else {
            const Tensor want = m.cloud_forward(
                noised.reshaped(batched(noised.shape())), ctx);
            const double tol = int8_tolerance(bundles[k.target].network(),
                                              bundles[k.target].cut(),
                                              a_scale, noised);
            same = want.size() == k.logits.size();
            for (std::int64_t j = 0; same && j < want.size(); ++j) {
                const double err = std::fabs(
                    static_cast<double>(want[j]) - k.logits[j]);
                worst_int8_margin = std::max(worst_int8_margin, err / tol);
                same = err <= tol;
            }
        }
        mismatched += same ? 0 : 1;
    }
    report.correct = checked > 0 && mismatched == 0 &&
                     nominal.counts.failed == 0;
    report.notes.push_back(
        "correctness gate: " + std::to_string(checked) +
        " served responses re-derived offline, " +
        std::to_string(mismatched) + " mismatched" +
        (worst_int8_margin > 0.0
             ? "; worst int8 error = " + std::to_string(worst_int8_margin) +
                   " of its bound"
             : ""));

    report.attempted = warm.counts.sent + discarded.sent +
                       nominal.counts.sent + closed_warm.counts.sent +
                       saturated.counts.sent + search_counts.sent;
    report.failed = warm.counts.failed + discarded.failed +
                    nominal.counts.failed + closed_warm.counts.failed +
                    saturated.counts.failed + search_counts.failed;

    // --- End-to-end metrics. ---
    report.e2e("cpu_us_per_request", cpu_us_per_request, "us");
    report.notes.push_back(
        "cpu_us_per_request: shredder_serve's CPU time per answer, median "
        "of " + std::to_string(window_cpu_us.size()) + " one-second "
        "windows; " + std::to_string(saturated.counts.ok) +
        " requests answered in a closed loop with " +
        std::to_string(kClosedWindowPerEndpoint *
                       static_cast<std::int64_t>(spec.endpoints.size())) +
        " in flight (" + std::to_string(saturated.rate()) + " req/s)");
    // Wall-clock latency and rate are reported, not gated: see README,
    // "How the figures are kept steady".
    const Quantile p50 = quantile(nominal.latency_ms, 0.5);
    report.layer("loadgen.p50_ms", p50.value, "ms");
    report.layer("loadgen.p99_ms", median(nominal.window_p99_ms), "ms");
    report.layer("loadgen.throughput_per_s", saturated.rate(), "1/s");
    report.notes.push_back(
        "loadgen.p50_ms over " + std::to_string(p50.count) +
        " requests; loadgen.p99_ms = median of " +
        std::to_string(nominal.window_p99_ms.size()) + " window p99s (" +
        std::to_string(kWindowS) + " s windows, misses counted); " +
        "whole-phase p99 = " + std::to_string(nominal.p99().value) +
        " ms over " + std::to_string(nominal.p99().count));
    std::string steps_note = "max_qps_at_slo search:";
    for (const StepResult& s : search.steps) {
        char buf[128];
        std::snprintf(buf, sizeof buf,
                      " %.0f/s p99=%.2fms served=%.2fms late=%.2fms%s",
                      s.rate, s.p99_ms, s.served_p99_ms, s.late_p99_ms,
                      step_passes(s, kSloMs) ? "" : "(miss)");
        steps_note += buf;
    }
    report.notes.push_back(steps_note);
    std::string windows_note = "nominal window p99s (ms):";
    for (const double w : nominal.window_p99_ms) {
        char buf[32];
        std::snprintf(buf, sizeof buf, " %.2f", w);
        windows_note += buf;
    }
    report.notes.push_back(windows_note);

    double wire = 0.0;
    const std::int64_t classes =
        nominal.kept.empty() ? 10 : nominal.kept.front().logits.size();
    for (std::size_t t = 0; t < inputs.mix.size(); ++t) {
        wire += static_cast<double>(gen.request_bytes(t) +
                                    LoadGenerator::response_bytes(classes));
    }
    report.e2e("wire_bytes_per_request",
               wire / static_cast<double>(inputs.mix.size()), "B");
    report.e2e("top1",
               nominal.counts.ok > 0
                   ? static_cast<double>(nominal.top1_hits) /
                         static_cast<double>(nominal.counts.ok)
                   : 0.0,
               "frac");

    const ServedPrivacy privacy = served_privacy(spec, bundles, policies);
    report.e2e("mi_bits", privacy.mi_bits, "bits");

    if (!args.trace) {
        return report;
    }

    // --- Per-layer metrics (traced run). ---
    report.layer("loadgen.late_p99_ms", late_p99, "ms");
    report.layer("loadgen.max_qps_at_slo", search.max_rate, "1/s");
    const std::pair<const char*, const PhaseCounts*> phases[] = {
        {"warmup", &warm.counts},
        {"nominal", &nominal.counts},
        {"search", &search_counts},
        {"traced", &traced.counts}};
    for (const auto& [name, c] : phases) {
        const std::string p = std::string("loadgen.") + name;
        report.layer(p + ".sent", static_cast<double>(c->sent), "count");
        report.layer(p + ".ok", static_cast<double>(c->ok), "count");
        report.layer(p + ".failed", static_cast<double>(c->failed), "count");
    }
    report.layer("loadgen.failed_frac", nominal.counts.miss_frac(), "frac");

    report.layer("net.send_us",
                 median_duration_ns(traced.spans, "net.send") / 1e3, "us");
    report.layer("net.recv_us",
                 median_duration_ns(traced.spans, "net.recv") / 1e3, "us");
    {
        // Self time of a request span = time in neither send nor recv:
        // the server, the wire and the queues.
        std::vector<double> self;
        const auto st = self_times(traced.spans.spans());
        for (std::size_t i = 0; i < st.size(); ++i) {
            if (std::strcmp(traced.spans.spans()[i].name,
                            "loadgen.request") == 0) {
                self.push_back(static_cast<double>(st[i]) / 1e6);
            }
        }
        report.layer("loadgen.request_self_p50_ms", median(self), "ms");
    }
    report.layer("net.bytes_up", static_cast<double>(nominal.bytes_up),
                 "B");
    report.layer("net.bytes_down", static_cast<double>(nominal.bytes_down),
                 "B");
    report.layer("trace.overhead_ms",
                 quantile(traced.latency_ms, 0.5).value - p50.value, "ms");

    // Codec cost on the exact frames this run sent and received.
    {
        std::vector<double> dec;
        std::vector<double> enc;
        for (std::size_t t = 0; t < spec.endpoints.size(); ++t) {
            net::Request r;
            r.request_id = 7;
            r.endpoint = spec.endpoints[t].name;
            if (spec.endpoints[t].dtype == WireDtype::kF32) {
                r.activation = pool.front();
            } else {
                r.quantized = quantize(pool.front(), spec.endpoints[t].dtype);
                r.is_quantized = true;
            }
            const std::string payload = net::encode_request(r).substr(12);
            dec.push_back(median_call_ns(offline, "net.decode_request", 2000,
                                         [&] {
                                             net::decode_request_payload(
                                                 payload);
                                         }));
            net::Response resp;
            resp.request_id = 7;
            resp.output = nominal.kept.empty() ? Tensor(Shape({classes}))
                                               : nominal.kept.front().logits;
            enc.push_back(median_call_ns(offline, "net.encode_response",
                                         2000, [&] {
                                             net::encode_response(resp);
                                         }));
        }
        double d = 0.0;
        double e = 0.0;
        for (std::size_t t = 0; t < dec.size(); ++t) {
            d += dec[t];
            e += enc[t];
        }
        report.layer("net.decode_request_us",
                     d / static_cast<double>(dec.size()) / 1e3, "us");
        report.layer("net.encode_response_us",
                     e / static_cast<double>(enc.size()) / 1e3, "us");
    }

    // Served-engine counters over the nominal phase (/metrics deltas).
    const ServedDelta sd = delta(before, after);
    report.layer("runtime.queue_wait_p50_ms",
                 histogram_quantile(sd.queue_wait, 0.5) * 1e3, "ms");
    report.layer("runtime.queue_wait_p99_ms",
                 histogram_quantile(sd.queue_wait, 0.99) * 1e3, "ms");
    const double exec_ms =
        sd.batches > 0 ? sd.busy_s * 1e3 / sd.batches : 0.0;
    const double mean_batch = sd.batches > 0 ? sd.requests / sd.batches : 0.0;
    report.layer("runtime.exec_ms_per_batch", exec_ms, "ms");
    report.layer("runtime.mean_batch", mean_batch, "count");
    report.layer("runtime.int8_direct_frac",
                 sd.batches > 0 ? sd.int8_direct / sd.batches : 0.0, "frac");
    report.layer("runtime.fp32_fused_frac",
                 sd.batches > 0 ? sd.fp32_fused / sd.batches : 0.0, "frac");
    report.layer("deploy.weights_dedupe_bytes",
                 family_sum(final_scrape,
                            "shredder_weights_dedupe_bytes_total"),
                 "B");
    report.layer("deploy.unique_weight_sets",
                 family_sum(final_scrape, "shredder_weights_unique_sets"),
                 "count");

    // The in-process twin on the nominal schedule.
    const TwinResult twin = run_twin(spec, manifest, pool, nominal_spec);
    report.layer("net.added_p50_ms", p50.value - twin.p50_ms, "ms");
    report.layer("runtime.full_batch_frac",
                 twin.stats.batches > 0
                     ? static_cast<double>(twin.stats.full_dispatches) /
                           static_cast<double>(twin.stats.batches)
                     : 0.0,
                 "frac");

    // Policy draws, quantize codec.
    for (std::size_t t = 0; t < spec.endpoints.size(); ++t) {
        const auto& policy = policies[t];
        std::uint64_t id = 1;
        report.layer("runtime.policy_apply_us." + spec.endpoints[t].kind,
                     median_call_ns(offline, "runtime.policy_apply", 2000,
                                    [&] { policy->apply(pool[id % pool.size()],
                                                        id);
                                          ++id; }) /
                         1e3,
                     "us");
    }
    report.layer("tensor.quantize_us",
                 median_call_ns(offline, "tensor.quantize", 2000,
                                [&] { quantize(pool.front(), WireDtype::kI8); }) /
                     1e3,
                 "us");
    const QuantizedTensor q8 = quantize(pool.front(), WireDtype::kI8);
    report.layer("tensor.dequantize_us",
                 median_call_ns(offline, "tensor.dequantize", 2000,
                                [&] { dequantize(q8); }) /
                     1e3,
                 "us");

    // Cloud half: whole and layer by layer, at batch 1 and 8.
    const int reps = 2000;
    auto batch_of = [&](std::int64_t n) {
        const Shape& s = pool.front().shape();
        Tensor b(Shape({n, s[0], s[1], s[2]}));
        for (std::int64_t i = 0; i < n; ++i) {
            b.set_slice0(i, pool[static_cast<std::size_t>(i)]);
        }
        return b;
    };
    const Tensor b1 = batch_of(1);
    const double cf1 = median_call_ns(offline, "split.cloud_forward", reps,
                                      [&] { model.cloud_forward(b1, ctx); });
    report.layer("split.cloud_forward_us_per_req.b1", cf1 / 1e3, "us");
    const Tensor b8 = batch_of(8);
    const double cf8 = median_call_ns(offline, "split.cloud_forward", reps,
                                      [&] { model.cloud_forward(b8, ctx); });
    report.layer("split.cloud_forward_us_per_req.b8", cf8 / 8.0 / 1e3, "us");
    {
        const auto nb = std::max<std::int64_t>(
            1, std::min<std::int64_t>(8, std::llround(mean_batch)));
        const Tensor bn = batch_of(nb);
        const double cfn = median_call_ns(offline, "split.cloud_forward",
                                          reps, [&] {
                                              model.cloud_forward(bn, ctx);
                                          });
        report.layer("runtime.nonmodel_frac",
                     exec_ms > 0 ? 1.0 - cfn / 1e6 / exec_ms : 0.0, "frac");
    }
    const nn::Sequential& net = master.network();
    std::map<std::string, double> kind_ns;
    double conv_flop = 0.0;
    double conv_ns = 0.0;
    double lin_flop = 0.0;
    double lin_ns = 0.0;
    // Every layer, one at a time: the edge half on one input (as a
    // device runs it, and clear of the parallel_for path), the cloud half
    // at the largest batch the workload serves. MACs are per sample.
    Tensor x = test->get(0).image.reshaped(batched(test->image_shape()));
    Shape shape_in = x.shape();
    for (std::int64_t i = 0; i < net.size(); ++i) {
        const nn::Layer& layer = net.layer(i);
        const std::int64_t rows = i < master.cut() ? 1 : kMaxBatch;
        if (i == master.cut()) {
            x = batch_of(rows);
        }
        Tensor y;
        const double ns = median_call_ns(offline, "nn.layer", reps, [&] {
            y = net.forward_range(x, i, i + 1, ctx, nn::Mode::kEval);
        });
        const std::string kind = layer.kind();
        report.layer("nn.layer.lenet." + std::to_string(i) + "." + kind +
                         "_us",
                     ns / 1e3, "us");
        if (i >= master.cut()) {
            kind_ns[kind] += ns;
        }
        const double flop = 2.0 * static_cast<double>(layer.macs(shape_in)) *
                            static_cast<double>(rows);
        if (kind == "conv2d") {
            conv_flop += flop;
            conv_ns += ns;
        } else if (kind == "linear") {
            lin_flop += flop;
            lin_ns += ns;
        }
        shape_in = layer.output_shape(shape_in);
        x = std::move(y);
    }
    double all_ns = 0.0;
    for (const auto& [k, ns] : kind_ns) {
        all_ns += ns;
    }
    for (const auto& [k, ns] : kind_ns) {
        report.layer("nn.kind_frac." + k, ns / all_ns, "frac");
    }
    report.layer("tensor.conv_gflops", conv_ns > 0 ? conv_flop / conv_ns : 0.0,
                 "GFLOP/s");
    report.layer("tensor.linear_gflops", lin_ns > 0 ? lin_flop / lin_ns : 0.0,
                 "GFLOP/s");

    // Deployment: bundle loads (all of this workload's bundles).
    {
        std::vector<double> loads;
        for (int r = 0; r < 3; ++r) {
            const std::int64_t t0 = now_ns();
            for (const EndpointSpec& ep : spec.endpoints) {
                deploy::load_bundle(args.work_dir + "/" + ep.name + ".shb");
            }
            loads.push_back(static_cast<double>(now_ns() - t0) / 1e6);
        }
        report.layer("deploy.bundle_load_ms", median(loads), "ms");
    }
    report.layer("info.meter_s", privacy.meter_s, "s");
    report.layer("trace.spans",
                 static_cast<double>(traced.spans.spans().size() +
                                     offline.spans().size()),
                 "count");
    write_spans(args.work_dir + "/spans.csv", {&traced.spans, &offline});
    return report;
}

}  // namespace perfbench
