/**
 * @file
 * `perfbench_run` — one benchmark run.
 *
 *   perfbench_run --workload lenet-mix --seed 3 --seconds 10 --trace 0
 *
 * Normally started by perfbench/run.py, which builds it first. The last
 * line of standard output is the run's result:
 *
 *   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
 *
 * with every end-to-end metric under `--trace 0` and every per-layer
 * metric under `--trace 1`. A line before it records the run's
 * provenance. Exit status: 0 on a correct run, 1 when the correctness
 * gate failed (the result is still printed), 2 on a usage or build
 * error, 3 when the run is invalid (nothing printed as a result).
 */
#include <sched.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <string>
#include <thread>

#include "src/models/zoo.h"
#include "src/runtime/thread_pool.h"
#include "src/split/split_model.h"
#include "workloads.h"

namespace perfbench {

const std::vector<std::string>&
workload_names()
{
    static const std::vector<std::string> names{"lenet-mix", "lenet-replay",
                                                "noise-train"};
    return names;
}

std::vector<std::pair<std::string, std::string>>
end_to_end_metrics()
{
    return {{"setup_s", "s"},
            {"cpu_us_per_request", "us"},
            {"wire_bytes_per_request", "B"},
            {"top1", "frac"},
            {"mi_bits", "bits"}};
}

std::vector<std::pair<std::string, std::string>>
per_layer_metrics()
{
    std::vector<std::pair<std::string, std::string>> out = {
        {"net.send_us", "us"},
        {"net.recv_us", "us"},
        {"net.decode_request_us", "us"},
        {"net.encode_response_us", "us"},
        {"net.added_p50_ms", "ms"},
        {"net.bytes_up", "B"},
        {"net.bytes_down", "B"},
        {"runtime.queue_wait_p50_ms", "ms"},
        {"runtime.queue_wait_p99_ms", "ms"},
        {"runtime.exec_ms_per_batch", "ms"},
        {"runtime.mean_batch", "count"},
        {"runtime.full_batch_frac", "frac"},
        {"runtime.policy_apply_us.replay", "us"},
        {"runtime.policy_apply_us.sample", "us"},
        {"runtime.policy_apply_us.shuffle", "us"},
        {"runtime.policy_apply_us.int8", "us"},
        {"runtime.nonmodel_frac", "frac"},
        {"runtime.int8_direct_frac", "frac"},
        {"runtime.fp32_fused_frac", "frac"},
        {"split.cloud_forward_us_per_req.b1", "us"},
        {"split.cloud_forward_us_per_req.b8", "us"},
    };
    // Every LeNet layer; the kind shares are of the cloud half.
    std::set<std::string> kinds;
    shredder::Rng rng(1);
    const auto lenet = shredder::models::make_lenet(rng);
    const std::int64_t cut = shredder::split::conv_cut_points(*lenet).back();
    for (std::int64_t i = 0; i < lenet->size(); ++i) {
        const std::string kind = lenet->layer(i).kind();
        if (i >= cut) {
            kinds.insert(kind);
        }
        out.emplace_back("nn.layer.lenet." + std::to_string(i) + "." + kind +
                             "_us",
                         "us");
    }
    for (const std::string& k : kinds) {
        out.emplace_back("nn.kind_frac." + k, "frac");
    }
    const std::vector<std::pair<std::string, std::string>> rest = {
        {"tensor.conv_gflops", "GFLOP/s"},
        {"tensor.linear_gflops", "GFLOP/s"},
        {"tensor.quantize_us", "us"},
        {"tensor.dequantize_us", "us"},
        {"info.meter_s", "s"},
        {"deploy.bundle_load_ms", "ms"},
        {"deploy.weights_dedupe_bytes", "B"},
        {"deploy.unique_weight_sets", "count"},
        {"loadgen.p50_ms", "ms"},
        {"loadgen.p99_ms", "ms"},
        {"loadgen.throughput_per_s", "1/s"},
        {"loadgen.max_qps_at_slo", "1/s"},
        {"loadgen.late_p99_ms", "ms"},
        {"loadgen.request_self_p50_ms", "ms"},
        {"loadgen.failed_frac", "frac"},
        {"loadgen.warmup.sent", "count"},
        {"loadgen.warmup.ok", "count"},
        {"loadgen.warmup.failed", "count"},
        {"loadgen.nominal.sent", "count"},
        {"loadgen.nominal.ok", "count"},
        {"loadgen.nominal.failed", "count"},
        {"loadgen.search.sent", "count"},
        {"loadgen.search.ok", "count"},
        {"loadgen.search.failed", "count"},
        {"loadgen.traced.sent", "count"},
        {"loadgen.traced.ok", "count"},
        {"loadgen.traced.failed", "count"},
        {"trace.overhead_ms", "ms"},
        {"trace.spans", "count"},
        // The training loop (noise-train).
        {"nn.edge_forward_ms", "ms"},
        {"nn.cloud_forward_train_ms", "ms"},
        {"nn.cloud_backward_ms", "ms"},
        {"core.train_iter_ms", "ms"},
        {"core.train_samples_per_s", "1/s"},
        {"core.train_iter_p99_ms", "ms"},
        {"core.step_residual_ms", "ms"},
        {"models.pretrain_s", "s"},
    };
    out.insert(out.end(), rest.begin(), rest.end());
    return out;
}

}  // namespace perfbench

namespace {

using namespace perfbench;

std::string
json_string(const std::string& s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
json_number(double v)
{
    if (!std::isfinite(v)) {
        return "null";
    }
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
cpu_model()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos) {
                return line.substr(colon + 2);
            }
        }
    }
    return "unknown";
}

/**
 * Confine this process, and so the server and every thread it starts, to
 * the first two CPUs it may use; returns them as "0,1". On a shared
 * virtual machine the server's CPU time per request spread half as much
 * over runs when it and the generator kept to two vCPUs as when the
 * scheduler spread them over four.
 */
std::string
pin_to_two_cpus()
{
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) {
        return "unpinned";
    }
    cpu_set_t pinned;
    CPU_ZERO(&pinned);
    std::string list;
    int n = 0;
    for (int c = 0; c < CPU_SETSIZE && n < 2; ++c) {
        if (CPU_ISSET(c, &allowed)) {
            CPU_SET(c, &pinned);
            list += (n++ > 0 ? "," : "") + std::to_string(c);
        }
    }
    if (sched_setaffinity(0, sizeof pinned, &pinned) != 0) {
        return "unpinned";
    }
    return list;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench_run --workload <lenet-mix|"
                 "lenet-replay|noise-train> --seed N --seconds S "
                 "--trace 0|1\n"
                 "         [--work-dir DIR] [--cache-dir DIR] "
                 "[--commit ID]\n");
    return 2;
}

}  // namespace

int
main(int argc, char** argv)
{
    RunArgs args;
    args.work_dir = ".bench_build/perfbench-work";
    args.cache_dir = ".bench_build/perfbench-cache";
    args.serve_bin = PERFBENCH_SERVE_BIN;
    std::string commit = "unknown";
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const bool has = i + 1 < argc;
        if (a == "--workload" && has) {
            args.workload = argv[++i];
        } else if (a == "--seed" && has) {
            args.seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (a == "--seconds" && has) {
            args.seconds = std::atof(argv[++i]);
        } else if (a == "--trace" && has) {
            args.trace = std::string(argv[++i]) == "1";
        } else if (a == "--work-dir" && has) {
            args.work_dir = argv[++i];
        } else if (a == "--cache-dir" && has) {
            args.cache_dir = argv[++i];
        } else if (a == "--commit" && has) {
            commit = argv[++i];
        } else {
            return usage();
        }
    }
    bool known = false;
    for (const std::string& w : workload_names()) {
        known = known || w == args.workload;
    }
    if (!known || args.seconds <= 0.0) {
        return usage();
    }

    // Timings from a debug or sanitizer build mean nothing.
    const std::string build_type = PERFBENCH_BUILD_TYPE;
    const std::string sanitize = PERFBENCH_SANITIZE;
#ifndef NDEBUG
    const bool asserts = true;
#else
    const bool asserts = false;
#endif
    if (build_type != "Release" || !sanitize.empty() || asserts) {
        std::fprintf(stderr,
                     "perfbench: refusing to measure a %s build%s%s\n",
                     build_type.c_str(),
                     sanitize.empty() ? "" : " with sanitizer ",
                     sanitize.c_str());
        return 2;
    }
    args.work_dir += "/" + args.workload + "-seed" +
                     std::to_string(args.seed) + "-trace" +
                     (args.trace ? "1" : "0");

    const std::string cpus = pin_to_two_cpus();
    std::printf("{\"provenance\": {\"workload\": %s, \"seed\": %llu, "
                "\"seconds\": %s, \"trace\": %d, \"nproc\": %u, "
                "\"cpus\": %s, "
                "\"cpu\": %s, \"compiler\": %s, \"build_type\": %s, "
                "\"commit\": %s}}\n",
                json_string(args.workload).c_str(),
                static_cast<unsigned long long>(args.seed),
                json_number(args.seconds).c_str(), args.trace ? 1 : 0,
                std::thread::hardware_concurrency(),
                json_string(cpus).c_str(), json_string(cpu_model()).c_str(),
                json_string(PERFBENCH_COMPILER).c_str(),
                json_string(build_type).c_str(), json_string(commit).c_str());
    std::fflush(stdout);

    // The workload's own library calls run on a pool worker, as they do
    // inside the server: GEMMs then stay on the calling thread instead
    // of fanning out through parallel_for (README, "Known defect").
    Report report;
    std::string error;
    bool invalid = false;
    {
        shredder::ThreadPool worker(1);
        worker.submit([&] {
            try {
                report = args.workload == "noise-train"
                             ? run_noise_train(args)
                             : run_serving(args);
            } catch (const InvalidRun& e) {
                invalid = true;
                error = e.what();
            } catch (const std::exception& e) {
                error = e.what();
            }
        });
        worker.wait_idle();
    }
    if (!error.empty()) {
        std::fprintf(stderr, "perfbench: %s: %s\n",
                     invalid ? "invalid run" : "run failed", error.c_str());
        return 3;
    }
    for (const std::string& note : report.notes) {
        std::fprintf(stderr, "perfbench: %s\n", note.c_str());
    }

    const auto wanted =
        args.trace ? per_layer_metrics() : end_to_end_metrics();
    const auto& got = args.trace ? report.per_layer : report.end_to_end;
    std::set<std::string> names;
    std::string metrics;
    for (const auto& [name, unit] : wanted) {
        names.insert(name);
        const auto it = got.find(name);
        if (it == got.end() && !args.trace) {
            std::fprintf(stderr, "perfbench: %s missing from the report\n",
                         name.c_str());
            return 3;
        }
        // A layer this workload leaves idle did no work: 0.
        const double value = it == got.end() ? 0.0 : it->second.value;
        if (!metrics.empty()) {
            metrics += ", ";
        }
        metrics += json_string(name) + ": {\"value\": " + json_number(value) +
                   ", \"unit\": " + json_string(unit) + "}";
    }
    for (const auto& [name, m] : got) {
        if (names.count(name) == 0) {
            std::fprintf(stderr, "perfbench: unlisted metric %s\n",
                         name.c_str());
            return 3;
        }
    }
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
                "\"metrics\": {%s}}\n",
                report.correct ? "true" : "false",
                static_cast<long long>(report.attempted),
                static_cast<long long>(report.failed), metrics.c_str());
    std::fflush(stdout);
    return report.correct ? 0 : 1;
}
