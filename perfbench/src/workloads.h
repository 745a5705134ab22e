/**
 * @file
 * The benchmark's workloads and the report each run produces.
 */
#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/** One run's arguments and where it may write. */
struct RunArgs
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string work_dir;    ///< Scratch for this run (bundles, logs).
    std::string cache_dir;   ///< Trained masters, kept across runs.
    std::string serve_bin;   ///< The shredder_serve binary.
};

/** A named value with its unit. */
struct Metric
{
    double value = 0.0;
    std::string unit;
};

/** What a run reports. */
struct Report
{
    bool correct = true;
    std::int64_t attempted = 0;
    std::int64_t failed = 0;
    std::map<std::string, Metric> end_to_end;
    std::map<std::string, Metric> per_layer;
    /** Human-readable lines for stderr (sample counts, gate details). */
    std::vector<std::string> notes;

    void e2e(const std::string& name, double value, const std::string& unit)
    {
        end_to_end[name] = Metric{value, unit};
    }
    void layer(const std::string& name, double value, const std::string& unit)
    {
        per_layer[name] = Metric{value, unit};
    }
};

/**
 * Thrown when a run cannot be reported (the generator fell behind its
 * schedule, the server failed to start, ...). perfbench_run exits non-zero
 * without printing a result.
 */
struct InvalidRun : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

/** The workload names, in the order they are documented. */
const std::vector<std::string>& workload_names();

/** `lenet-mix` and `lenet-replay`. */
Report run_serving(const RunArgs& args);

/** `noise-train`. */
Report run_noise_train(const RunArgs& args);

/**
 * Every per-layer metric name with its unit. Every workload reports
 * all of them under `--trace 1`; a layer a workload leaves idle
 * reports 0.
 */
std::vector<std::pair<std::string, std::string>> per_layer_metrics();

/** Every end-to-end metric name with its unit. */
std::vector<std::pair<std::string, std::string>> end_to_end_metrics();

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H
