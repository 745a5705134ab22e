/**
 * @file
 * The benchmark's arithmetic, kept free of I/O so its unit tests
 * (perfbench/tests/test_stats.cc) can pin it:
 *
 *  - percentiles that carry their sample count;
 *  - SLO quantiles in which failed and refused requests are misses;
 *  - the `max_qps_at_slo` search (doubling to bracket the knee, then
 *    geometric bisection over offered rate, driven by a probe
 *    callback);
 *  - span self time: a span's duration minus the time its children
 *    cover.
 */
#ifndef PERFBENCH_STATS_H
#define PERFBENCH_STATS_H

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

namespace perfbench {

/** A quantile together with the number of samples it was taken over. */
struct Quantile
{
    double value = 0.0;
    std::int64_t count = 0;
};

/**
 * Nearest-rank quantile: the smallest sample with at least `q` of the
 * samples at or below it. `q` in (0, 1]; an empty input gives
 * {0, 0}.
 */
Quantile quantile(std::vector<double> samples, double q);

/** Median (the nearest-rank 0.5 quantile's value); 0 when empty. */
double median(std::vector<double> samples);

/**
 * Quantile of a request population in which `misses` requests (failed
 * or refused) never completed: they rank above every completed
 * latency, so enough of them push the quantile to +infinity.
 */
Quantile slo_quantile(const std::vector<double>& ok_latencies_ms,
                      std::int64_t misses, double q);

/** Request outcomes of one load phase. */
struct PhaseCounts
{
    std::int64_t sent = 0;     ///< Requests put on the wire.
    std::int64_t ok = 0;       ///< Answered with a result.
    std::int64_t failed = 0;   ///< Answered with an error, or never.
    std::int64_t refused = 0;  ///< Failed with a backpressure status.

    /** Failed plus refused (refusals are already in `failed`). */
    std::int64_t misses() const { return failed; }
    /** misses ÷ sent (0 when nothing was sent). */
    double miss_frac() const;
};

/** What one fixed-rate probe of the max-rate search observed. */
struct StepResult
{
    double rate = 0.0;          ///< Offered requests/s.
    PhaseCounts counts;
    double p99_ms = 0.0;        ///< SLO quantile, misses counted.
    /** The same from each request's actual send, not its schedule. */
    double served_p99_ms = 0.0;
    double late_p99_ms = 0.0;   ///< Generator lateness behind schedule.
};

/**
 * A step holds the SLO when every request was answered, its p99
 * (misses counted) is within `slo_ms`, and the generator kept to its
 * schedule (its own late p99 within the SLO) — otherwise the offered
 * rate was not really offered.
 */
bool step_passes(const StepResult& step, double slo_ms);

/** Outcome of `search_max_rate`. */
struct SearchResult
{
    double max_rate = 0.0;  ///< Highest rate seen to pass.
    /** Every rate up to the doubling limit passed: no upper bound found. */
    bool capped = false;
    /**
     * Every probe at the lowest failing rate failed only because the
     * generator ran behind its schedule: counted from the actual sends,
     * every request was answered within the SLO. The answer may be the
     * client's limit, not the server's.
     */
    bool generator_bound = false;
    std::vector<StepResult> steps;
};

/**
 * Highest offered rate whose step passes.
 *
 * `start` is the rate the caller has already measured; `start_passed`
 * says whether it held the SLO. The search first brackets the knee by
 * doubling (or, when `start` failed, halving) the rate until a probe
 * lands on the other side, at most `max_doublings` times, and then
 * bisects the bracket geometrically `steps` times. The answer is the
 * highest passing rate, so its resolution is 2^(1/2^steps). When no
 * probe up to start·2^max_doublings fails the result is `capped`; when
 * none down to start/2^max_doublings passes, `max_rate` is 0.
 *
 * A failed probe is repeated once at the same rate and the step passes
 * if the repeat does: one burst of interference on a shared machine
 * must not send the search into the wrong half for good.
 */
SearchResult search_max_rate(double start, bool start_passed,
                             int max_doublings, int steps, double slo_ms,
                             const std::function<StepResult(double)>& probe);

/** One recorded span. Times are steady-clock nanoseconds. */
struct Span
{
    const char* name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    /** Index of the parent span in the same vector; -1 for a root. */
    std::int64_t parent = -1;
    std::uint64_t request_id = 0;

    std::int64_t duration_ns() const { return end_ns - start_ns; }
};

/**
 * Self time of every span: its duration minus the union of its direct
 * children's intervals, each clipped to the parent. Overlapping
 * children are counted once.
 */
std::vector<std::int64_t> self_times(const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H
