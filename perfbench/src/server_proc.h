/**
 * @file
 * The served side of a serving workload: a `shredder_serve --listen`
 * child process cold-started from a deployment manifest, and the
 * Prometheus `/metrics` scrape it answers on the same port.
 */
#ifndef PERFBENCH_SERVER_PROC_H
#define PERFBENCH_SERVER_PROC_H

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/** A running `shredder_serve` child; stopped and reaped on destruction. */
class ServeProcess
{
  public:
    /**
     * Start `binary <manifest> --listen 127.0.0.1:0 --port-file ...`
     * plus `extra_args`, and wait (up to `timeout_s`) for it to listen.
     * Throws std::runtime_error when it exits or never listens.
     */
    ServeProcess(const std::string& binary, const std::string& manifest,
                 const std::vector<std::string>& extra_args,
                 const std::string& work_dir, double timeout_s = 60.0);
    ~ServeProcess();

    ServeProcess(const ServeProcess&) = delete;
    ServeProcess& operator=(const ServeProcess&) = delete;

    std::uint16_t port() const { return port_; }

    /** CPU time the server's live threads have used so far, in seconds. */
    double cpu_seconds() const;

    /** SIGTERM, then SIGKILL after a grace period; waits for exit. */
    void stop();

  private:
    pid_t pid_ = -1;
    std::uint16_t port_ = 0;
};

/**
 * One `/metrics` scrape: series → value, where a series is the metric
 * name plus its label set exactly as exposed (`name{labels}`).
 */
using Scrape = std::map<std::string, double>;

/** GET /metrics over plain HTTP; throws std::runtime_error on failure. */
Scrape scrape_metrics(std::uint16_t port);

/** Sum of every series of family `name` (all label sets). */
double family_sum(const Scrape& scrape, const std::string& name);

/**
 * Sum over endpoints of the cumulative histogram buckets of `family`
 * (`<family>_bucket{...,le="x"}`), as (upper bound → count) pairs.
 */
std::map<double, double> histogram_buckets(const Scrape& scrape,
                                           const std::string& family);

/**
 * Quantile `q` of a cumulative histogram (bucket upper bound → count):
 * the upper bound of the first bucket reaching q of the total.
 */
double histogram_quantile(const std::map<double, double>& cumulative,
                          double q);

}  // namespace perfbench

#endif  // PERFBENCH_SERVER_PROC_H
