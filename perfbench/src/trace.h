/**
 * @file
 * In-memory span recording for the traced run (`--trace 1`).
 *
 * Each thread that records owns one `SpanBuffer`, so recording takes
 * no lock: a span is one slot write into preallocated memory. Buffers
 * are merged and written out once the run is over. A span has a name,
 * start, end, parent (an index into the same buffer) and request id.
 */
#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <chrono>
#include <cstdint>
#include <ctime>
#include <string>
#include <vector>

#include "stats.h"

namespace perfbench {

/** Steady-clock nanoseconds. */
inline std::int64_t
now_ns()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** CPU time (user + system) of this whole process, in seconds. */
inline double
process_cpu_seconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) / 1e9;
}

/** A fixed-capacity, single-writer span store. */
class SpanBuffer
{
  public:
    explicit SpanBuffer(std::size_t capacity = 0) { spans_.reserve(capacity); }

    /**
     * Record a finished span; returns its index (the parent handle for
     * children), or -1 when the buffer is full (the span is counted as
     * dropped instead).
     */
    std::int64_t add(const char* name, std::int64_t start_ns,
                     std::int64_t end_ns, std::int64_t parent = -1,
                     std::uint64_t request_id = 0);

    const std::vector<Span>& spans() const { return spans_; }
    std::int64_t dropped() const { return dropped_; }

  private:
    std::vector<Span> spans_;
    std::int64_t dropped_ = 0;
};

/** Times `fn` as a root span named `name` in `buffer`; returns its ns. */
template <typename F>
std::int64_t
timed(SpanBuffer& buffer, const char* name, F&& fn)
{
    const std::int64_t t0 = now_ns();
    fn();
    const std::int64_t t1 = now_ns();
    buffer.add(name, t0, t1);
    return t1 - t0;
}

/** Median duration (ns) of the spans named `name` in `buffer`. */
double median_duration_ns(const SpanBuffer& buffer, const std::string& name);

/**
 * Write every buffer's spans as CSV (`name,start_ns,end_ns,parent,
 * request_id`, parents re-indexed into the merged order). Returns the
 * number of spans written; false-y 0 when the file cannot be opened.
 */
std::int64_t write_spans(const std::string& path,
                         const std::vector<const SpanBuffer*>& buffers);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H
