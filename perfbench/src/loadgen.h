/**
 * @file
 * Open-loop Poisson load over SHRQ/SHRP connections.
 *
 * Open loop (`run`): the caller's thread fires every request at its
 * scheduled time whatever the state of earlier requests; one receiver
 * thread per connection reads the responses. Latency is counted from
 * each request's *scheduled* time, so a generator or server that falls
 * behind shows up as latency, never as less offered load. How late the
 * sender itself ran is reported separately (`late_ms`), so a run whose
 * generator could not keep to the schedule is recognised as invalid.
 *
 * Closed loop (`run_closed`): one thread per connection keeps a fixed
 * number of requests in flight on it, sending the next as each answer
 * arrives: the rate the server sustains when it is never idle.
 *
 * Requests go round-robin over the endpoint mix; each full round of
 * the mix goes out on the next connection, so every connection carries
 * every endpoint.
 */
#ifndef PERFBENCH_LOADGEN_H
#define PERFBENCH_LOADGEN_H

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/net/client.h"
#include "src/tensor/quantize.h"
#include "src/tensor/tensor.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {

/**
 * Wait until steady-clock time `ns`: sleep until shortly before it, then
 * spin. A sender that only sleeps wakes up late on a virtual machine
 * (the idle vCPU is descheduled) and its lateness would count as server
 * latency; one that only spins holds a core the server needs.
 */
void wait_until(std::int64_t ns);

/** One endpoint of the traffic mix. */
struct Target
{
    std::string endpoint;
    shredder::WireDtype dtype = shredder::WireDtype::kF32;
};

/** The inputs every phase draws from (borrowed). */
struct LoadInputs
{
    std::vector<Target> mix;
    /** Activations at the cut, from real inputs. */
    const std::vector<shredder::Tensor>* pool = nullptr;
    /** The true label of each pool activation. */
    const std::vector<std::int64_t>* labels = nullptr;
};

/** Per-phase knobs. */
struct PhaseSpec
{
    double rate = 0.0;        ///< Offered requests/s (Poisson).
    double seconds = 0.0;     ///< Schedule length.
    std::uint64_t seed = 0;   ///< Schedule + pool-draw seed.
    std::uint64_t first_id = 0;  ///< Request id of the first request.
    double window_s = 0.5;    ///< Sub-window length for window p99s.
    /** Keep the logits of every `keep_every`-th request (0 = none). */
    std::int64_t keep_every = 0;
    /** Record spans for every `trace_every`-th request (0 = none). */
    std::int64_t trace_every = 0;
};

/** Knobs of a closed-loop phase. */
struct ClosedSpec
{
    double seconds = 0.0;
    std::int64_t window = 1;     ///< Requests in flight per connection.
    std::uint64_t seed = 0;      ///< Pool-draw seed.
    std::uint64_t first_id = 0;  ///< Request id of the first request.
    /**
     * Called from a thread of its own at the start and then once a
     * second with the number of requests answered so far (not at all
     * when empty).
     */
    std::function<void(std::int64_t)> sample;
};

/** What a closed-loop phase observed. */
struct ClosedResult
{
    PhaseCounts counts;
    double seconds = 0.0;  ///< From the first send to the last answer.
    /** Answered requests per second. */
    double rate() const
    {
        return seconds > 0.0 ? static_cast<double>(counts.ok) / seconds
                             : 0.0;
    }
};

/** A request whose logits were kept for the correctness gate. */
struct KeptResponse
{
    std::size_t target = 0;      ///< Index into the mix.
    std::size_t pool_index = 0;
    std::uint64_t request_id = 0;
    shredder::Tensor logits;
};

/** Everything one phase observed. */
struct PhaseResult
{
    PhaseCounts counts;
    std::vector<double> latency_ms;  ///< Completed requests only.
    /** Completed requests, from the actual send: the server's share. */
    std::vector<double> served_ms;
    std::vector<double> late_ms;     ///< Send start − scheduled time.
    /** p99 of each full sub-window (misses counted as infinite). */
    std::vector<double> window_p99_ms;
    std::int64_t top1_hits = 0;      ///< Completed with argmax = label.
    std::int64_t bytes_up = 0;
    std::int64_t bytes_down = 0;
    /** Completed requests per mix entry. */
    std::vector<std::int64_t> ok_per_target;
    std::vector<KeptResponse> kept;
    /** Per-traced-request spans: loadgen.request ⊃ net.send, net.recv. */
    SpanBuffer spans;
    /** SLO quantile over the whole phase (misses counted). */
    Quantile p99() const;
};

/** When each request of a phase is due, and which pool input it sends. */
struct Schedule
{
    std::vector<std::int64_t> offset_ns;  ///< From the phase start.
    std::vector<std::size_t> pool_index;
};

/**
 * The phase's Poisson arrivals, drawn from `spec.seed`. Inputs cycle
 * through a seeded permutation of the pool, each held for `group`
 * consecutive requests (one per endpoint of a round-robin mix), so
 * every input reaches every endpoint equally often and `top1` does not
 * depend on which inputs a random draw happened to favour.
 */
Schedule make_schedule(const PhaseSpec& spec, std::size_t pool_size,
                       std::size_t group);

/** See file comment. */
class LoadGenerator
{
  public:
    /**
     * Open `connections` connections to `host:port`.
     * @throws shredder::runtime::ServingError `kNetwork` on failure.
     */
    LoadGenerator(const std::string& host, std::uint16_t port,
                  int connections, LoadInputs inputs);
    ~LoadGenerator();

    /** Run one open-loop phase to completion (all responses in or failed). */
    PhaseResult run(const PhaseSpec& spec);

    /** Run one closed-loop phase; see file comment. */
    ClosedResult run_closed(const ClosedSpec& spec);

    /** Exact request-frame bytes of mix entry `t` (real encode). */
    std::int64_t request_bytes(std::size_t t) const;
    /** Exact bytes of an OK response frame carrying `classes` logits. */
    static std::int64_t response_bytes(std::int64_t classes);

  private:
    std::vector<std::unique_ptr<shredder::net::Client>> clients_;
    LoadInputs inputs_;
};

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H
