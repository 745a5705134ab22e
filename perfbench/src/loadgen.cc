#include "loadgen.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <limits>
#include <mutex>
#include <random>
#include <thread>

#include "src/net/protocol.h"
#include "src/runtime/serving_error.h"

namespace perfbench {

using shredder::Tensor;
namespace net = shredder::net;

Quantile
PhaseResult::p99() const
{
    return slo_quantile(latency_ms, counts.misses(), 0.99);
}

LoadGenerator::LoadGenerator(const std::string& host, std::uint16_t port,
                             int connections, LoadInputs inputs)
    : inputs_(std::move(inputs))
{
    for (int c = 0; c < connections; ++c) {
        clients_.push_back(std::make_unique<net::Client>(host, port));
    }
}

LoadGenerator::~LoadGenerator()
{
    for (auto& c : clients_) {
        c->close();
    }
}

std::int64_t
LoadGenerator::request_bytes(std::size_t t) const
{
    net::Request r;
    r.request_id = 1;
    r.endpoint = inputs_.mix[t].endpoint;
    const Tensor& a = inputs_.pool->front();
    if (inputs_.mix[t].dtype == shredder::WireDtype::kF32) {
        r.activation = a;
    } else {
        r.quantized = shredder::quantize(a, inputs_.mix[t].dtype);
        r.is_quantized = true;
    }
    return static_cast<std::int64_t>(net::encode_request(r).size());
}

std::int64_t
LoadGenerator::response_bytes(std::int64_t classes)
{
    net::Response r;
    r.request_id = 1;
    r.output = Tensor(shredder::Shape({classes}));
    return static_cast<std::int64_t>(net::encode_response(r).size());
}

void
wait_until(std::int64_t ns)
{
    // Long enough to cover a timer wake-up on a virtual machine; short
    // enough that a sender at a few thousand requests/s mostly sleeps.
    constexpr std::int64_t kSpinNs = 100000;
    const std::int64_t left = ns - now_ns();
    if (left > kSpinNs) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(left - kSpinNs));
    }
    while (now_ns() < ns) {
    }
}

namespace {

/** Per-request record; sender and receiver write disjoint fields. */
struct Slot
{
    std::int64_t scheduled_ns = 0;
    std::int64_t send_start_ns = 0;
    std::int64_t send_end_ns = 0;
    std::int64_t recv_start_ns = 0;
    std::int64_t recv_end_ns = 0;
    std::size_t target = 0;
    std::size_t pool_index = 0;
    bool ok = false;
    bool refused = false;
    bool hit = false;
    std::int64_t classes = 0;
};

/** The in-flight FIFO of one connection (responses come back in order). */
struct Lane
{
    std::mutex mutex;
    std::condition_variable cv;
    std::deque<std::size_t> in_flight;
    bool done = false;
};

}  // namespace

Schedule
make_schedule(const PhaseSpec& spec, std::size_t pool_size,
              std::size_t group)
{
    const auto n = static_cast<std::size_t>(
        std::max(1.0, std::floor(spec.rate * spec.seconds)));
    std::mt19937_64 gen(spec.seed);
    std::exponential_distribution<double> gap(spec.rate);
    std::vector<std::size_t> perm(pool_size);
    for (std::size_t i = 0; i < pool_size; ++i) {
        perm[i] = i;
    }
    std::shuffle(perm.begin(), perm.end(), gen);
    Schedule s;
    s.offset_ns.resize(n);
    s.pool_index.resize(n);
    double at_s = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        at_s += gap(gen);
        s.offset_ns[i] = static_cast<std::int64_t>(at_s * 1e9);
        s.pool_index[i] = perm[(i / group) % pool_size];
    }
    return s;
}

PhaseResult
LoadGenerator::run(const PhaseSpec& spec)
{
    const Schedule schedule =
        make_schedule(spec, inputs_.pool->size(), inputs_.mix.size());
    const std::size_t n = schedule.offset_ns.size();
    const std::size_t conns = clients_.size();
    const std::size_t mix = inputs_.mix.size();
    const std::vector<Tensor>& pool = *inputs_.pool;
    const std::vector<std::int64_t>& labels = *inputs_.labels;
    std::vector<Slot> slots(n);
    for (std::size_t i = 0; i < n; ++i) {
        slots[i].scheduled_ns = schedule.offset_ns[i];
        slots[i].target = i % mix;
        slots[i].pool_index = schedule.pool_index[i];
    }
    std::vector<Tensor> kept_logits(
        spec.keep_every > 0 ? n : 0);

    std::vector<Lane> lanes(conns);
    std::vector<std::thread> receivers;
    for (std::size_t c = 0; c < conns; ++c) {
        receivers.emplace_back([&, c] {
            Lane& lane = lanes[c];
            net::Client& client = *clients_[c];
            for (;;) {
                {
                    std::unique_lock<std::mutex> lock(lane.mutex);
                    lane.cv.wait(lock, [&] {
                        return !lane.in_flight.empty() || lane.done;
                    });
                    if (lane.in_flight.empty()) {
                        return;
                    }
                }
                const std::int64_t t0 = now_ns();
                net::Response response;
                bool broken = false;
                try {
                    response = client.recv();
                } catch (const shredder::runtime::ServingError&) {
                    broken = true;
                }
                const std::int64_t t1 = now_ns();
                std::size_t i = 0;
                {
                    std::lock_guard<std::mutex> lock(lane.mutex);
                    i = lane.in_flight.front();
                    lane.in_flight.pop_front();
                }
                Slot& s = slots[i];
                s.recv_start_ns = t0;
                s.recv_end_ns = t1;
                if (broken) {
                    // The stream is gone: everything still queued on it
                    // is a miss too.
                    std::lock_guard<std::mutex> lock(lane.mutex);
                    lane.in_flight.clear();
                    return;
                }
                const std::uint64_t id = spec.first_id + i;
                if (response.request_id != id) {
                    continue;  // counted as a failure: ok stays false
                }
                if (response.status == net::WireStatus::kOk) {
                    s.ok = true;
                    s.classes = response.output.size();
                    s.hit = response.output.argmax() ==
                            labels[s.pool_index];
                    if (spec.keep_every > 0 &&
                        i % static_cast<std::size_t>(spec.keep_every) == 0) {
                        kept_logits[i] = std::move(response.output);
                    }
                } else {
                    s.refused =
                        response.status == net::WireStatus::kRateLimited ||
                        response.status == net::WireStatus::kAdmissionReject;
                }
            }
        });
    }

    // One sender for every connection, on the caller's thread: at the
    // open-loop rates used here it is idle most of the time.
    const std::int64_t t0 = now_ns();
    for (std::size_t i = 0; i < n; ++i) {
        const std::size_t c = (i / mix) % conns;
        Lane& lane = lanes[c];
        Slot& s = slots[i];
        s.scheduled_ns += t0;
        wait_until(s.scheduled_ns);
        bool was_empty = false;
        {
            std::lock_guard<std::mutex> lock(lane.mutex);
            was_empty = lane.in_flight.empty();
            lane.in_flight.push_back(i);
        }
        // The receiver only sleeps on an empty lane: wake it only then.
        if (was_empty) {
            lane.cv.notify_one();
        }
        s.send_start_ns = now_ns();
        const Target& t = inputs_.mix[s.target];
        try {
            clients_[c]->send(t.endpoint, pool[s.pool_index],
                              spec.first_id + i, t.dtype);
        } catch (const shredder::runtime::ServingError&) {
            // The receiver sees the broken stream and fails the lane.
        }
        s.send_end_ns = now_ns();
    }
    for (Lane& lane : lanes) {
        {
            std::lock_guard<std::mutex> lock(lane.mutex);
            lane.done = true;
        }
        lane.cv.notify_all();
    }
    for (std::thread& r : receivers) {
        r.join();
    }

    // Single-threaded from here on: fold the slots into the result.
    PhaseResult out;
    out.spans = SpanBuffer(
        spec.trace_every > 0
            ? 3 * (n / static_cast<std::size_t>(spec.trace_every) + 1)
            : 0);
    out.ok_per_target.assign(mix, 0);
    std::vector<std::int64_t> req_bytes(mix);
    for (std::size_t t = 0; t < mix; ++t) {
        req_bytes[t] = request_bytes(t);
    }
    const auto windows = static_cast<std::size_t>(
        std::floor(spec.seconds / spec.window_s + 1e-9));
    std::vector<std::vector<double>> win_lat(windows);
    std::vector<std::int64_t> win_miss(windows, 0);
    std::int64_t resp_bytes_cache_classes = -1;
    std::int64_t resp_bytes = 0;
    out.latency_ms.reserve(n);
    out.served_ms.reserve(n);
    out.late_ms.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        const Slot& s = slots[i];
        ++out.counts.sent;
        out.bytes_up += req_bytes[s.target];
        out.late_ms.push_back(
            static_cast<double>(s.send_start_ns - s.scheduled_ns) / 1e6);
        const double offset_s =
            static_cast<double>(s.scheduled_ns - t0) / 1e9;
        const auto w = static_cast<std::size_t>(offset_s / spec.window_s);
        if (!s.ok) {
            ++out.counts.failed;
            out.counts.refused += s.refused ? 1 : 0;
            if (w < windows) {
                ++win_miss[w];
            }
            continue;
        }
        ++out.counts.ok;
        ++out.ok_per_target[s.target];
        out.top1_hits += s.hit ? 1 : 0;
        if (s.classes != resp_bytes_cache_classes) {
            resp_bytes = response_bytes(s.classes);
            resp_bytes_cache_classes = s.classes;
        }
        out.bytes_down += resp_bytes;
        const double lat =
            static_cast<double>(s.recv_end_ns - s.scheduled_ns) / 1e6;
        out.latency_ms.push_back(lat);
        out.served_ms.push_back(
            static_cast<double>(s.recv_end_ns - s.send_start_ns) / 1e6);
        if (w < windows) {
            win_lat[w].push_back(lat);
        }
        if (spec.keep_every > 0 && !kept_logits[i].empty()) {
            out.kept.push_back(KeptResponse{s.target, s.pool_index,
                                            spec.first_id + i,
                                            std::move(kept_logits[i])});
        }
        if (spec.trace_every > 0 &&
            i % static_cast<std::size_t>(spec.trace_every) == 0) {
            const std::uint64_t id = spec.first_id + i;
            const std::int64_t root = out.spans.add(
                "loadgen.request", s.scheduled_ns, s.recv_end_ns, -1, id);
            if (root >= 0) {
                out.spans.add("net.send", s.send_start_ns, s.send_end_ns,
                              root, id);
                out.spans.add("net.recv", s.recv_start_ns, s.recv_end_ns,
                              root, id);
            }
        }
    }
    for (std::size_t w = 0; w < windows; ++w) {
        if (!win_lat[w].empty() || win_miss[w] > 0) {
            out.window_p99_ms.push_back(
                slo_quantile(win_lat[w], win_miss[w], 0.99).value);
        }
    }
    return out;
}

ClosedResult
LoadGenerator::run_closed(const ClosedSpec& spec)
{
    const std::size_t conns = clients_.size();
    const std::size_t mix = inputs_.mix.size();
    const std::vector<Tensor>& pool = *inputs_.pool;
    const auto window = static_cast<std::size_t>(std::max<std::int64_t>(
        1, spec.window));
    std::vector<PhaseCounts> counts(conns);
    std::vector<std::int64_t> last_ns(conns, 0);
    std::atomic<std::int64_t> answered{0};
    const std::int64_t t0 = now_ns();
    const std::int64_t stop_ns =
        t0 + static_cast<std::int64_t>(spec.seconds * 1e9);
    auto lane = [&](std::size_t c) {
        net::Client& client = *clients_[c];
        std::mt19937_64 gen(spec.seed + c);
        std::uniform_int_distribution<std::size_t> pick(0, pool.size() - 1);
        // Connection c sends ids first_id + c, + conns, ...; request k of
        // a connection goes to mix entry k % mix.
        std::deque<std::uint64_t> in_flight;
        std::uint64_t k = 0;
        PhaseCounts& n = counts[c];
        auto send_next = [&] {
            const std::uint64_t id = spec.first_id + k * conns + c;
            const Target& t = inputs_.mix[k % mix];
            client.send(t.endpoint, pool[pick(gen)], id, t.dtype);
            in_flight.push_back(id);
            ++n.sent;
            ++k;
        };
        try {
            while (in_flight.size() < window) {
                send_next();
            }
            while (!in_flight.empty()) {
                const net::Response r = client.recv();
                const std::uint64_t id = in_flight.front();
                in_flight.pop_front();
                if (r.request_id == id && r.status == net::WireStatus::kOk) {
                    ++n.ok;
                    answered.fetch_add(1, std::memory_order_relaxed);
                } else {
                    ++n.failed;
                    n.refused +=
                        r.status == net::WireStatus::kRateLimited ||
                                r.status == net::WireStatus::kAdmissionReject
                            ? 1
                            : 0;
                }
                if (now_ns() < stop_ns) {
                    send_next();
                }
            }
        } catch (const shredder::runtime::ServingError&) {
            // The stream is gone: everything still in flight is a miss.
            n.failed += static_cast<std::int64_t>(in_flight.size());
        }
        last_ns[c] = now_ns();
    };
    std::mutex mutex;
    std::condition_variable cv;
    bool done = false;
    std::thread sampler;
    if (spec.sample) {
        sampler = std::thread([&] {
            const auto period = std::chrono::seconds(1);
            auto next = std::chrono::steady_clock::now();
            std::unique_lock<std::mutex> lock(mutex);
            for (;;) {
                spec.sample(answered.load(std::memory_order_relaxed));
                next += period;
                if (cv.wait_until(lock, next, [&] { return done; })) {
                    return;
                }
            }
        });
    }
    std::vector<std::thread> others;
    for (std::size_t c = 1; c < conns; ++c) {
        others.emplace_back(lane, c);
    }
    lane(0);
    for (std::thread& t : others) {
        t.join();
    }
    if (sampler.joinable()) {
        {
            std::lock_guard<std::mutex> lock(mutex);
            done = true;
        }
        cv.notify_all();
        sampler.join();
    }
    ClosedResult out;
    for (std::size_t c = 0; c < conns; ++c) {
        out.counts.sent += counts[c].sent;
        out.counts.ok += counts[c].ok;
        out.counts.failed += counts[c].failed;
        out.counts.refused += counts[c].refused;
    }
    out.seconds = static_cast<double>(
                      *std::max_element(last_ns.begin(), last_ns.end()) -
                      t0) /
                  1e9;
    return out;
}

}  // namespace perfbench
