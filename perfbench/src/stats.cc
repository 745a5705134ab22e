#include "stats.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace perfbench {

Quantile
quantile(std::vector<double> samples, double q)
{
    Quantile out;
    out.count = static_cast<std::int64_t>(samples.size());
    if (samples.empty()) {
        return out;
    }
    q = std::min(1.0, std::max(q, 0.0));
    const auto n = samples.size();
    std::size_t rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(n)));
    rank = std::max<std::size_t>(rank, 1);
    std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                     samples.end());
    out.value = samples[rank - 1];
    return out;
}

double
median(std::vector<double> samples)
{
    return quantile(std::move(samples), 0.5).value;
}

Quantile
slo_quantile(const std::vector<double>& ok_latencies_ms, std::int64_t misses,
             double q)
{
    std::vector<double> all = ok_latencies_ms;
    all.insert(all.end(), static_cast<std::size_t>(std::max<std::int64_t>(
                              misses, 0)),
               std::numeric_limits<double>::infinity());
    return quantile(std::move(all), q);
}

double
PhaseCounts::miss_frac() const
{
    return sent > 0 ? static_cast<double>(misses()) /
                          static_cast<double>(sent)
                    : 0.0;
}

bool
step_passes(const StepResult& step, double slo_ms)
{
    return step.counts.sent > 0 && step.counts.misses() == 0 &&
           step.counts.ok == step.counts.sent && step.p99_ms <= slo_ms &&
           step.late_p99_ms <= slo_ms;
}

SearchResult
search_max_rate(double start, bool start_passed, int max_doublings,
                int steps, double slo_ms,
                const std::function<StepResult(double)>& probe)
{
    SearchResult result;
    // One step: the probe, repeated once if it fails.
    auto passes = [&](double rate) {
        for (int attempt = 0; attempt < 2; ++attempt) {
            StepResult step = probe(rate);
            step.rate = rate;
            result.steps.push_back(step);
            if (step_passes(step, slo_ms)) {
                return true;
            }
        }
        return false;
    };
    double lo = start;
    double hi = start;
    bool bracketed = false;
    for (int d = 0; d < max_doublings && !bracketed; ++d) {
        if (start_passed) {
            hi = 2.0 * lo;
            bracketed = !passes(hi);
            if (!bracketed) {
                lo = hi;
            }
        } else {
            lo = hi / 2.0;
            bracketed = passes(lo);
            if (!bracketed) {
                hi = lo;
            }
        }
    }
    if (!bracketed) {
        result.capped = start_passed;
        result.max_rate = start_passed ? lo : 0.0;
        return result;
    }
    for (int i = 0; i < steps; ++i) {
        const double mid = std::sqrt(lo * hi);
        if (passes(mid)) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    result.max_rate = lo;
    int at_hi = 0;
    int late_only = 0;
    for (const StepResult& s : result.steps) {
        if (s.rate == hi) {
            ++at_hi;
            const bool server_ok = s.counts.sent > 0 &&
                                   s.counts.misses() == 0 &&
                                   s.served_p99_ms <= slo_ms;
            late_only += server_ok && !step_passes(s, slo_ms) ? 1 : 0;
        }
    }
    result.generator_bound = at_hi > 0 && late_only == at_hi;
    return result;
}

std::vector<std::int64_t>
self_times(const std::vector<Span>& spans)
{
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
        spans.size());
    for (const Span& s : spans) {
        if (s.parent >= 0 &&
            static_cast<std::size_t>(s.parent) < spans.size()) {
            const Span& p = spans[static_cast<std::size_t>(s.parent)];
            const std::int64_t a = std::max(s.start_ns, p.start_ns);
            const std::int64_t b = std::min(s.end_ns, p.end_ns);
            if (b > a) {
                kids[static_cast<std::size_t>(s.parent)].emplace_back(a, b);
            }
        }
    }
    std::vector<std::int64_t> out(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        auto& iv = kids[i];
        std::sort(iv.begin(), iv.end());
        std::int64_t covered = 0;
        std::int64_t cur_a = 0;
        std::int64_t cur_b = 0;
        bool open = false;
        for (const auto& [a, b] : iv) {
            if (open && a <= cur_b) {
                cur_b = std::max(cur_b, b);
                continue;
            }
            if (open) {
                covered += cur_b - cur_a;
            }
            cur_a = a;
            cur_b = b;
            open = true;
        }
        if (open) {
            covered += cur_b - cur_a;
        }
        out[i] = spans[i].duration_ns() - covered;
    }
    return out;
}

}  // namespace perfbench
