/**
 * @file
 * Unit tests of the benchmark's own arithmetic (src/stats.h). Built as
 * `perfbench_tests`; `python3 perfbench/run.py --self-test` builds and
 * runs it. Exit status 0 when every check holds.
 */
#include <cmath>
#include <cstdio>
#include <limits>
#include <vector>

#include "stats.h"

namespace {

int g_failures = 0;

void
check(bool ok, const char* what, int line)
{
    if (!ok) {
        std::fprintf(stderr, "FAIL line %d: %s\n", line, what);
        ++g_failures;
    }
}

#define CHECK(cond) check((cond), #cond, __LINE__)

using namespace perfbench;

void
test_percentile_sample_counts()
{
    std::vector<double> v;
    for (int i = 1; i <= 1000; ++i) {
        v.push_back(static_cast<double>(i));
    }
    const Quantile p50 = quantile(v, 0.50);
    const Quantile p99 = quantile(v, 0.99);
    CHECK(p50.count == 1000);
    CHECK(p99.count == 1000);
    CHECK(p50.value == 500.0);
    CHECK(p99.value == 990.0);
    CHECK(quantile(v, 1.0).value == 1000.0);
    // Nearest rank: the p99 of 50 samples is their maximum.
    std::vector<double> small(v.begin(), v.begin() + 50);
    CHECK(quantile(small, 0.99).value == 50.0);
    CHECK(quantile(small, 0.99).count == 50);
    const Quantile empty = quantile({}, 0.5);
    CHECK(empty.count == 0 && empty.value == 0.0);
    CHECK(median({3.0, 1.0, 2.0}) == 2.0);
}

void
test_refused_requests_are_misses()
{
    std::vector<double> ok(98, 1.0);
    // Two refusals out of 100 requests push the p99 past any latency.
    const Quantile q = slo_quantile(ok, 2, 0.99);
    CHECK(q.count == 100);
    CHECK(std::isinf(q.value));
    // One refusal in 1000 leaves the p99 at the completed latency.
    std::vector<double> many(999, 2.0);
    CHECK(slo_quantile(many, 1, 0.99).value == 2.0);

    StepResult step;
    step.counts.sent = 1000;
    step.counts.ok = 999;
    step.counts.failed = 1;
    step.counts.refused = 1;
    step.p99_ms = 2.0;
    CHECK(step.counts.misses() == 1);
    CHECK(step.counts.miss_frac() == 0.001);
    // A single refusal fails the step even within the latency SLO.
    CHECK(!step_passes(step, 10.0));
    step.counts.ok = 1000;
    step.counts.failed = 0;
    step.counts.refused = 0;
    CHECK(step_passes(step, 10.0));
    step.late_p99_ms = 12.0;  // generator fell behind: not a valid step
    CHECK(!step_passes(step, 10.0));
}

/** A server that holds p99 = 1 ms up to `capacity` req/s, then melts. */
StepResult
synthetic(double rate, double capacity)
{
    StepResult s;
    s.counts.sent = 1000;
    s.counts.ok = 1000;
    s.p99_ms = rate <= capacity ? 1.0 : 1000.0;
    s.served_p99_ms = s.p99_ms;
    return s;
}

void
test_max_rate_search_on_synthetic_curve()
{
    const double capacity = 45000.0;
    const double resolution = std::pow(2.0, 1.0 / 256.0);  // 8 bisections
    int probes = 0;
    const SearchResult r = search_max_rate(
        32000.0, /*start_passed=*/true, 6, 8, 10.0, [&](double rate) {
            ++probes;
            return synthetic(rate, capacity);
        });
    // Every failed probe is repeated once.
    std::size_t failed = 0;
    for (const StepResult& s : r.steps) {
        failed += step_passes(s, 10.0) ? 0 : 1;
    }
    CHECK(probes == static_cast<int>(r.steps.size()));
    // One doubling (64k fails) brackets the knee, then 8 bisections.
    CHECK(r.steps.size() == 1 + 8 + failed / 2);
    CHECK(failed % 2 == 0);
    CHECK(r.max_rate <= capacity);
    CHECK(r.max_rate >= capacity / resolution);
    CHECK(!r.capped && !r.generator_bound);

    // The top of the search is open: a server far faster than the
    // starting rate is still found.
    const SearchResult fast = search_max_rate(
        32000.0, true, 6, 8, 10.0,
        [&](double rate) { return synthetic(rate, 400000.0); });
    CHECK(fast.max_rate <= 400000.0);
    CHECK(fast.max_rate >= 400000.0 / resolution);
    CHECK(!fast.capped);

    // No failure up to the doubling limit: the answer is flagged.
    const SearchResult capped = search_max_rate(
        32000.0, true, 3, 8, 10.0,
        [&](double rate) { return synthetic(rate, 1e12); });
    CHECK(capped.capped);
    CHECK(capped.max_rate == 256000.0);

    // A server that misses the SLO at the starting rate: the search
    // halves until a rate passes and the answer is still the knee.
    const SearchResult low = search_max_rate(
        32000.0, /*start_passed=*/false, 6, 8, 10.0,
        [&](double rate) { return synthetic(rate, 20000.0); });
    CHECK(low.max_rate <= 20000.0);
    CHECK(low.max_rate >= 20000.0 / resolution);
    const SearchResult dead = search_max_rate(
        32000.0, false, 3, 8, 10.0,
        [&](double rate) { return synthetic(rate, 1.0); });
    CHECK(dead.max_rate == 0.0 && !dead.capped);

    // Failures count as misses: a curve that answers fast but refuses
    // one request above 50k caps the answer there.
    const SearchResult refusing = search_max_rate(
        32000.0, true, 6, 8, 10.0, [](double rate) {
            StepResult s = synthetic(rate, 1e9);
            if (rate > 50000.0) {
                s.counts.ok -= 1;
                s.counts.failed = 1;
                s.counts.refused = 1;
            }
            return s;
        });
    CHECK(refusing.max_rate <= 50000.0);
    CHECK(refusing.max_rate > 49000.0);
    CHECK(!refusing.generator_bound);

    // A generator that cannot keep up above 50k while the server still
    // answers within the SLO: the answer is the client's, and says so.
    const SearchResult client = search_max_rate(
        32000.0, true, 6, 8, 10.0, [](double rate) {
            StepResult s = synthetic(rate, 1e9);
            if (rate > 50000.0) {
                s.late_p99_ms = 25.0;
                s.p99_ms = 26.0;  // counted from the schedule
            }
            return s;
        });
    CHECK(client.max_rate <= 50000.0);
    CHECK(client.generator_bound);

    // One burst of interference (the first probe at a rate below the
    // knee fails) is absorbed by the repeat.
    bool burst = true;
    const SearchResult flaky = search_max_rate(
        32000.0, true, 6, 8, 10.0, [&](double rate) {
            StepResult s = synthetic(rate, capacity);
            if (burst && rate < capacity) {
                burst = false;
                s.p99_ms = 1000.0;
            }
            return s;
        });
    CHECK(!burst);
    CHECK(flaky.max_rate <= capacity);
    CHECK(flaky.max_rate >= capacity / resolution);
}

void
test_span_self_time()
{
    std::vector<Span> spans;
    spans.push_back(Span{"step", 0, 100, -1, 7});
    spans.push_back(Span{"edge", 10, 30, 0, 7});
    spans.push_back(Span{"cloud", 25, 60, 0, 7});  // overlaps "edge"
    spans.push_back(Span{"late", 90, 130, 0, 7});  // runs past the parent
    spans.push_back(Span{"inner", 40, 50, 2, 7});  // grandchild
    const std::vector<std::int64_t> self = self_times(spans);
    // Children cover [10,60) ∪ [90,100) = 60 of the parent's 100.
    CHECK(self[0] == 40);
    CHECK(self[1] == 20);
    CHECK(self[2] == 25);  // 35 minus its own child's 10
    CHECK(self[3] == 40);
    CHECK(self[4] == 10);
    // A childless span's self time is its duration.
    const std::vector<std::int64_t> lone = self_times({Span{"x", 5, 9}});
    CHECK(lone[0] == 4);
}

}  // namespace

int
main()
{
    test_percentile_sample_counts();
    test_refused_requests_are_misses();
    test_max_rate_search_on_synthetic_curve();
    test_span_self_time();
    if (g_failures == 0) {
        std::printf("perfbench_tests: all checks passed\n");
        return 0;
    }
    std::fprintf(stderr, "perfbench_tests: %d check(s) failed\n",
                 g_failures);
    return 1;
}
