/**
 * @file
 * Shared plumbing of the toolchain benchmark: run options, the result
 * record every workload fills in, timing and statistics helpers, and
 * the fatal check-failure path (a failed check exits non-zero before
 * any result is printed).
 */
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace toolbench
{

struct Tracing; // spans.hh

using Clock = std::chrono::steady_clock;

/** Milliseconds elapsed since @p since. */
double msSince(Clock::time_point since);

/** When the process started running main (the set-up clock's zero). */
Clock::time_point processStart();

/** Seconds from processStart() to now: one cold set-up. */
double setupSeconds();

/** Peak resident set size of this process so far, in MB. */
double peakRssMb();

/** Nearest-rank percentile @p pct in [0, 100] of @p values. */
double percentile(std::vector<double> values, double pct);

/** Geometric mean of positive @p values. */
double geomean(const std::vector<double> &values);

/**
 * Fastest time seen for each of a set of repeated operations. On a
 * virtual machine whose host runs other work, a contended stretch
 * slows most samples taken inside it, so medians wander by tens of
 * percent between runs; an operation's fastest repeat is the steadiest
 * estimate of what it costs.
 */
class BestTimes
{
  public:
    explicit BestTimes(size_t n) : best_(n, 1e300) {}
    void add(size_t i, double ms) { best_[i] = std::min(best_[i], ms); }
    /** Sum over the operations of each one's fastest time. */
    double totalMs() const
    {
        double sum = 0.0;
        for (double ms : best_)
            sum += ms;
        return sum;
    }

  private:
    std::vector<double> best_;
};

/** Options of one benchmark run. */
struct RunOptions
{
    std::string workload;
    uint64_t seed = 1;
    /** Length of the timed loop; whole rounds run until it is over. */
    double seconds = 10.0;
    /** Span log + μmeter registry of a traced run (null = untraced). */
    Tracing *tracing = nullptr;
};

/** One reported metric. */
struct Metric
{
    double value = 0.0;
    std::string unit;
};

/** What a workload run hands back to main. */
struct RunReport
{
    /** Operations run; none may fail (a failed check exits). */
    uint64_t attempted = 0;
    /** End-to-end metrics (always measured; printed untraced). */
    std::map<std::string, Metric> endToEnd;
    /** Per-layer metrics (filled by traced runs). */
    std::map<std::string, Metric> perLayer;
};

/** Report a failed correctness check and exit(1) without a result. */
[[noreturn]] void checkFailed(const std::string &what);

/** checkFailed(what) unless @p ok. */
inline void
require(bool ok, const std::string &what)
{
    if (!ok)
        checkFailed(what);
}

/** @name The four workloads @{ */
RunReport runDseSweep(const RunOptions &opts);
RunReport runScaledSim(const RunOptions &opts);
RunReport runServeWarm(const RunOptions &opts);
RunReport runFaultCampaign(const RunOptions &opts);
/** @} */

} // namespace toolbench
