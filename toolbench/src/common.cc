#include "common.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include <sys/resource.h>

namespace toolbench
{

namespace
{

// Initialised before main runs, so set-up time includes static
// initialisation of the program's libraries too.
const Clock::time_point gProcessStart = Clock::now();

} // namespace

double
msSince(Clock::time_point since)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - since)
        .count();
}

Clock::time_point
processStart()
{
    return gProcessStart;
}

double
setupSeconds()
{
    return msSince(gProcessStart) / 1000.0;
}

double
peakRssMb()
{
    struct rusage usage = {};
    getrusage(RUSAGE_SELF, &usage);
    return double(usage.ru_maxrss) / 1024.0; // ru_maxrss is in KB
}

double
percentile(std::vector<double> values, double pct)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    size_t rank = size_t(std::ceil(pct / 100.0 * double(values.size())));
    return values[rank ? rank - 1 : 0];
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double v : values)
        log_sum += std::log(v);
    return std::exp(log_sum / double(values.size()));
}

void
checkFailed(const std::string &what)
{
    std::fprintf(stderr, "toolbench: check failed: %s\n", what.c_str());
    std::fflush(stderr);
    std::exit(1);
}

} // namespace toolbench
