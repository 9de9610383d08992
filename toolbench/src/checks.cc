#include "checks.hh"

#include <cstdlib>

#include "support/strings.hh"

using namespace muir;

namespace toolbench
{

std::string
takeReply(InFlight &in_flight, uint32_t tag, Pending *out)
{
    auto it = in_flight.find(tag);
    if (it == in_flight.end())
        return fmt("reply for tag %u, which awaits none", tag);
    *out = it->second;
    in_flight.erase(it);
    return "";
}

std::string
checkDrained(const InFlight &in_flight, const std::vector<uint32_t> &late_tags)
{
    if (!in_flight.empty())
        return fmt("%zu request(s) never answered, first tag %u",
                   in_flight.size(), in_flight.begin()->first);
    if (!late_tags.empty())
        return fmt("%zu reply(ies) after the last request was answered, "
                   "first tag %u",
                   late_tags.size(), late_tags.front());
    return "";
}

uint64_t
replyCycles(const std::string &payload)
{
    if (payload.compare(0, 7, "cycles=") != 0)
        return 0;
    return std::strtoull(payload.c_str() + 7, nullptr, 10);
}

std::string
checkCampaign(const sim::CampaignResult &result, unsigned runs,
              uint64_t direct_cycles)
{
    if (!result.ok)
        return "campaign failed: " + result.error;
    if (result.records.size() != runs)
        return fmt("%zu records for %u runs", result.records.size(), runs);
    std::array<uint64_t, sim::kNumOutcomes> counted{};
    uint64_t sum = 0;
    for (const sim::InjectionRecord &r : result.records)
        ++counted[size_t(r.outcome)];
    for (uint64_t n : result.histogram)
        sum += n;
    if (sum != runs)
        return fmt("histogram sums to %llu, not %u runs",
                   (unsigned long long)sum, runs);
    if (counted != result.histogram)
        return "histogram disagrees with the per-run records";
    if (result.goldenCycles != direct_cycles)
        return fmt("golden run took %llu cycles, a direct run %llu",
                   (unsigned long long)result.goldenCycles,
                   (unsigned long long)direct_cycles);
    return "";
}

std::string
sameCampaign(const sim::CampaignResult &a, const sim::CampaignResult &b)
{
    if (a.histogram != b.histogram)
        return "same seed, different outcome histogram";
    if (a.records.size() != b.records.size())
        return "same seed, different run count";
    for (size_t i = 0; i < a.records.size(); ++i)
        if (a.records[i].outcome != b.records[i].outcome ||
            a.records[i].cycles != b.records[i].cycles)
            return fmt("same seed, run %zu differs", i);
    return "";
}

} // namespace toolbench
