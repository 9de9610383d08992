/**
 * @file
 * fault_campaign: seeded μfit `mix` campaigns over a few built-in
 * workloads at a fixed job count. Every injection re-records its DDG
 * (a fault run cannot reuse a compiled index), and the fault layer —
 * injection, watchdog, classification — runs in no other workload.
 * Every timed round repeats the set-up round's campaigns, so each one
 * also proves a fixed seed gives the same histogram.
 */
#include <algorithm>
#include <thread>

#include "checks.hh"
#include "common.hh"
#include "sim/fault.hh"
#include "spans.hh"
#include "support/rng.hh"
#include "support/strings.hh"
#include "workloads/driver.hh"

using namespace muir;

namespace toolbench
{

namespace
{

/** Workloads under injection: one per suite, each small enough that a
 *  campaign is many injections, not one long simulation. */
const char *const kCampaignWorkloads[] = {"spmv", "saxpy", "dense8",
                                          "relu_t"};
/** Injections per campaign. */
constexpr unsigned kRuns = 64;

struct Campaign
{
    workloads::Workload workload;
    std::unique_ptr<uir::Accelerator> accel;
    sim::CampaignSpec spec;
    uint64_t directCycles = 0;
    uint64_t directEvents = 0;
    sim::CampaignResult first;
};

} // namespace

RunReport
runFaultCampaign(const RunOptions &opts)
{
    const unsigned jobs =
        std::min(2u, std::max(1u, std::thread::hardware_concurrency()));
    std::vector<Campaign> campaigns;
    SplitMix64 seeds(opts.seed);
    for (const char *name : kCampaignWorkloads) {
        Campaign c;
        c.workload = workloads::buildWorkload(name);
        c.accel = workloads::lowerBaseline(c.workload);
        workloads::RunResult direct = workloads::runOn(c.workload, *c.accel);
        require(direct.check.empty(), std::string(name) + ": " + direct.check);
        c.directCycles = direct.cycles;
        c.directEvents = direct.stats.get("events");
        c.spec.fault.kind = sim::FaultKind::Mix;
        c.spec.runs = kRuns;
        c.spec.seed = seeds.next();
        c.spec.jobs = jobs;
        campaigns.push_back(std::move(c));
    }

    // Each campaign once, untimed: its histogram is the reference every
    // timed repeat of the same seed must reproduce.
    auto runOne = [](const Campaign &c) {
        const workloads::Workload &w = c.workload;
        return sim::runCampaign(
            *c.accel, *w.module, [&w](ir::MemoryImage &mem) { w.bind(mem); },
            c.spec);
    };
    for (Campaign &c : campaigns) {
        c.first = runOne(c);
        std::string bad = checkCampaign(c.first, kRuns, c.directCycles);
        require(bad.empty(), c.workload.name + ": " + bad);
    }

    RunReport report;
    report.endToEnd["setup_s"] = {setupSeconds(), "s"};

    BestTimes campaign_ms(campaigns.size());
    unsigned rounds = 0;
    Clock::time_point loop_start = Clock::now();
    TracingScope tracing(opts.tracing);
    while (rounds == 0 || msSince(loop_start) < opts.seconds * 1000.0) {
        for (size_t i = 0; i < campaigns.size(); ++i) {
            const Campaign &c = campaigns[i];
            sim::CampaignResult result;
            {
                Span s("fault.campaign");
                Clock::time_point t0 = Clock::now();
                result = runOne(c);
                campaign_ms.add(i, msSince(t0));
            }
            Span s("check");
            std::string bad = checkCampaign(result, kRuns, c.directCycles);
            if (bad.empty())
                bad = sameCampaign(c.first, result);
            require(bad.empty(), c.workload.name + ": " + bad);
        }
        ++rounds;
    }

    // A campaign is its golden run plus kRuns injected runs; events are
    // counted at the fault-free run's count for each of them.
    double round_events = 0.0, round_cycles = 0.0;
    for (const Campaign &c : campaigns) {
        round_events += double(c.directEvents) * (kRuns + 1);
        round_cycles += double(c.directCycles);
    }
    double round_s = campaign_ms.totalMs() / 1000.0;
    double ops = double(kRuns) * campaigns.size() * rounds;
    report.attempted = uint64_t(ops);
    report.endToEnd["designs_per_s"] = {
        double(kRuns * campaigns.size()) / round_s, "1/s"};
    report.endToEnd["sim_events_per_s"] = {round_events / round_s, "1/s"};
    report.endToEnd["sim_cycles"] = {round_cycles, "cycles"};
    report.endToEnd["peak_rss_mb"] = {peakRssMb(), "MB"};
    if (opts.tracing) {
        addSpanLayer(report, *opts.tracing, "fault.campaign",
                     "fault.campaign_ms", ops);
        // The pool's busy time is the injected runs themselves
        // (simulate + classification); the golden run is outside it.
        double busy_ms =
            double(opts.tracing->meter.snapshot().counter("pool.busy_us")) /
            1000.0;
        addSimLayers(report, *opts.tracing, busy_ms, ops);
        std::array<uint64_t, sim::kNumOutcomes> per_round{};
        for (const Campaign &c : campaigns)
            for (size_t o = 0; o < sim::kNumOutcomes; ++o)
                per_round[o] += c.first.histogram[o];
        report.perLayer["fault.masked"] = {
            double(per_round[size_t(sim::Outcome::Masked)]), "count"};
        report.perLayer["fault.sdc"] = {
            double(per_round[size_t(sim::Outcome::SDC)]), "count"};
        report.perLayer["fault.detected"] = {
            double(per_round[size_t(sim::Outcome::Detected)]), "count"};
        report.perLayer["fault.hang"] = {
            double(per_round[size_t(sim::Outcome::Hang)]), "count"};
    }
    return report;
}

} // namespace toolbench
