/**
 * @file
 * scaled_sim: two kernels far larger than the built-in workloads, each
 * simulated cold under its baseline design and one μopt pipeline. With
 * over a million DDG events per design, per-event recording, compiling
 * and scheduling cost dominate; the designs are built once, in set-up.
 */
#include <memory>

#include "common.hh"
#include "kernels.hh"
#include "sim/simulator.hh"
#include "spans.hh"
#include "support/strings.hh"
#include "uir/analysis/bound_report.hh"
#include "uopt/pipeline.hh"
#include "workloads/driver.hh"

using namespace muir;

namespace toolbench
{

namespace
{

struct ScaledDesign
{
    const workloads::Workload *workload = nullptr;
    std::string label;
    std::unique_ptr<uir::Accelerator> accel;
    uint64_t cycleLb = 0;
};

/**
 * One cold simulation of @p d, with the outputs checked bit for bit
 * against the C++ reference and the cycles against the static lower
 * bound. The host time of the simulate call goes to @p sim_ms when set;
 * with default @p so that is the call a user makes, which frees its
 * event record and compiled index before it returns.
 */
sim::SimResult
simulateChecked(const ScaledDesign &d, double *sim_ms = nullptr,
                const sim::SimOptions &so = {})
{
    ir::MemoryImage mem(*d.workload->module);
    d.workload->bind(mem);
    sim::SimResult run;
    {
        Span s("sim.simulate");
        Clock::time_point t0 = Clock::now();
        run = sim::simulate(*d.accel, mem, {}, so);
        if (sim_ms)
            *sim_ms = msSince(t0);
    }
    Span s("check");
    std::string diff = checkExact(*d.workload, mem);
    require(diff.empty(), d.label + ": " + diff);
    require(d.cycleLb <= run.cycles,
            fmt("%s: cycle lower bound %llu exceeds %llu simulated cycles",
                d.label.c_str(), (unsigned long long)d.cycleLb,
                (unsigned long long)run.cycles));
    return run;
}

} // namespace

RunReport
runScaledSim(const RunOptions &opts)
{
    std::vector<workloads::Workload> kernels;
    kernels.push_back(buildFirKernel(opts.seed));
    kernels.push_back(buildAxpyKernel(opts.seed));
    std::vector<ScaledDesign> designs;
    for (const workloads::Workload &w : kernels) {
        std::string pipeline = w.usesSpawn ? "queue,tile:4,bank:4,fusion"
                                           : "queue,localize,bank:4,fusion";
        for (const std::string &passes : {std::string(), pipeline}) {
            ScaledDesign d;
            d.workload = &w;
            d.label = w.name + " [" + passes + "]";
            d.accel = workloads::lowerBaseline(w);
            if (!passes.empty()) {
                uopt::PassManager pm;
                std::string error;
                require(uopt::buildPipeline(pm, passes, &error), error);
                pm.run(*d.accel);
            }
            uir::analysis::AnalysisManager am(*d.accel);
            d.cycleLb =
                am.get<uir::analysis::BoundReportAnalysis>().design().cycleLb;
            designs.push_back(std::move(d));
        }
    }

    // One untimed warm-up round: it fills the allocator's free lists
    // the timed rounds reuse, fixes each design's cycles, proves a warm
    // replay of the kept index gives exactly the cold cycles, and reads
    // the index's size for sim.bytes_per_event.
    std::vector<uint64_t> cycles;
    double bytes = 0.0, events_total = 0.0;
    for (const ScaledDesign &d : designs) {
        sim::SimOptions keep;
        keep.keepCompiled = true;
        sim::SimResult cold = simulateChecked(d, nullptr, keep);
        require(cold.stats.get("events") >= 1000000,
                d.label + ": fewer than 10^6 DDG events");
        ir::MemoryImage mem(*d.workload->module);
        d.workload->bind(mem);
        sim::SimOptions warm;
        warm.compiled = cold.compiled.get();
        sim::SimResult replay = sim::simulate(*d.accel, mem, {}, warm);
        require(replay.cycles == cold.cycles,
                d.label + ": warm replay changed the cycles");
        cycles.push_back(cold.cycles);
        bytes += double(cold.compiled->bytes());
        events_total += double(cold.compiled->numEvents);
    }

    RunReport report;
    report.endToEnd["setup_s"] = {setupSeconds(), "s"};

    BestTimes sim_ms(designs.size());
    uint64_t round_events = 0;
    unsigned rounds = 0;
    Clock::time_point loop_start = Clock::now();
    TracingScope tracing(opts.tracing);
    while (rounds == 0 || msSince(loop_start) < opts.seconds * 1000.0) {
        round_events = 0;
        for (size_t i = 0; i < designs.size(); ++i) {
            double ms = 0.0;
            sim::SimResult run = simulateChecked(designs[i], &ms);
            sim_ms.add(i, ms);
            require(run.cycles == cycles[i],
                    designs[i].label + ": cycles changed between runs");
            round_events += run.stats.get("events");
        }
        ++rounds;
    }
    double ops = double(designs.size()) * rounds;
    uint64_t total_cycles = 0;
    for (uint64_t c : cycles)
        total_cycles += c;
    // Designs come in (baseline, pipeline) pairs, one pair per kernel.
    std::vector<double> speedups;
    for (size_t i = 0; i + 1 < cycles.size(); i += 2)
        speedups.push_back(double(cycles[i]) / double(cycles[i + 1]));
    double round_s = sim_ms.totalMs() / 1000.0;
    report.attempted = uint64_t(ops);
    report.endToEnd["designs_per_s"] = {double(designs.size()) / round_s,
                                        "1/s"};
    report.endToEnd["sim_events_per_s"] = {double(round_events) / round_s,
                                           "1/s"};
    report.endToEnd["sim_cycles"] = {double(total_cycles), "cycles"};
    report.endToEnd["peak_rss_mb"] = {peakRssMb(), "MB"};
    report.perLayer["uopt.speedup_geomean"] = {geomean(speedups), "x"};
    if (opts.tracing) {
        addSimLayers(report, *opts.tracing,
                     opts.tracing->spans.selfMs()["sim.simulate"], ops);
        report.perLayer["sim.bytes_per_event"] = {bytes / events_total, "B"};
    }
    return report;
}

} // namespace toolbench
