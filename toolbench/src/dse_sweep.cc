/**
 * @file
 * dse_sweep: the cold design-space loop. Every built-in workload is
 * evaluated under its baseline, the gate's standard pipeline and a
 * small grid of pass parameters; each evaluation builds the workload,
 * lowers it, runs μopt, simulates with golden checks, synthesizes and
 * emits RTL from scratch. The best design of each workload is then run
 * once more with μprof + μscope on.
 */
#include <memory>

#include "common.hh"
#include "cost/cost_model.hh"
#include "gate/bench_gate.hh"
#include "rtl/chisel.hh"
#include "rtl/verilog.hh"
#include "sim/simulator.hh"
#include "spans.hh"
#include "support/rng.hh"
#include "support/strings.hh"
#include "uir/analysis/bound_report.hh"
#include "uopt/pipeline.hh"
#include "workloads/driver.hh"

using namespace muir;

namespace toolbench
{

namespace
{

struct Design
{
    std::string workload;
    std::string passes;
};

/** The pass-parameter grid swept on top of the gate's two configs:
 *  small and large queue/tile/bank counts in the suite's pipeline. */
std::vector<std::string>
gridPasses(const workloads::Workload &w)
{
    std::vector<std::string> out;
    for (unsigned n : {2u, 8u}) {
        if (w.suite == workloads::Suite::Cilk)
            out.push_back(fmt("queue:%u,tile:%u,bank:%u,fusion", n, n, n));
        else if (w.usesTensor)
            out.push_back(
                fmt("queue:%u,localize,bank:%u,fusion,tensor", n, n));
        else
            out.push_back(fmt("queue:%u,localize,bank:%u,fusion", n, n));
    }
    return out;
}

/** Final memory of the source module run in the compiler-IR
 *  interpreter: independent of lowering, μopt and the μIR executor. */
std::vector<uint8_t>
interpreterMemory(const workloads::Workload &w)
{
    ir::Interpreter interp(*w.module);
    w.bind(interp.memory());
    interp.run(*w.module->function(w.kernel), {});
    return interp.memory().bytes();
}

/** The best (fewest-cycle) design of one workload in a round. */
struct Best
{
    uint64_t cycles = ~uint64_t(0);
    std::unique_ptr<workloads::Workload> workload;
    std::unique_ptr<uir::Accelerator> accel;
};

} // namespace

RunReport
runDseSweep(const RunOptions &opts)
{
    std::vector<Design> designs;
    std::map<std::string, std::vector<uint8_t>> reference;
    for (const gate::GateConfig &c : gate::standardConfigs())
        designs.push_back({c.workload, c.passes});
    for (const std::string &name : workloads::workloadNames()) {
        workloads::Workload w = workloads::buildWorkload(name);
        for (const std::string &passes : gridPasses(w))
            designs.push_back({name, passes});
        reference[name] = interpreterMemory(w);
    }
    // The seed fixes the evaluation order; the work is the same.
    SplitMix64 rng(opts.seed);
    for (size_t i = designs.size(); i > 1; --i)
        std::swap(designs[i - 1], designs[rng.below(i)]);

    std::map<std::string, uint64_t> cyclesSeen; // per design, all rounds
    const std::vector<std::string> &names = workloads::workloadNames();
    BestTimes eval_ms(designs.size()), sim_ms(designs.size());
    BestTimes observe_ms(names.size());
    uint64_t round_events = 0;
    uint64_t best_cycles = 0;
    double speedup = 0.0;
    // One sweep of every design, then the observed run of each
    // workload's best design.
    auto sweep = [&] {
        std::map<std::string, Best> best;
        std::map<std::string, uint64_t> baseline;
        round_events = 0;
        for (size_t i = 0; i < designs.size(); ++i) {
            const Design &d = designs[i];
            Clock::time_point eval_start = Clock::now();
            std::string label = d.workload + " [" + d.passes + "]";
            auto w = std::make_unique<workloads::Workload>();
            {
                Span s("workloads.build");
                *w = workloads::buildWorkload(d.workload);
            }
            std::unique_ptr<uir::Accelerator> accel;
            {
                Span s("frontend.lower");
                accel = workloads::lowerBaseline(*w);
            }
            if (!d.passes.empty()) {
                Span s("uopt.passes");
                uopt::PassManager pm;
                std::string error;
                require(uopt::buildPipeline(pm, d.passes, &error),
                        label + ": " + error);
                pm.run(*accel);
            }
            ir::MemoryImage mem(*w->module);
            w->bind(mem);
            sim::SimResult run;
            {
                Span s("sim.simulate");
                Clock::time_point t0 = Clock::now();
                run = sim::simulate(*accel, mem);
                sim_ms.add(i, msSince(t0));
            }
            round_events += run.stats.get("events");
            {
                Span s("check");
                std::string golden = w->check(mem);
                require(golden.empty(), label + ": " + golden);
                require(mem.bytes() == reference[d.workload],
                        label + ": final memory differs from the "
                                "compiler-IR interpreter's");
                uir::analysis::AnalysisManager am(*accel);
                uint64_t lb = am.get<uir::analysis::BoundReportAnalysis>()
                                  .design()
                                  .cycleLb;
                require(lb <= run.cycles,
                        fmt("%s: cycle lower bound %llu exceeds %llu "
                            "simulated cycles",
                            label.c_str(), (unsigned long long)lb,
                            (unsigned long long)run.cycles));
                auto [it, fresh] = cyclesSeen.emplace(label, run.cycles);
                require(fresh || it->second == run.cycles,
                        label + ": cycles changed between rounds");
            }
            {
                Span s("cost.synth");
                cost::SynthesisReport synth = cost::synthesize(*accel);
                require(synth.fpgaMhz > 0 && synth.alms > 0,
                        label + ": empty synthesis report");
            }
            {
                Span s("rtl.emit");
                std::string verilog = rtl::emitVerilog(*accel);
                std::string chisel = rtl::emitChisel(*accel);
                require(!verilog.empty() && !chisel.empty(),
                        label + ": empty RTL");
            }
            eval_ms.add(i, msSince(eval_start));
            if (d.passes.empty())
                baseline[d.workload] = run.cycles;
            Best &b = best[d.workload];
            if (run.cycles < b.cycles) {
                b.cycles = run.cycles;
                b.workload = std::move(w);
                b.accel = std::move(accel);
            }
        }
        std::vector<double> speedups;
        best_cycles = 0;
        for (size_t i = 0; i < names.size(); ++i) {
            const std::string &name = names[i];
            Best &b = best.at(name);
            Clock::time_point observe_start = Clock::now();
            Span s("sim.observe");
            // The profiled runs are not part of the sim.* layer times.
            metrics::ScopedSink no_meter(nullptr);
            workloads::RunOptions ro;
            ro.profile = true;
            ro.timeline = true;
            workloads::RunResult run =
                workloads::runOn(*b.workload, *b.accel, ro);
            require(run.check.empty(), name + " (observed): " + run.check);
            require(run.cycles == b.cycles && run.profile && run.timeline,
                    name + ": profiling changed the simulated cycles");
            speedups.push_back(double(baseline.at(name)) /
                               double(b.cycles));
            best_cycles += b.cycles;
            observe_ms.add(i, msSince(observe_start));
        }
        speedup = geomean(speedups);
    };

    // The reference sweep, in set-up: it fixes every design's cycles,
    // which each timed sweep must repeat exactly, and lets lazy
    // one-time costs happen before timing. It also makes set-up long
    // enough that its one cold sample per run spans more than one fast
    // or slow stretch of a shared host.
    sweep();
    eval_ms = BestTimes(designs.size());
    sim_ms = BestTimes(designs.size());
    observe_ms = BestTimes(names.size());

    RunReport report;
    report.endToEnd["setup_s"] = {setupSeconds(), "s"};

    unsigned rounds = 0;
    Clock::time_point loop_start = Clock::now();
    TracingScope tracing(opts.tracing);
    while (rounds == 0 || msSince(loop_start) < opts.seconds * 1000.0) {
        sweep();
        ++rounds;
    }

    double ops = double(designs.size()) * rounds;
    report.attempted = uint64_t(ops);
    // A sweep of every design plus the observed runs, each at its
    // fastest repeat.
    double sweep_ms = eval_ms.totalMs() + observe_ms.totalMs();
    report.endToEnd["designs_per_s"] = {
        double(designs.size()) / (sweep_ms / 1000.0), "1/s"};
    report.endToEnd["sim_events_per_s"] = {
        double(round_events) / (sim_ms.totalMs() / 1000.0), "1/s"};
    report.endToEnd["sim_cycles"] = {double(best_cycles), "cycles"};
    report.endToEnd["peak_rss_mb"] = {peakRssMb(), "MB"};
    report.perLayer["uopt.speedup_geomean"] = {speedup, "x"};
    if (opts.tracing) {
        for (const char *layer : {"workloads.build", "frontend.lower",
                                  "uopt.passes", "cost.synth", "rtl.emit",
                                  "sim.observe"})
            addSpanLayer(report, *opts.tracing, layer,
                         std::string(layer) + "_ms", ops);
        addSimLayers(report, *opts.tracing,
                     opts.tracing->spans.selfMs()["sim.simulate"], ops);
    }
    return report;
}

} // namespace toolbench
