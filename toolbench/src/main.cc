/**
 * @file
 * toolbench: one benchmark process for the μIR toolchain.
 *
 *   toolbench --workload <dse_sweep|scaled_sim|serve_warm|fault_campaign>
 *             --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]
 *
 * Prints, as its last stdout line, one JSON object with the keys
 * correct / attempted / failed / metrics: the end-to-end metrics when
 * untraced, every per-layer metric when traced. A failed correctness
 * check exits 1 before anything is printed; bad flags exit 2.
 */
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include "common.hh"
#include "spans.hh"
#include "support/logging.hh"
#include "support/strings.hh"

using namespace toolbench;

namespace
{

/** Every end-to-end metric, in BENCHMARK.json order. Every workload
 *  measures each of them, and each is positive. */
const std::vector<std::pair<const char *, const char *>> kEndToEnd = {
    {"setup_s", "s"},         {"peak_rss_mb", "MB"},
    {"designs_per_s", "1/s"}, {"sim_events_per_s", "1/s"},
    {"sim_cycles", "cycles"},
};

/** Every per-layer metric, in BENCHMARK.json order. A layer that a
 *  workload never enters reports 0: that is the prediction that a
 *  change to it leaves the workload alone. */
const std::vector<std::pair<const char *, const char *>> kPerLayer = {
    {"workloads.build_ms", "ms"},    {"frontend.lower_ms", "ms"},
    {"uopt.passes_ms", "ms"},        {"uopt.speedup_geomean", "x"},
    {"cost.synth_ms", "ms"},         {"rtl.emit_ms", "ms"},
    {"sim.simulate_ms", "ms"},       {"sim.record_ms", "ms"},
    {"sim.compile_ms", "ms"},        {"sim.schedule_ms", "ms"},
    {"sim.events", "count"},         {"sim.bytes_per_event", "B"},
    {"sim.observe_ms", "ms"},        {"serve.admission_us", "us"},
    {"serve.queue_us", "us"},        {"serve.run_us", "us"},
    {"serve.request_ms_p50", "ms"},  {"serve.request_ms_p99", "ms"},
    {"serve.requests_per_s", "1/s"}, {"serve.cache_hits", "count"},
    {"fault.campaign_ms", "ms"},     {"fault.masked", "count"},
    {"fault.sdc", "count"},          {"fault.detected", "count"},
    {"fault.hang", "count"},
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "toolbench: %s\nusage: toolbench --workload "
                 "<dse_sweep|scaled_sim|serve_warm|fault_campaign> "
                 "--seed <n> --seconds <s> --trace <0|1> "
                 "[--trace-out <file>]\n",
                 why);
    std::exit(2);
}

uint64_t
parseCount(const char *flag, const char *text)
{
    char *end = nullptr;
    unsigned long long v = std::strtoull(text, &end, 10);
    if (!*text || *end)
        usage(muir::fmt("%s wants a whole number, got '%s'", flag, text)
                  .c_str());
    return v;
}

std::string
metricsJson(const std::map<std::string, Metric> &metrics)
{
    std::string out = "{";
    for (const auto &[name, m] : metrics)
        out += muir::fmt("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                         out.size() > 1 ? ", " : "", name.c_str(),
                         m.value, m.unit.c_str());
    return out + "}";
}

} // namespace

int
main(int argc, char **argv)
{
    RunOptions opts;
    int trace = -1;
    std::string trace_out;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const char *value = argv[++i];
        if (flag == "--workload")
            opts.workload = value;
        else if (flag == "--seed")
            opts.seed = parseCount("--seed", value);
        else if (flag == "--seconds")
            opts.seconds = double(parseCount("--seconds", value));
        else if (flag == "--trace")
            trace = int(parseCount("--trace", value));
        else if (flag == "--trace-out")
            trace_out = value;
        else
            usage(("unknown flag " + flag).c_str());
    }
    if (trace != 0 && trace != 1)
        usage("--trace must be 0 or 1");
    if (opts.seconds < 1)
        usage("--seconds must be at least 1");

    RunReport (*run)(const RunOptions &) = nullptr;
    if (opts.workload == "dse_sweep")
        run = runDseSweep;
    else if (opts.workload == "scaled_sim")
        run = runScaledSim;
    else if (opts.workload == "serve_warm")
        run = runServeWarm;
    else if (opts.workload == "fault_campaign")
        run = runFaultCampaign;
    else
        usage(("unknown workload '" + opts.workload + "'").c_str());

    muir::setVerbose(false);
    Tracing tracing;
    if (trace)
        opts.tracing = &tracing;
    RunReport report = run(opts);
    require(report.attempted > 0, "no operation was attempted");

    std::map<std::string, Metric> printed;
    for (const auto &[name, unit] : kEndToEnd) {
        auto it = report.endToEnd.find(name);
        require(it != report.endToEnd.end() && it->second.unit == unit &&
                    it->second.value > 0,
                opts.workload + " measured no positive " + name);
        if (!trace)
            printed[name] = it->second;
    }
    require(report.endToEnd.size() == kEndToEnd.size(),
            opts.workload + " measured an end-to-end metric not in the list");
    if (trace) {
        for (const auto &[name, m] : report.perLayer)
            require(std::any_of(kPerLayer.begin(), kPerLayer.end(),
                                [&](const auto &l) { return name == l.first; }),
                    opts.workload + " measured a per-layer metric not in "
                                    "the list: " + name);
        for (const auto &[name, unit] : kPerLayer) {
            auto it = report.perLayer.find(name);
            printed[name] = {it == report.perLayer.end() ? 0.0
                                                         : it->second.value,
                             unit};
        }
        if (!trace_out.empty()) {
            std::ofstream out(trace_out);
            out << "{\"workload\": \"" << opts.workload
                << "\", \"seed\": " << opts.seed
                << ",\n\"end_to_end\": " << metricsJson(report.endToEnd)
                << ",\n\"per_layer\": " << metricsJson(printed)
                << ",\n\"self_ms\": {";
            bool first = true;
            auto counts = tracing.spans.counts();
            for (const auto &[name, ms] : tracing.spans.selfMs()) {
                out << (first ? "" : ", ") << "\"" << name
                    << "\": {\"ms\": " << ms
                    << ", \"spans\": " << counts[name] << "}";
                first = false;
            }
            out << "},\n\"spans\": " << tracing.spans.toJson() << "}\n";
            require(out.good(), "cannot write " + trace_out);
        }
    }
    std::printf("{\"correct\": true, \"attempted\": %llu, \"failed\": 0, "
                "\"metrics\": %s}\n",
                (unsigned long long)report.attempted,
                metricsJson(printed).c_str());
    return 0;
}
