#include "spans.hh"

#include <atomic>

#include "support/strings.hh"

namespace toolbench
{

namespace
{

std::atomic<SpanLog *> gActive{nullptr};

/** The calling thread's open spans, innermost last. */
thread_local std::vector<uint64_t> tOpen;

double
msOf(Clock::time_point t)
{
    return std::chrono::duration<double, std::milli>(t - processStart())
        .count();
}

} // namespace

SpanLog *
SpanLog::active()
{
    return gActive.load(std::memory_order_acquire);
}

void
SpanLog::install(SpanLog *log)
{
    gActive.store(log, std::memory_order_release);
}

uint64_t
SpanLog::open(const std::string &name)
{
    Record r;
    r.parent = tOpen.empty() ? 0 : tOpen.back();
    r.name = name;
    r.startMs = msOf(Clock::now());
    std::lock_guard<std::mutex> lock(mutex_);
    r.id = records_.size() + 1;
    records_.push_back(std::move(r));
    tOpen.push_back(records_.back().id);
    return records_.back().id;
}

void
SpanLog::close(uint64_t id)
{
    double end = msOf(Clock::now());
    if (!tOpen.empty() && tOpen.back() == id)
        tOpen.pop_back();
    std::lock_guard<std::mutex> lock(mutex_);
    records_[id - 1].endMs = end;
}

void
SpanLog::add(const std::string &name, Clock::time_point start,
             Clock::time_point end)
{
    Record r;
    r.name = name;
    r.startMs = msOf(start);
    r.endMs = msOf(end);
    std::lock_guard<std::mutex> lock(mutex_);
    r.id = records_.size() + 1;
    records_.push_back(std::move(r));
}

std::map<std::string, double>
SpanLog::selfMs() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<double> self(records_.size());
    for (size_t i = 0; i < records_.size(); ++i)
        self[i] = records_[i].endMs - records_[i].startMs;
    for (const Record &r : records_)
        if (r.parent)
            self[r.parent - 1] -= r.endMs - r.startMs;
    std::map<std::string, double> out;
    for (size_t i = 0; i < records_.size(); ++i)
        out[records_[i].name] += self[i];
    return out;
}

std::map<std::string, uint64_t>
SpanLog::counts() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::map<std::string, uint64_t> out;
    for (const Record &r : records_)
        ++out[r.name];
    return out;
}

std::string
SpanLog::toJson() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::string out = "[";
    for (size_t i = 0; i < records_.size(); ++i) {
        const Record &r = records_[i];
        out += muir::fmt("%s\n{\"id\":%llu,\"parent\":%llu,\"name\":\"%s\","
                         "\"start_ms\":%.4f,\"end_ms\":%.4f}",
                         i ? "," : "", (unsigned long long)r.id,
                         (unsigned long long)r.parent, r.name.c_str(),
                         r.startMs, r.endMs);
    }
    out += "\n]";
    return out;
}

TracingScope::TracingScope(Tracing *tracing) : tracing_(tracing)
{
    if (!tracing_)
        return;
    SpanLog::install(&tracing_->spans);
    previousSink_ = muir::metrics::installSink(&tracing_->meter);
}

TracingScope::~TracingScope()
{
    if (!tracing_)
        return;
    muir::metrics::installSink(previousSink_);
    SpanLog::install(nullptr);
}

void
addSpanLayer(RunReport &report, const Tracing &tracing,
             const std::string &name, const std::string &key, double ops)
{
    auto self = tracing.spans.selfMs();
    report.perLayer[key] = {ops > 0 ? self[name] / ops : 0.0, "ms"};
}

void
addSimLayers(RunReport &report, const Tracing &tracing,
             double simulate, double ops)
{
    muir::metrics::Snapshot snap = tracing.meter.snapshot();
    double compile = snap.timerMs("sim.compile_ddg");
    double schedule = snap.timerMs("sim.schedule");
    double per = ops > 0 ? 1.0 / ops : 0.0;
    report.perLayer["sim.simulate_ms"] = {simulate * per, "ms"};
    report.perLayer["sim.compile_ms"] = {compile * per, "ms"};
    report.perLayer["sim.schedule_ms"] = {schedule * per, "ms"};
    if (simulate > 0)
        report.perLayer["sim.record_ms"] = {
            (simulate - compile - schedule) * per, "ms"};
    uint64_t runs = snap.counter("sim.runs");
    report.perLayer["sim.events"] = {
        runs ? double(snap.counter("sim.events")) / double(runs) : 0.0,
        "count"};
}

} // namespace toolbench
