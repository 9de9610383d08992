/**
 * @file
 * The benchmark's own span log. Traced runs wrap every call into a
 * program layer in a Span; the log keeps the spans in memory and is
 * written out once, at exit. Untraced runs install no log, and a Span
 * then costs one pointer test. Nothing here reaches inside the
 * program: spans sit around the entry points the benchmark calls.
 */
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common.hh"
#include "support/metrics.hh"

namespace toolbench
{

class SpanLog
{
  public:
    struct Record
    {
        uint64_t id = 0;
        /** 0 for a root span. */
        uint64_t parent = 0;
        std::string name;
        /** Milliseconds since processStart(). */
        double startMs = 0.0;
        double endMs = 0.0;
    };

    /** The process-wide log (null when tracing is off). */
    static SpanLog *active();
    /** Install @p log as the process-wide log (null = off). */
    static void install(SpanLog *log);

    /** Open a span under the calling thread's innermost open span. */
    uint64_t open(const std::string &name);
    /** Close span @p id (must be the calling thread's innermost). */
    void close(uint64_t id);
    /** Record a finished span that began and ended on other threads. */
    void add(const std::string &name, Clock::time_point start,
             Clock::time_point end);

    /** Total self time by span name: each span's duration minus the
     *  part of it covered by its children. */
    std::map<std::string, double> selfMs() const;
    /** Number of spans by name. */
    std::map<std::string, uint64_t> counts() const;

    /** Every span as one JSON array. */
    std::string toJson() const;

  private:
    mutable std::mutex mutex_;
    std::vector<Record> records_;
};

/** RAII span around one call into a program layer. */
class Span
{
  public:
    explicit Span(const char *name)
        : log_(SpanLog::active()), id_(log_ ? log_->open(name) : 0)
    {
    }
    ~Span()
    {
        if (log_)
            log_->close(id_);
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    SpanLog *log_;
    uint64_t id_;
};

/** What a traced run records: the span log and the μmeter registry
 *  the program's own instruments publish into. */
struct Tracing
{
    SpanLog spans;
    muir::metrics::Registry meter;
};

/**
 * Installs @p tracing (span log + μmeter sink) for the lifetime of the
 * scope; a null @p tracing leaves both off. Workloads open one around
 * their timed loop only, so set-up work stays out of the layer times.
 */
class TracingScope
{
  public:
    explicit TracingScope(Tracing *tracing);
    ~TracingScope();
    TracingScope(const TracingScope &) = delete;
    TracingScope &operator=(const TracingScope &) = delete;

  private:
    Tracing *tracing_;
    muir::metrics::Registry *previousSink_ = nullptr;
};

/**
 * The sim.* per-layer metrics, per operation: sim.simulate_ms from
 * @p simulate_ms (the total time spent in simulate calls), sim.compile_ms and sim.schedule_ms from the
 * μmeter sim.compile_ddg / sim.schedule timers, sim.record_ms as the
 * simulate time left over once compile and schedule are taken out,
 * and sim.events as DDG events per scheduled run.
 */
void addSimLayers(RunReport &report, const Tracing &tracing,
                  double simulate_ms, double ops);

/** Self time of spans named @p name, per operation, as metric @p key. */
void addSpanLayer(RunReport &report, const Tracing &tracing,
                  const std::string &name, const std::string &key,
                  double ops);

} // namespace toolbench
