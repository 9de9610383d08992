/**
 * @file
 * serve_warm: a closed loop of client sessions against an in-process
 * µserve Server over the gate-matrix designs. Set-up primes every
 * design once, so each timed request is a design-cache hit that
 * replays the cached compiled index: functional execution + schedule
 * + framing and admission, with no recording or compiling.
 */
#include <algorithm>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>

#include "checks.hh"
#include "common.hh"
#include "gate/bench_gate.hh"
#include "serve/frame.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "spans.hh"
#include "support/json.hh"
#include "support/rng.hh"
#include "support/strings.hh"
#include "uopt/pipeline.hh"
#include "workloads/driver.hh"

using namespace muir;
using namespace muir::serve;

namespace toolbench
{

namespace
{

/** A reply frame as it reached one client session. */
struct Reply
{
    unsigned client = 0;
    Frame frame;
    Clock::time_point at;
};

/**
 * The client side: sessions whose reply sinks (called on server worker
 * threads) decode frames into one queue the driving thread waits on.
 */
class Clients
{
  public:
    Clients(Server &server, unsigned n)
    {
        decoders_.resize(n);
        for (unsigned c = 0; c < n; ++c)
            sessions_.push_back(server.openSession(
                fmt("client-%u", c),
                [this, c](const std::string &bytes) { onBytes(c, bytes); }));
    }

    const std::shared_ptr<Session> &session(unsigned c) const
    {
        return sessions_[c];
    }

    /** Wait up to @p timeout_ms for the next reply (false = none). */
    bool next(Reply &out, unsigned timeout_ms)
    {
        std::unique_lock<std::mutex> lock(mutex_);
        if (!cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                          [&] { return !replies_.empty(); }))
            return false;
        out = std::move(replies_.front());
        replies_.pop_front();
        return true;
    }

    /** Tags of the replies received but not yet taken by next(). */
    std::vector<uint32_t> queuedTags()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        std::vector<uint32_t> tags;
        for (const Reply &r : replies_)
            tags.push_back(r.frame.tag);
        return tags;
    }

  private:
    void onBytes(unsigned c, const std::string &bytes)
    {
        Clock::time_point now = Clock::now();
        std::lock_guard<std::mutex> lock(mutex_);
        decoders_[c].feed(bytes);
        Frame f;
        while (decoders_[c].next(f) == DecodeStatus::Ready)
            replies_.push_back({c, std::move(f), now});
        cv_.notify_one();
    }

    std::vector<std::shared_ptr<Session>> sessions_;
    std::mutex mutex_;
    std::condition_variable cv_;
    std::vector<FrameDecoder> decoders_;
    std::deque<Reply> replies_;
};

/** Cycles of a direct cold run of one gate cell; adds its compiled
 *  index's size to @p bytes and its DDG events to @p events. */
uint64_t
directCycles(const gate::GateConfig &cell, double *bytes, double *events)
{
    workloads::Workload w = workloads::buildWorkload(cell.workload);
    auto accel = workloads::lowerBaseline(w);
    if (!cell.passes.empty()) {
        uopt::PassManager pm;
        require(uopt::buildPipeline(pm, cell.passes), cell.passes);
        pm.run(*accel);
    }
    workloads::RunOptions ro;
    ro.keepCompiled = true;
    workloads::RunResult run = workloads::runOn(w, *accel, ro);
    require(run.check.empty(), cell.workload + ": " + run.check);
    *bytes += double(run.compiled->bytes());
    *events += double(run.compiled->numEvents);
    return run.cycles;
}

/** One counter of the server's STATS document. */
uint64_t
statsCounter(const Server &server, const char *key)
{
    JsonValue doc;
    require(jsonParse(server.statsJson(), &doc), "STATS is not JSON");
    const JsonValue *v = doc.get("muir.serve.v1", key);
    require(v && v->isNumber(), fmt("STATS lacks %s", key));
    return v->asU64();
}

} // namespace

RunReport
runServeWarm(const RunOptions &opts)
{
    const unsigned hw = std::max(2u, std::thread::hardware_concurrency());
    // Server workers plus this driving thread stay within nproc.
    const unsigned workers = std::min(3u, hw - 1);
    const unsigned clients_n = workers;

    std::vector<gate::GateConfig> cells = gate::standardConfigs();
    std::vector<uint64_t> expected;
    double bytes = 0.0, events_total = 0.0;
    uint64_t cycles_total = 0;
    for (const gate::GateConfig &cell : cells) {
        expected.push_back(directCycles(cell, &bytes, &events_total));
        cycles_total += expected.back();
    }
    std::vector<std::string> payloads;
    for (const gate::GateConfig &cell : cells) {
        RunRequest req;
        req.workload = cell.workload;
        req.passes = cell.passes;
        payloads.push_back(renderRunRequest(req));
    }

    ServerOptions so;
    so.jobs = workers;
    so.queueCapacity = 64;
    so.quotaRate = 1e9; // admission is measured, never a refusal
    so.quotaBurst = 1e9;
    so.cacheCapacity = 2 * cells.size();
    if (opts.tracing) {
        so.traceSampleRate = 1.0;
        so.traceRingCapacity = 1u << 16;
    }
    Server server(so);
    Clients clients(server, clients_n);
    InFlight in_flight;
    uint32_t next_tag = 1;

    // Sends request @p cell on client @p c.
    auto send = [&](unsigned c, size_t cell) {
        uint32_t tag = next_tag++;
        in_flight[tag] = {cell, Clock::now()};
        server.feed(clients.session(c),
                    encodeFrame(FrameKind::Run, tag, payloads[cell]));
    };
    // Waits for the next reply (false after 60 s without one), checks
    // it answers exactly one awaited request and that it matches the
    // direct run of that request's cell.
    auto receive = [&](Reply &r, Pending &p) {
        if (!clients.next(r, 60000))
            return false;
        std::string once = takeReply(in_flight, r.frame.tag, &p);
        require(once.empty(), "exactly-once check: " + once);
        size_t cell = p.cell;
        require(r.frame.kind == uint8_t(FrameKind::Ok),
                fmt("%s [%s]: reply kind %u: %s", cells[cell].workload.c_str(),
                    cells[cell].passes.c_str(), unsigned(r.frame.kind),
                    r.frame.payload.c_str()));
        uint64_t cycles = replyCycles(r.frame.payload);
        require(cycles == expected[cell],
                fmt("%s [%s]: served %llu cycles, direct run %llu",
                    cells[cell].workload.c_str(), cells[cell].passes.c_str(),
                    (unsigned long long)cycles,
                    (unsigned long long)expected[cell]));
        return true;
    };

    // Prime: one request per design, one at a time, all misses.
    for (size_t cell = 0; cell < cells.size(); ++cell) {
        send(0, cell);
        Reply r;
        Pending p;
        require(receive(r, p), "a priming request got no reply in 60 s");
    }
    require(statsCounter(server, "cache_misses") == cells.size() &&
                statsCounter(server, "cache_hits") == 0,
            "priming did not compile each design exactly once");

    RunReport report;
    report.endToEnd["setup_s"] = {setupSeconds(), "s"};

    // Closed loop: each client has one request in flight and sends its
    // next as soon as the reply lands. A round is every cell once, in
    // an order drawn from the seed; the loop ends on a round boundary
    // once the time is up and at least 1000 requests were answered, so
    // the p99 has at least ten replies beyond it.
    constexpr size_t kMinRequests = 1000;
    SplitMix64 rng(opts.seed);
    std::vector<size_t> order(cells.size());
    std::deque<size_t> pending;
    auto refill = [&] {
        for (size_t i = 0; i < order.size(); ++i)
            order[i] = i;
        for (size_t i = order.size(); i > 1; --i)
            std::swap(order[i - 1], order[rng.below(i)]);
        pending.insert(pending.end(), order.begin(), order.end());
    };
    std::vector<double> latency_ms;
    BestTimes best_ms(cells.size());
    Clock::time_point loop_start;
    Clock::time_point loop_end;
    {
        TracingScope tracing(opts.tracing);
        loop_start = Clock::now();
        bool more = true;
        auto issue = [&](unsigned c) {
            if (pending.empty()) {
                more = msSince(loop_start) < opts.seconds * 1000.0 ||
                       latency_ms.size() + in_flight.size() < kMinRequests;
                if (!more)
                    return;
                refill();
            }
            size_t cell = pending.front();
            pending.pop_front();
            send(c, cell);
        };
        for (unsigned c = 0; c < clients_n; ++c)
            issue(c);
        // A reply missing for 60 s ends the loop; checkDrained below
        // names the request left unanswered.
        Reply r;
        Pending p;
        while (!in_flight.empty() && receive(r, p)) {
            latency_ms.push_back(
                std::chrono::duration<double, std::milli>(r.at - p.sent)
                    .count());
            best_ms.add(p.cell, latency_ms.back());
            if (opts.tracing)
                opts.tracing->spans.add("serve.request", p.sent, r.at);
            if (more)
                issue(r.client);
        }
        loop_end = Clock::now();
    }
    server.beginDrain();
    require(server.drain(1000), "the server did not drain in 1 s");
    server.stop();
    std::string drained = checkDrained(in_flight, clients.queuedTags());
    require(drained.empty(), "exactly-once check: " + drained);
    uint64_t hits = statsCounter(server, "cache_hits");
    require(hits == latency_ms.size() &&
                statsCounter(server, "cache_misses") == cells.size(),
            "a timed request missed the design cache");

    // Rates are one request per design, each at its fastest
    // send-to-reply latency, as in the other workloads; whole-run
    // throughput moved with the host by ±15% between runs.
    double round_s = best_ms.totalMs() / 1000.0;
    double loop_s =
        std::chrono::duration<double>(loop_end - loop_start).count();
    double requests = double(latency_ms.size());
    report.attempted = latency_ms.size();
    report.endToEnd["designs_per_s"] = {double(cells.size()) / round_s,
                                        "1/s"};
    report.endToEnd["sim_events_per_s"] = {events_total / round_s, "1/s"};
    report.endToEnd["sim_cycles"] = {double(cycles_total), "cycles"};
    report.endToEnd["peak_rss_mb"] = {peakRssMb(), "MB"};

    if (opts.tracing) {
        // Stage spans µtrace recorded for the timed (cache-hit) requests.
        double admission = 0, queue = 0, run = 0, simulate = 0, n = 0;
        for (const auto &t : server.tracer().recent()) {
            bool hit = false;
            for (const trace::Span &s : t->spans)
                for (const auto &[k, v] : s.attrs)
                    hit |= s.name == "compile" && k == "cache" && v == "hit";
            if (!hit)
                continue;
            n += 1;
            admission += double(t->stageUs("admission"));
            queue += double(t->stageUs("queue-wait"));
            run += double(t->stageUs("run"));
            for (const trace::Span &s : t->spans)
                if (s.name == "simulate")
                    simulate += double(s.durUs) / 1000.0;
        }
        require(n > 0, "no traced cache-hit request");
        report.perLayer["serve.admission_us"] = {admission / n, "us"};
        report.perLayer["serve.queue_us"] = {queue / n, "us"};
        report.perLayer["serve.run_us"] = {run / n, "us"};
        report.perLayer["serve.request_ms_p50"] = {
            percentile(latency_ms, 50), "ms"};
        report.perLayer["serve.request_ms_p99"] = {
            percentile(latency_ms, 99), "ms"};
        report.perLayer["serve.requests_per_s"] = {requests / loop_s, "1/s"};
        report.perLayer["serve.cache_hits"] = {double(hits), "count"};
        addSimLayers(report, *opts.tracing, simulate * requests / n,
                     requests);
        report.perLayer["sim.bytes_per_event"] = {bytes / events_total, "B"};
    }
    return report;
}

} // namespace toolbench
