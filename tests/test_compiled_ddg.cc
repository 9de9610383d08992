/**
 * @file
 * CompiledDdg suite: the struct-of-arrays DDG the executor records
 * into and the replay reads (sim/compiled_ddg.hh). Checks that the
 * derived dependents CSR is the exact reverse of the recorded deps,
 * that the derived per-event geometry agrees with the design, that a
 * record violating the backward-dep invariant dies at compile time,
 * and that replays are bit-identical — cold and reused, serial and
 * from concurrent RunContexts (the Parallel suite runs under TSan in
 * CI).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "sim/compiled_ddg.hh"
#include "sim/exec.hh"
#include "sim/simulator.hh"
#include "support/logging.hh"
#include "workloads/driver.hh"
#include "workloads/workload.hh"

namespace muir
{

namespace
{

/** One recorded baseline execution, kept alive for the checks. */
struct Recorded
{
    workloads::Workload workload;
    std::unique_ptr<uir::Accelerator> accel;
    std::unique_ptr<sim::UirExecutor> exec;
    std::unique_ptr<ir::MemoryImage> mem;

    /** A compiled copy of the record (the executor keeps its own). */
    sim::CompiledDdg compile() const
    {
        return sim::compileDdg(exec->record());
    }
};

Recorded
record(const std::string &name)
{
    setVerbose(false);
    Recorded r;
    r.workload = workloads::buildWorkload(name);
    r.accel = workloads::lowerBaseline(r.workload);
    r.mem = std::make_unique<ir::MemoryImage>(*r.workload.module);
    r.workload.bind(*r.mem);
    r.exec = std::make_unique<sim::UirExecutor>(*r.accel, *r.mem);
    r.exec->run({});
    return r;
}

} // namespace

// ------------------------------------------------- structural fidelity

TEST(CompiledDdg, CsrRoundTripOnEveryBaseline)
{
    for (const std::string &name : workloads::workloadNames()) {
        Recorded r = record(name);
        const sim::CompiledDdg &rec = r.exec->record();
        sim::CompiledDdg cd = r.compile();

        ASSERT_EQ(cd.numEvents, rec.numEvents) << name;
        ASSERT_EQ(cd.invocations.size(), rec.invocations.size()) << name;
        ASSERT_EQ(cd.depStart.size(), cd.numEvents + 1) << name;
        ASSERT_EQ(cd.depdStart.size(), cd.numEvents + 1) << name;
        ASSERT_EQ(cd.memEdge.size(), cd.deps.size()) << name;
        EXPECT_EQ(cd.design, r.accel.get()) << name;
        EXPECT_GT(cd.bytes(), 0u) << name;

        // The recorded deps move into place untouched.
        ASSERT_EQ(cd.depStart, rec.depStart) << name;
        ASSERT_EQ(cd.deps, rec.deps) << name;
        ASSERT_EQ(cd.memEdge, rec.memEdge) << name;

        // Reverse CSR: one entry per forward edge, each producer's
        // consumer list sorted ascending (the replay's wake order).
        ASSERT_EQ(cd.dependents.size(), cd.deps.size()) << name;
        std::vector<std::vector<uint32_t>> expected(cd.numEvents);
        for (uint32_t e = 0; e < cd.numEvents; ++e)
            for (uint32_t d : cd.depsOf(e)) {
                ASSERT_LT(d, e) << name << " event " << e;
                expected[d].push_back(e);
            }
        for (uint32_t p = 0; p < cd.numEvents; ++p) {
            ASSERT_EQ(cd.depdStart[p + 1] - cd.depdStart[p],
                      expected[p].size())
                << name << " producer " << p;
            for (size_t i = 0; i < expected[p].size(); ++i)
                ASSERT_EQ(cd.dependents[cd.depdStart[p] + i],
                          expected[p][i])
                    << name << " producer " << p;
        }
    }
}

TEST(CompiledDdg, DerivedAttributesMatchTheDesign)
{
    for (const std::string name :
         {"gemm", "saxpy", "fib", "msort", "spmv"}) {
        Recorded r = record(name);
        sim::CompiledDdg cd = r.compile();

        for (uint32_t e = 0; e < cd.numEvents; ++e) {
            const uint8_t fl = cd.flags[e];
            const uir::Node *node = cd.node(e);
            ASSERT_LT(cd.invocation[e], cd.invocations.size()) << name;
            ASSERT_EQ(bool(fl & sim::kEvCompletion), node == nullptr)
                << name << " event " << e;
            ASSERT_EQ(bool(fl & sim::kEvEntry),
                      cd.invocations[cd.invocation[e]].entryEvent == e)
                << name << " event " << e;
            if (!node) {
                ASSERT_EQ(cd.taskOf[e], sim::kNoId16) << name;
                ASSERT_EQ(cd.initSlot[e], sim::kNoId32) << name;
                ASSERT_EQ(cd.structOf[e], sim::kNoId16) << name;
                continue;
            }
            ASSERT_EQ(node->parent(), cd.taskOfEvent(e)) << name;
            ASSERT_LT(cd.taskOf[e], cd.tasks.size()) << name;
            ASSERT_EQ(cd.tasks[cd.taskOf[e]].task, node->parent())
                << name;
            ASSERT_LT(cd.initSlot[e], cd.initSlots) << name;
            ASSERT_LT(cd.tileOf(e), cd.tasks[cd.taskOf[e]].tiles)
                << name;
            bool mem_op = fl & (sim::kEvLoad | sim::kEvStore);
            if (mem_op) {
                ASSERT_TRUE(node->kind() == uir::NodeKind::Load ||
                            node->kind() == uir::NodeKind::Store)
                    << name << " event " << e;
                ASSERT_EQ(cd.words[e], node->accessWords()) << name;
                ASSERT_NE(cd.structOf[e], sim::kNoId16)
                    << name << " event " << e;
                ASSERT_EQ(cd.structs[cd.structOf[e]].s,
                          r.accel->structureForSpace(node->memSpace()))
                    << name << " event " << e;
                ASSERT_GE(cd.beats[e], 1u) << name;
                ASSERT_LT(cd.junctionPortBase[e], cd.portSlots) << name;
                ASSERT_LT(cd.bankPortBase[e], cd.portSlots) << name;
            } else {
                ASSERT_EQ(cd.structOf[e], sim::kNoId16) << name;
            }
            if (cd.queueDep[e] != sim::kNoId32) {
                ASSERT_EQ(node->kind(), uir::NodeKind::ChildCall) << name;
                auto deps = cd.depsOf(e);
                ASSERT_NE(std::find(deps.begin(), deps.end(),
                                    cd.queueDep[e]),
                          deps.end())
                    << name << " event " << e;
            }
        }
    }
}

TEST(CompiledDdgDeath, ForwardDependencyTripsTheFreezeAssert)
{
    // The whole replay design rests on "every dep references an
    // earlier event" (a linear id-order pass is a topological
    // schedule); a record violating it must die at compile time, not
    // deadlock the scheduler.
    Recorded r = record("fib");
    sim::CompiledDdg bad = r.exec->record();
    bad.deps.push_back(bad.numEvents + 100); // forward reference
    bad.memEdge.push_back(false);
    bad.depStart.push_back(static_cast<uint32_t>(bad.deps.size()));
    bad.nodeOf.push_back(sim::kNoId32);
    bad.invocation.push_back(0);
    bad.addr.push_back(0);
    bad.words.push_back(0);
    bad.flags.push_back(sim::kEvCompletion);
    bad.queueDep.push_back(sim::kNoId32);
    ++bad.numEvents;
    EXPECT_DEATH(sim::compileDdg(std::move(bad)), "not earlier");
}

// ------------------------------------------- memory-order oracle

namespace
{

/**
 * Brute-force memory ordering: rebuild every RAW/WAW/WAR edge from
 * the access log alone (address, words, load/store, id order) by
 * scanning all earlier accesses — O(n²), independent of the
 * recorder's per-word shadow state. For access b and each word it
 * touches, walking back from b: a load needs the latest earlier store
 * to that word (RAW); a store needs that store (WAW) and every load
 * of the word after it (WAR). Returns the required producers per
 * access event.
 */
std::vector<std::vector<uint32_t>>
bruteForceMemoryEdges(const sim::CompiledDdg &rec)
{
    std::vector<uint32_t> accesses;
    for (uint32_t e = 0; e < rec.numEvents; ++e)
        if (rec.flags[e] & (sim::kEvLoad | sim::kEvStore))
            accesses.push_back(e);
    auto touches = [&](uint32_t e, uint64_t word) {
        uint64_t first = rec.addr[e] / 4;
        return word >= first && word < first + rec.words[e];
    };
    std::vector<std::vector<uint32_t>> required(rec.numEvents);
    for (size_t j = 0; j < accesses.size(); ++j) {
        uint32_t b = accesses[j];
        bool b_store = rec.flags[b] & sim::kEvStore;
        for (unsigned w = 0; w < rec.words[b]; ++w) {
            uint64_t word = rec.addr[b] / 4 + w;
            for (size_t i = j; i-- > 0;) {
                uint32_t a = accesses[i];
                if (!touches(a, word))
                    continue;
                bool a_store = rec.flags[a] & sim::kEvStore;
                if (a_store || b_store)
                    required[b].push_back(a);
                if (a_store)
                    break; // Nothing before the last store matters.
            }
        }
    }
    return required;
}

} // namespace

TEST(DdgOracle, MemoryEdgesMatchBruteForce)
{
    // Cilk (saxpy, msort) and dataflow workloads, including
    // multi-word tensor accesses (relu_t, 2mm_t).
    size_t mem_edges = 0;
    for (const std::string name :
         {"saxpy", "relu", "2mm", "msort", "relu_t", "2mm_t"}) {
        Recorded r = record(name);
        const sim::CompiledDdg &rec = r.exec->record();
        auto required = bruteForceMemoryEdges(rec);
        for (uint32_t e = 0; e < rec.numEvents; ++e) {
            auto deps = rec.depsOf(e);
            const auto &need = required[e];
            // Every required ordering is recorded: as a memory edge,
            // or already implied by an identical data dep.
            for (uint32_t p : need)
                ASSERT_NE(std::find(deps.begin(), deps.end(), p),
                          deps.end())
                    << name << ": event " << e << " misses memory edge "
                    << "from " << p;
            // Every memory edge is required.
            for (uint32_t k = 0; k < deps.size(); ++k) {
                if (!rec.memEdge[rec.depStart[e] + k])
                    continue;
                ++mem_edges;
                ASSERT_NE(std::find(need.begin(), need.end(), deps[k]),
                          need.end())
                    << name << ": event " << e
                    << " has unrequired memory edge from " << deps[k];
            }
        }
    }
    EXPECT_GT(mem_edges, 0u);
}

// ------------------------------------------------- replay equivalence

TEST(CompiledDdg, ReplayBitIdenticalToColdSimulate)
{
    // A recorded-and-compiled index replays to exactly the cycles,
    // stats and trace rows of the one-call cold simulate().
    for (const std::string name :
         {"gemm", "saxpy", "fib", "spmv", "stencil"}) {
        Recorded r = record(name);
        sim::CompiledDdg cd = r.compile();

        ir::MemoryImage mem(*r.workload.module);
        r.workload.bind(mem);
        sim::SimOptions opts;
        opts.trace = true;
        sim::SimResult cold = sim::simulate(*r.accel, mem, {}, opts);

        std::vector<sim::TimingTraceRow> rows;
        sim::RunContext ctx;
        ctx.hooks.trace = &rows;
        sim::TimingResult replay = sim::scheduleDdg(cd, ctx);

        EXPECT_EQ(cold.cycles, replay.cycles) << name;
        EXPECT_EQ(cold.stats.toJson(), replay.stats.toJson()) << name;
        ASSERT_EQ(cold.trace.size(), rows.size()) << name;
        for (size_t i = 0; i < rows.size(); ++i) {
            ASSERT_EQ(cold.trace[i].event, rows[i].event)
                << name << " row " << i;
            ASSERT_EQ(cold.trace[i].node, rows[i].node)
                << name << " row " << i;
            ASSERT_EQ(cold.trace[i].invocation, rows[i].invocation)
                << name << " row " << i;
            ASSERT_EQ(cold.trace[i].ready, rows[i].ready)
                << name << " row " << i;
            ASSERT_EQ(cold.trace[i].start, rows[i].start)
                << name << " row " << i;
            ASSERT_EQ(cold.trace[i].finish, rows[i].finish)
                << name << " row " << i;
        }
    }
}

TEST(CompiledDdg, SimulateReuseMatchesFreshRun)
{
    // The µserve reuse shape end to end: one run keeps its compiled
    // index, later runs replay it without recording a new DDG.
    workloads::Workload w = workloads::buildWorkload("gemm");
    auto accel = workloads::lowerBaseline(w);

    workloads::RunOptions keep;
    keep.keepCompiled = true;
    workloads::RunResult first = workloads::runOn(w, *accel, keep);
    ASSERT_TRUE(first.compiled != nullptr);
    ASSERT_TRUE(first.check.empty()) << first.check;

    workloads::RunOptions reuse;
    reuse.compiled = first.compiled.get();
    workloads::RunResult replay = workloads::runOn(w, *accel, reuse);
    EXPECT_TRUE(replay.check.empty()) << replay.check;
    EXPECT_EQ(first.cycles, replay.cycles);
    EXPECT_EQ(first.firings, replay.firings);
    EXPECT_EQ(first.stats.toJson(), replay.stats.toJson());
}

// --------------------------------------- shared replay under threads

TEST(CompiledDdgParallel, SharedIndexReplayedFromEightWorkers)
{
    // One immutable CompiledDdg, eight concurrent RunContexts — the
    // exact shape µserve's worker pool runs. TSan covers this test in
    // CI; any hidden mutation in the "read-only" replay path surfaces
    // as a race here.
    Recorded r = record("gemm");
    sim::CompiledDdg cd = r.compile();
    sim::TimingResult serial = sim::scheduleDdg(cd);
    const std::string serial_stats = serial.stats.toJson();

    constexpr unsigned kWorkers = 8;
    constexpr unsigned kRepsPerWorker = 3;
    std::vector<uint64_t> cycles(kWorkers * kRepsPerWorker, 0);
    std::vector<std::string> stats(kWorkers * kRepsPerWorker);
    std::vector<std::thread> workers;
    workers.reserve(kWorkers);
    for (unsigned t = 0; t < kWorkers; ++t) {
        workers.emplace_back([&, t] {
            for (unsigned rep = 0; rep < kRepsPerWorker; ++rep) {
                sim::TimingResult run = sim::scheduleDdg(cd);
                cycles[t * kRepsPerWorker + rep] = run.cycles;
                stats[t * kRepsPerWorker + rep] = run.stats.toJson();
            }
        });
    }
    for (auto &worker : workers)
        worker.join();
    for (unsigned i = 0; i < kWorkers * kRepsPerWorker; ++i) {
        EXPECT_EQ(cycles[i], serial.cycles) << "replay " << i;
        EXPECT_EQ(stats[i], serial_stats) << "replay " << i;
    }
}

} // namespace muir
