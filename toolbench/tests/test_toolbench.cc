/**
 * @file
 * Tests of the benchmark's own checks: each one must be able to fail.
 * Run with `python3 toolbench/run.py --selftest`.
 */
#include <cstring>

#include <gtest/gtest.h>

#include "checks.hh"
#include "gate/bench_gate.hh"
#include "kernels.hh"
#include "sim/simulator.hh"
#include "workloads/driver.hh"

using namespace muir;
using namespace toolbench;

namespace
{

uint64_t
cyclesOf(const workloads::Workload &w, const uir::Accelerator &accel)
{
    workloads::RunResult run = workloads::runOn(w, accel);
    EXPECT_TRUE(run.check.empty()) << run.check;
    return run.cycles;
}

} // namespace

TEST(Toolbench, PerturbedDesignChangesCycles)
{
    // dse_sweep requires every design's cycles to repeat exactly; a
    // design slowed by the gate's perturbation must not.
    workloads::Workload w = workloads::buildWorkload("gemm");
    auto accel = workloads::lowerBaseline(w);
    uint64_t clean = cyclesOf(w, *accel);
    gate::Perturbation p;
    p.seed = 7;
    gate::perturbDesign(*accel, p, "gemm/baseline");
    EXPECT_NE(cyclesOf(w, *accel), clean);
}

TEST(Toolbench, CorruptedOutputFailsReferenceCheck)
{
    workloads::Workload w = buildFirKernel(3);
    auto accel = workloads::lowerBaseline(w);
    ir::MemoryImage mem(*w.module);
    w.bind(mem);
    sim::simulate(*accel, mem);
    EXPECT_EQ(checkExact(w, mem), "");

    const ir::GlobalArray *out = w.module->global("out");
    uint64_t word = mem.baseOf(out) + 4 * 1234;
    float v = mem.loadFloat(word);
    uint32_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    bits ^= 1; // one ulp: a tolerance-based compare would miss it
    std::memcpy(&v, &bits, sizeof bits);
    mem.storeFloat(word, v);
    EXPECT_NE(checkExact(w, mem), "");
}

TEST(Toolbench, DroppedDoubledOrStrayReplyFailsExactlyOnceCheck)
{
    auto sent = [] {
        InFlight in_flight;
        for (uint32_t tag = 1; tag <= 3; ++tag)
            in_flight[tag] = {tag, {}};
        return in_flight;
    };
    Pending p;

    InFlight ok = sent();
    for (uint32_t tag = 1; tag <= 3; ++tag) {
        EXPECT_EQ(takeReply(ok, tag, &p), "");
        EXPECT_EQ(p.cell, tag);
    }
    EXPECT_EQ(checkDrained(ok, {}), "");

    InFlight dropped = sent();
    EXPECT_EQ(takeReply(dropped, 1, &p), "");
    EXPECT_EQ(takeReply(dropped, 3, &p), "");
    EXPECT_NE(checkDrained(dropped, {}), "");

    // A doubled reply fails on arrival while requests are in flight,
    // and in the drain check once none are.
    InFlight doubled = sent();
    EXPECT_EQ(takeReply(doubled, 2, &p), "");
    EXPECT_NE(takeReply(doubled, 2, &p), "");
    EXPECT_EQ(takeReply(doubled, 1, &p), "");
    EXPECT_EQ(takeReply(doubled, 3, &p), "");
    EXPECT_NE(checkDrained(doubled, {3}), "");

    InFlight stray = sent();
    EXPECT_NE(takeReply(stray, 9, &p), "");
    for (uint32_t tag = 1; tag <= 3; ++tag)
        EXPECT_EQ(takeReply(stray, tag, &p), "");
    EXPECT_NE(checkDrained(stray, {9}), "");
}

TEST(Toolbench, SameSeedSameInputs)
{
    for (auto build : {buildFirKernel, buildAxpyKernel}) {
        workloads::Workload a = build(11), b = build(11), c = build(12);
        EXPECT_EQ(a.floatInputs, b.floatInputs) << a.name;
        EXPECT_EQ(a.floatExpected, b.floatExpected) << a.name;
        EXPECT_NE(a.floatInputs, c.floatInputs) << a.name;
    }
}

TEST(Toolbench, CampaignChecksCatchInconsistency)
{
    workloads::Workload w = workloads::buildWorkload("saxpy");
    auto accel = workloads::lowerBaseline(w);
    uint64_t direct = cyclesOf(w, *accel);
    auto campaign = [&](uint64_t seed) {
        sim::CampaignSpec spec;
        spec.runs = 16;
        spec.seed = seed;
        spec.jobs = 1;
        return sim::runCampaign(
            *accel, *w.module, [&w](ir::MemoryImage &m) { w.bind(m); },
            spec);
    };
    sim::CampaignResult a = campaign(5), b = campaign(5), c = campaign(6);
    EXPECT_EQ(checkCampaign(a, 16, direct), "");
    EXPECT_EQ(sameCampaign(a, b), "");
    EXPECT_NE(sameCampaign(a, c), "");
    EXPECT_NE(checkCampaign(a, 16, direct + 1), "");
    sim::CampaignResult skewed = a;
    ++skewed.histogram[0];
    EXPECT_NE(checkCampaign(skewed, 16, direct), "");
}
