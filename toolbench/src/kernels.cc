#include "kernels.hh"

#include <cstring>

#include "ir/builder.hh"
#include "ir/verifier.hh"
#include "support/rng.hh"
#include "support/strings.hh"

using namespace muir;
using namespace muir::ir;

namespace toolbench
{

namespace
{

/** Seeded floats in [lo, hi), drawn from SplitMix64. */
std::vector<float>
seededFloats(SplitMix64 &rng, size_t n, float lo, float hi)
{
    std::vector<float> out(n);
    for (auto &v : out)
        v = lo + (hi - lo) * float(rng.below(1u << 24)) / float(1u << 24);
    return out;
}

} // namespace

workloads::Workload
buildFirKernel(uint64_t seed)
{
    constexpr int kX = kFirOutputs + kFirTaps - 1;
    workloads::Workload w;
    w.name = "fir";
    w.suite = workloads::Suite::Polybench;
    w.usesFp = true;
    w.kernel = "fir";
    w.module = std::make_unique<Module>("fir");
    Module &m = *w.module;
    auto *gx = m.addGlobal("x", Type::f32(), kX);
    auto *gh = m.addGlobal("h", Type::f32(), kFirTaps);
    auto *gout = m.addGlobal("out", Type::f32(), kFirOutputs);
    Function *fn = m.addFunction("fir", Type::voidTy());
    IRBuilder b(m);
    b.setInsertPoint(fn->addBlock("entry"));
    ForLoop li(b, "i", b.i32(0), b.i32(kFirOutputs), b.i32(1));
    ForLoop lj(b, "j", b.i32(0), b.i32(kFirTaps), b.i32(1));
    Instruction *acc = lj.addCarried(b.f32(0.0), "acc");
    Value *hj = b.load(b.gep(gh, lj.iv()), "hj");
    Value *xij = b.load(b.gep(gx, b.add(li.iv(), lj.iv())), "xij");
    lj.setCarriedNext(acc, b.fadd(acc, b.fmul(hj, xij), "sum"));
    lj.finish();
    b.store(acc, b.gep(gout, li.iv()));
    li.finish();
    b.ret();
    verifyOrDie(m);

    SplitMix64 rng(seed ^ 0xF17F17F17ull);
    std::vector<float> x = seededFloats(rng, kX, -1.0f, 1.0f);
    std::vector<float> h = seededFloats(rng, kFirTaps, -0.5f, 0.5f);
    std::vector<float> out(kFirOutputs);
    for (int i = 0; i < kFirOutputs; ++i) {
        float sum = 0.0f;
        for (int j = 0; j < kFirTaps; ++j)
            sum = sum + h[j] * x[i + j];
        out[i] = sum;
    }
    w.floatInputs["x"] = std::move(x);
    w.floatInputs["h"] = std::move(h);
    w.floatExpected["out"] = std::move(out);
    return w;
}

workloads::Workload
buildAxpyKernel(uint64_t seed)
{
    constexpr int kN = kAxpySpawns * kAxpyBlock;
    workloads::Workload w;
    w.name = "paxpy";
    w.suite = workloads::Suite::Cilk;
    w.usesFp = true;
    w.usesSpawn = true;
    w.kernel = "paxpy";
    w.module = std::make_unique<Module>("paxpy");
    Module &m = *w.module;
    auto *gx = m.addGlobal("x", Type::f32(), kN);
    auto *gy = m.addGlobal("y", Type::f32(), kN);
    Function *fn = m.addFunction("paxpy", Type::voidTy());
    IRBuilder b(m);
    b.setInsertPoint(fn->addBlock("entry"));
    ForLoop lb(b, "blk", b.i32(0), b.i32(kAxpySpawns), b.i32(1),
               /*parallel=*/true);
    ForLoop le(b, "e", b.i32(0), b.i32(kAxpyBlock), b.i32(1));
    Value *idx =
        b.add(b.mul(lb.iv(), b.i32(kAxpyBlock)), le.iv(), "idx");
    Value *xi = b.load(b.gep(gx, idx), "xi");
    Value *yi = b.load(b.gep(gy, idx), "yi");
    b.store(b.fadd(b.fmul(b.f32(kAxpyA), xi), yi, "r"), b.gep(gy, idx));
    le.finish();
    lb.finish();
    b.ret();
    verifyOrDie(m);

    SplitMix64 rng(seed ^ 0xA8B7ull);
    std::vector<float> x = seededFloats(rng, kN, -2.0f, 2.0f);
    std::vector<float> y = seededFloats(rng, kN, -2.0f, 2.0f);
    std::vector<float> want(kN);
    for (int i = 0; i < kN; ++i)
        want[i] = kAxpyA * x[i] + y[i];
    w.floatInputs["x"] = std::move(x);
    w.floatInputs["y"] = std::move(y);
    w.floatExpected["y"] = std::move(want);
    return w;
}

std::string
checkExact(const workloads::Workload &w, const ir::MemoryImage &mem)
{
    for (const auto &[gname, want] : w.floatExpected) {
        std::vector<float> got = mem.readFloats(w.module->global(gname));
        for (size_t i = 0; i < want.size(); ++i) {
            if (std::memcmp(&got[i], &want[i], sizeof(float)) != 0)
                return fmt("%s: %s[%zu] = %.9g, reference %.9g",
                           w.name.c_str(), gname.c_str(), i, got[i],
                           want[i]);
        }
    }
    for (const auto &[gname, want] : w.intExpected) {
        std::vector<int32_t> got = mem.readInts(w.module->global(gname));
        for (size_t i = 0; i < want.size(); ++i) {
            if (got[i] != want[i])
                return fmt("%s: %s[%zu] = %d, reference %d",
                           w.name.c_str(), gname.c_str(), i, got[i],
                           want[i]);
        }
    }
    return "";
}

} // namespace toolbench
