#include "sim/compiled_ddg.hh"

#include <algorithm>
#include <chrono>
#include <unordered_map>

#include "support/logging.hh"
#include "support/metrics.hh"
#include "uir/delay_model.hh"

namespace muir::sim
{

namespace
{

void
compileImpl(CompiledDdg &cd)
{
    const uir::Accelerator &accel = *cd.design;
    const uint32_t n = cd.numEvents;
    muir_assert(cd.depStart.size() == size_t(n) + 1 &&
                    cd.flags.size() == n &&
                    cd.memEdge.size() == cd.deps.size(),
                "compileDdg: ragged record (%u events)", n);

    // ---- design tables: dense task / structure ids -----------------
    std::unordered_map<const uir::Task *, uint16_t> taskIds;
    std::vector<uint32_t> taskJunctionBase;
    std::vector<uint16_t> taskReadPorts, taskWritePorts;
    uint32_t port_cursor = 0;
    for (const auto &task : accel.tasks()) {
        muir_assert(cd.tasks.size() < kNoId16,
                    "compileDdg: task id space exhausted");
        taskIds.emplace(task.get(),
                        static_cast<uint16_t>(cd.tasks.size()));
        CompiledTask ct;
        ct.task = task.get();
        ct.statPrefix = "task." + task->name() + ".";
        ct.tiles = std::max(1u, task->numTiles());
        unsigned r = std::max(1u, task->junctionReadPorts());
        unsigned w = std::max(1u, task->junctionWritePorts());
        taskJunctionBase.push_back(port_cursor);
        taskReadPorts.push_back(static_cast<uint16_t>(r));
        taskWritePorts.push_back(static_cast<uint16_t>(w));
        port_cursor += ct.tiles * (r + w);
        cd.tasks.push_back(std::move(ct));
    }

    // Per dense node id (the recorder's numbering): task, initiation
    // slot base, static latency and II.
    std::vector<uint32_t> nodeSlotBase, nodeLat, nodeIi;
    std::vector<uint16_t> nodeTask;
    uint32_t slot_cursor = 0;
    for (const uir::Node *node : cd.nodes) {
        uint16_t tid = taskIds.at(node->parent());
        nodeSlotBase.push_back(slot_cursor);
        nodeLat.push_back(uir::nodeLatency(*node));
        nodeIi.push_back(uir::nodeInitiationInterval(*node));
        nodeTask.push_back(tid);
        slot_cursor += cd.tasks[tid].tiles;
    }
    cd.initSlots = slot_cursor;

    const uir::Structure *dram = nullptr;
    for (const auto &s : accel.structures())
        if (s->kind() == uir::StructureKind::Dram)
            dram = s.get();
    std::unordered_map<const uir::Structure *, uint16_t> structIds;
    for (const auto &s : accel.structures()) {
        muir_assert(cd.structs.size() < kNoId16,
                    "compileDdg: structure id space exhausted");
        structIds.emplace(s.get(),
                          static_cast<uint16_t>(cd.structs.size()));
        CompiledStruct cs;
        cs.s = s.get();
        cs.isCache = s->kind() == uir::StructureKind::Cache;
        cs.lineBytes = s->lineBytes();
        cs.latency = s->latency();
        cs.missLatency = s->missLatency();
        cs.portsPerBank = s->portsPerBank();
        cs.sizeKb = s->sizeKb();
        cs.ways = s->ways();
        double bpc = dram ? dram->bytesPerCycle() : s->bytesPerCycle();
        cs.missXfer = static_cast<uint64_t>(s->lineBytes() /
                                            std::max(1.0, bpc));
        cs.portBase = port_cursor;
        port_cursor += s->banks() * s->portsPerBank();
        cd.structs.push_back(cs);
    }
    cd.portSlots = port_cursor;

    // Memory-space resolution memo (structureForSpace walks the
    // structure list; spaces repeat across thousands of events).
    std::unordered_map<unsigned, uint16_t> spaceIds;
    auto structForSpace = [&](unsigned space) -> uint16_t {
        auto it = spaceIds.find(space);
        if (it == spaceIds.end())
            it = spaceIds
                     .emplace(space, structIds.at(
                                         accel.structureForSpace(space)))
                     .first;
        return it->second;
    };

    // ---- per-event scheduling geometry -----------------------------
    cd.initSlot.resize(n);
    cd.latency.resize(n);
    cd.initInterval.resize(n);
    cd.junctionPortBase.resize(n);
    cd.junctionPorts.resize(n);
    cd.bankPortBase.resize(n);
    cd.beats.resize(n);
    cd.taskOf.resize(n);
    cd.structOf.resize(n);

    for (uint32_t id = 0; id < n; ++id) {
        uint8_t &fl = cd.flags[id];
        if (fl & kEvCompletion) {
            cd.initSlot[id] = kNoId32;
            cd.taskOf[id] = kNoId16;
            cd.structOf[id] = kNoId16;
            continue;
        }

        uint32_t nid = cd.nodeOf[id];
        uint16_t tid = nodeTask[nid];
        unsigned tiles = cd.tasks[tid].tiles;
        uint32_t tile =
            cd.invocations[cd.invocation[id]].seqInTask % tiles;
        cd.taskOf[id] = tid;
        cd.initSlot[id] = nodeSlotBase[nid] + tile;
        cd.latency[id] = nodeLat[nid];
        cd.initInterval[id] = nodeIi[nid];

        if (!(fl & (kEvLoad | kEvStore))) {
            cd.structOf[id] = kNoId16;
            continue;
        }
        bool load = fl & kEvLoad;
        unsigned r = taskReadPorts[tid];
        unsigned w = taskWritePorts[tid];
        uint32_t jbase = taskJunctionBase[tid] + tile * (r + w);
        cd.junctionPortBase[id] = load ? jbase : jbase + r;
        cd.junctionPorts[id] = static_cast<uint16_t>(load ? r : w);

        uint16_t sid = structForSpace(cd.nodes[nid]->memSpace());
        const CompiledStruct &cs = cd.structs[sid];
        const uir::Structure *s = cs.s;
        uint64_t addr = cd.addr[id];
        unsigned words = cd.words[id];
        unsigned wide = std::max(1u, s->wideWords());
        unsigned bank_idx;
        if (cs.isCache)
            bank_idx =
                static_cast<unsigned>((addr / cs.lineBytes) % s->banks());
        else
            bank_idx =
                static_cast<unsigned>((addr / 4 / wide) % s->banks());
        cd.structOf[id] = sid;
        cd.beats[id] = (std::max(1u, words) + wide - 1) / wide;
        cd.bankPortBase[id] = cs.portBase + bank_idx * cs.portsPerBank;
        if (cs.isCache && words > 1 &&
            (addr / cs.lineBytes) !=
                ((addr + words * 4 - 1) / cs.lineBytes))
            fl |= kEvStraddle;
    }

    // ---- dependents CSR (consumer ids ascending per producer) ------
    const uint32_t num_deps = cd.depStart[n];
    cd.depdStart.assign(n + 1, 0);
    for (uint32_t id = 0; id < n; ++id)
        for (uint32_t k = cd.depStart[id]; k < cd.depStart[id + 1]; ++k) {
            muir_assert(cd.deps[k] < id,
                        "DDG dep not earlier than event");
            ++cd.depdStart[cd.deps[k] + 1];
        }
    for (uint32_t i = 1; i <= n; ++i)
        cd.depdStart[i] += cd.depdStart[i - 1];
    cd.dependents.resize(num_deps);
    std::vector<uint32_t> cursor(cd.depdStart.begin(),
                                 cd.depdStart.end() - 1);
    for (uint32_t id = 0; id < n; ++id)
        for (uint32_t k = cd.depStart[id]; k < cd.depStart[id + 1]; ++k)
            cd.dependents[cursor[cd.deps[k]]++] = id;
}

template <typename T>
size_t
vecBytes(const std::vector<T> &v)
{
    return v.capacity() * sizeof(T);
}

} // namespace

CompiledDdg
compileDdg(CompiledDdg record)
{
    muir_assert(record.design != nullptr, "compileDdg: no design");
    // Self-metered like scheduleDdg: no sink installed means no clock
    // reads and zero registry traffic.
    metrics::Registry *meter = metrics::sink();
    if (!meter) {
        compileImpl(record);
        return record;
    }
    auto t0 = std::chrono::steady_clock::now();
    compileImpl(record);
    std::chrono::duration<double, std::milli> wall =
        std::chrono::steady_clock::now() - t0;
    meter->timerAdd("sim.compile_ddg", wall.count());
    return record;
}

void
CompiledDdg::shrinkToFit()
{
    depStart.shrink_to_fit();
    deps.shrink_to_fit();
    memEdge.shrink_to_fit();
    addr.shrink_to_fit();
    nodeOf.shrink_to_fit();
    invocation.shrink_to_fit();
    queueDep.shrink_to_fit();
    words.shrink_to_fit();
    flags.shrink_to_fit();
    invocations.shrink_to_fit();
}

size_t
CompiledDdg::bytes() const
{
    size_t total = vecBytes(depStart) + vecBytes(deps) +
                   memEdge.capacity() / 8 + vecBytes(depdStart) +
                   vecBytes(dependents) + vecBytes(addr) +
                   vecBytes(nodeOf) + vecBytes(invocation) +
                   vecBytes(queueDep) + vecBytes(initSlot) +
                   vecBytes(latency) + vecBytes(initInterval) +
                   vecBytes(junctionPortBase) +
                   vecBytes(junctionPorts) + vecBytes(bankPortBase) +
                   vecBytes(beats) + vecBytes(words) + vecBytes(taskOf) +
                   vecBytes(structOf) + vecBytes(flags) +
                   vecBytes(structs) + vecBytes(nodes) +
                   vecBytes(invocations);
    total += tasks.capacity() * sizeof(CompiledTask);
    for (const auto &t : tasks)
        total += t.statPrefix.capacity();
    return total;
}

} // namespace muir::sim
