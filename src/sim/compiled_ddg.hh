/**
 * @file
 * The dynamic dependence graph (DDG): the record of one functional
 * execution of a μIR accelerator, in the one flat form both the
 * recorder and the timing replay use.
 *
 * The functional executor (sim/exec.hh) appends every dynamic node
 * firing straight into the struct-of-arrays columns below: the deps
 * CSR in recording order with a memory-ordering flag per edge, the
 * dense node id, invocation, address, words, flags and queue dep of
 * each event, and the invocation table. compileDdg then derives, in
 * one pass over the record, everything the scheduler's hot loop would
 * otherwise look up per event:
 *
 *  - the dependents CSR (the reverse adjacency), built once instead
 *    of on every replay;
 *  - dense task / structure ids, the round-robin tile, the
 *    in-order-initiation slot, the junction and bank port-file
 *    ranges, the bank index derived from the address, and the static
 *    latency / initiation interval of the fired node.
 *
 * Invariant: every dependency references an earlier event id, so a
 * single linear pass in id order is a valid topological schedule.
 *
 * A compiled CompiledDdg is strictly read-only, so any number of
 * concurrent replays may share one instance — the same
 * const-correctness contract the shared `uir::Accelerator` follows
 * (sim/run_context.hh). μserve caches one per design and replays it
 * from every worker. It borrows the Accelerator (node / structure
 * pointers are kept for the trace and profile hooks), which must
 * outlive it; it owns everything else, so hang diagnosis, μprof and
 * μscope read it directly.
 */
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "uir/accelerator.hh"

namespace muir::sim
{

/** Sentinel for "no event" in 64-bit event-id fields. */
inline constexpr uint64_t kNoEvent = ~uint64_t(0);
/** Sentinel for "no entry" in the 32-bit id arrays. */
inline constexpr uint32_t kNoId32 = ~uint32_t(0);
/** Sentinel for "no entry" in the 16-bit id arrays. */
inline constexpr uint16_t kNoId16 = uint16_t(0xFFFF);

/** CompiledDdg::flags bits. */
enum : uint8_t
{
    kEvLoad = 1u << 0,
    kEvStore = 1u << 1,
    /** First event of its invocation. */
    kEvEntry = 1u << 2,
    /** Synthetic completion or carried-value latch (no node). */
    kEvCompletion = 1u << 3,
    /** Multi-word access straddles a cache line (second tag probe). */
    kEvStraddle = 1u << 4,
};

/** One dynamic task invocation. */
struct Invocation
{
    const uir::Task *task = nullptr;
    /** Invocation sequence number within the task (for tile RR). */
    uint32_t seqInTask = 0;
    /** First event of the invocation (gated by queue backpressure);
     *  kNoId32 when it fired nothing but its completion. */
    uint32_t entryEvent = kNoId32;
};

/** One hardware structure with its scheduling geometry denormalized. */
struct CompiledStruct
{
    /** Live pointer for the µprof hooks (EventCost::structure). */
    const uir::Structure *s = nullptr;
    bool isCache = false;
    unsigned lineBytes = 0;
    unsigned latency = 0;
    unsigned missLatency = 0;
    unsigned portsPerBank = 1;
    unsigned sizeKb = 0;
    unsigned ways = 0;
    /** DRAM refill occupancy per miss: lineBytes / DRAM bytes/cycle. */
    uint64_t missXfer = 0;
    /** First bank-port slot of this structure in the port file. */
    uint32_t portBase = 0;
};

/** One task with its per-run stat prefix prebuilt. */
struct CompiledTask
{
    const uir::Task *task = nullptr;
    /** "task.<name>." — so the replay never rebuilds it per event. */
    std::string statPrefix;
    unsigned tiles = 1;
};

/**
 * The struct-of-arrays DDG. All per-event arrays have numEvents
 * entries; fields that only apply to a subset of events (memory ops,
 * completions) hold sentinels elsewhere. The recorded columns are
 * filled by the executor; the derived ones by compileDdg.
 */
struct CompiledDdg
{
    /** @name Recorded: CSR deps @{ */
    /** deps of event e: deps[depStart[e] .. depStart[e+1]), in the
     *  original recording order. */
    std::vector<uint32_t> depStart;
    std::vector<uint32_t> deps;
    /** memEdge[k]: deps[k] exists only to order conflicting memory
     *  accesses (RAW/WAW/WAR). The conflict observer computes
     *  happens-before over the other edges — two overlapping accesses
     *  ordered by nothing but a memory edge are a dynamic race. */
    std::vector<bool> memEdge;
    /** @} */

    /** @name Recorded: per-event attributes @{ */
    std::vector<uint64_t> addr;
    /** Dense node id (index into nodes); kNoId32 for completions. */
    std::vector<uint32_t> nodeOf;
    std::vector<uint32_t> invocation;
    /**
     * When dispatch stalled on a full task queue, the dep (also in
     * deps) that frees the queue slot — the completion of invocation
     * seq - queueDepth·tiles; kNoId32 otherwise. μprof uses it to
     * attribute "queue full" wait cycles apart from operand waits.
     */
    std::vector<uint32_t> queueDep;
    std::vector<uint16_t> words;
    std::vector<uint8_t> flags;
    /** @} */

    /** @name Derived by compileDdg: dependents CSR @{ */
    /** dependents of event e: dependents[depdStart[e] ..
     *  depdStart[e+1]), ascending by consumer id. */
    std::vector<uint32_t> depdStart;
    std::vector<uint32_t> dependents;
    /** @} */

    /** @name Derived by compileDdg: per-event scheduling geometry @{ */
    /** In-order-initiation slot: index into the per-run node-free
     *  file (node base + tile); kNoId32 for completions. */
    std::vector<uint32_t> initSlot;
    /** Static node latency (memory access cost is added at replay). */
    std::vector<uint32_t> latency;
    std::vector<uint32_t> initInterval;
    /** Junction port-file range for this access's direction (read
     *  ports for loads, write ports for stores). */
    std::vector<uint32_t> junctionPortBase;
    std::vector<uint16_t> junctionPorts;
    /** Bank port-file base: structure base + bank index x ports. */
    std::vector<uint32_t> bankPortBase;
    /** Port beats the access occupies (words over the wide width). */
    std::vector<uint32_t> beats;
    /** Dense task id of the fired node; kNoId16 for completions. */
    std::vector<uint16_t> taskOf;
    /** Dense structure id of the access; kNoId16 for non-memory. */
    std::vector<uint16_t> structOf;
    /** @} */

    /** @name Design tables @{ */
    /** Recorded: dense node id -> live node (trace rows, µprof). */
    std::vector<const uir::Node *> nodes;
    /** Recorded: one entry per dynamic task invocation. */
    std::vector<Invocation> invocations;
    std::vector<CompiledTask> tasks;
    std::vector<CompiledStruct> structs;
    /** @} */

    uint32_t numEvents = 0;
    /** Size of the per-run in-order-initiation free file. */
    uint32_t initSlots = 0;
    /** Size of the per-run port free file (junctions + banks). */
    uint32_t portSlots = 0;

    /** Design this graph was recorded on (identity-checked by the
     *  reuse paths). */
    const uir::Accelerator *design = nullptr;

    /** The deps of event @p e, in recording order. */
    std::span<const uint32_t>
    depsOf(uint32_t e) const
    {
        return {deps.data() + depStart[e], deps.data() + depStart[e + 1]};
    }

    /** Static node of event @p e; nullptr for completions/latches. */
    const uir::Node *
    node(uint32_t e) const
    {
        return nodeOf[e] == kNoId32 ? nullptr : nodes[nodeOf[e]];
    }

    /** Round-robin tile of node event @p e: invocation seq mod task
     *  tiles (folded into initSlot for the replay itself). */
    uint32_t
    tileOf(uint32_t e) const
    {
        return invocations[invocation[e]].seqInTask %
               tasks[taskOf[e]].tiles;
    }

    /** Task whose invocation event @p e belongs to. */
    const uir::Task *
    taskOfEvent(uint32_t e) const
    {
        return invocations[invocation[e]].task;
    }

    /** Drop the recorder's growth slack (for indexes kept for reuse:
     *  their footprint is what bytes() reports). */
    void shrinkToFit();

    /** Total heap bytes behind the flat arrays (layout accounting). */
    size_t bytes() const;
};

/**
 * Derive the replay columns of a finished record (see the file
 * comment) and return it. The recorded columns move into place
 * untouched. Asserts the invariant that every dependency references
 * an earlier event. The result borrows record.design.
 */
CompiledDdg compileDdg(CompiledDdg record);

} // namespace muir::sim
