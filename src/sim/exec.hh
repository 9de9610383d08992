/**
 * @file
 * Functional execution of a μIR accelerator graph.
 *
 * Executes the graph with serial-elision semantics, computing real
 * values against a MemoryImage (validating that μopt transformations
 * preserve behaviour) while recording the dynamic dependence graph the
 * timing scheduler replays: data edges, loop-carried edges, spawn and
 * sync edges, and per-word memory RAW/WAW/WAR edges. Events are
 * appended straight into the columns of a CompiledDdg
 * (sim/compiled_ddg.hh); compileDdg finishes the record for replay.
 */
#pragma once

#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ir/interp.hh"
#include "sim/compiled_ddg.hh"

namespace muir::sim
{

class FaultInjector; // sim/fault.hh

/** Executes one accelerator over one memory image. */
class UirExecutor
{
  public:
    /**
     * @param accel The (possibly transformed) accelerator graph.
     * @param mem   The memory image holding global arrays; mutated.
     * @param record_ddg Disable to run function-only (faster).
     */
    UirExecutor(const uir::Accelerator &accel, ir::MemoryImage &mem,
                bool record_ddg = true);

    /** Run the root task to completion; returns its live-out values. */
    std::vector<ir::RuntimeValue>
    run(const std::vector<ir::RuntimeValue> &args = {});

    /** The record so far: the recorded columns of a CompiledDdg, not
     *  yet compiled (the derived columns are empty). */
    const CompiledDdg &record() const { return rec_; }

    /** Move the record out for compileDdg. The executor's record is
     *  empty afterwards. */
    CompiledDdg takeRecord() { return std::exchange(rec_, {}); }

    /** Dynamic node firings executed. */
    uint64_t firings() const { return firings_; }

    /**
     * Attach a μfit injector (sim/fault.hh). With nullptr (default)
     * execution is bit-identical to today; with an injector attached,
     * datapath values may be corrupted and runaway/trap guards become
     * recoverable FaultAbort exceptions instead of process aborts.
     */
    void setInjector(FaultInjector *inj) { inj_ = inj; }

  private:
    struct InvocationResult
    {
        std::vector<ir::RuntimeValue> liveOutValues;
        /** Synthetic completion event (covers the whole subtree). */
        uint64_t completionEvent = kNoEvent;
        /** Spawn completions awaiting a sync in the parent. */
        std::vector<uint64_t> outstanding;
    };

    /** Per-task state, built on first invocation. */
    struct TaskState
    {
        /** Cached topological order. */
        std::vector<uir::Node *> order;
        /** Largest node id + 1 (per-invocation slot tables). */
        unsigned numIds = 0;
        /** Node id -> dense node id of the record (recording only). */
        std::vector<uint32_t> denseId;
        /** Sequence number of the next invocation (recording only). */
        uint32_t nextSeq = 0;
        /** Completion event per invocation seq — used to add
         *  task-queue backpressure edges on dispatch. */
        std::vector<uint64_t> completions;
        /** Final LoopControl event per loop-task invocation seq —
         *  used to add per-tile loop-control occupancy edges. */
        std::vector<uint64_t> loopExits;
    };

    /** Per-invocation evaluation state. */
    struct Ctx
    {
        const uir::Task *task = nullptr;
        TaskState *state = nullptr;
        uint32_t inv = 0;
        /** Values per node id per output port. */
        std::vector<std::vector<ir::RuntimeValue>> vals;
        /** Event per node id (kNoEvent until fired). */
        std::vector<uint64_t> evs;
        /** Events a completion must wait for (stores, children, ...). */
        std::vector<uint64_t> tail;
        std::vector<uint64_t> outstanding;
        /**
         * Per-iteration carried-value latch events (one per carried
         * value of the loop control). Kept separate from the control
         * event so consumers of the induction variable do not
         * serialize behind the carried-value recurrence — only the
         * true acc -> acc chain does (§3.5 loop-carried buffering).
         */
        std::vector<uint64_t> lcCarried;
    };

    InvocationResult invoke(const uir::Task &task,
                            const std::vector<ir::RuntimeValue> &args,
                            uint64_t dispatch_event);

    void evalNode(Ctx &ctx, const uir::Node &node);
    void evalBody(Ctx &ctx, const std::vector<uir::Node *> &order);

    ir::RuntimeValue valueOf(Ctx &ctx, const uir::Node::PortRef &ref);
    uint64_t eventOf(Ctx &ctx, const uir::Node::PortRef &ref);
    bool guardOn(Ctx &ctx, const uir::Node &node);

    TaskState &stateOf(const uir::Task &task);

    /** @name Recording (record_ only) @{
     * The open event is always the next id, rec_.numEvents: its deps
     * are appended to rec_.deps and closeEvent seals it. */
    /** Append a dep of the open event (kNoEvent is dropped). */
    void addDep(uint64_t d, bool mem = false);
    /** As addDep, but a producer already on the open event is
     *  dropped: first occurrence wins, in O(1) per call. */
    void addUniqueDep(uint64_t d, bool mem = false);
    /** Seal the open event; @p node nullptr marks a completion. */
    uint64_t closeEvent(const Ctx &ctx, const uir::Node *node,
                        uint8_t flags = 0, uint64_t addr = 0,
                        unsigned words = 0,
                        uint64_t queue_dep = kNoEvent);
    /** Note load @p id as a reader of @p word since its last store. */
    void addReader(uint64_t word, uint32_t id);
    /** Record a node firing whose deps are staged in deps_,
     *  deduplicated. */
    uint64_t emit(Ctx &ctx, const uir::Node *node);
    /** Stage the input and guard events of @p node in deps_. */
    void stageInputs(Ctx &ctx, const uir::Node &node);
    /** @} */

    static ir::RuntimeValue zeroOf(const ir::Type &type);

    const uir::Accelerator &accel_;
    ir::MemoryImage &mem_;
    FaultInjector *inj_ = nullptr;
    bool record_;
    CompiledDdg rec_;
    uint64_t firings_ = 0;
    unsigned depth_ = 0;
    std::unordered_map<const uir::Task *, TaskState> tasks_;
    /** Staged deps of the node being evaluated (consumed before any
     *  nested invocation starts). */
    std::vector<uint64_t> deps_;
    /** seen_[p] == id of the open event once p is among its deps. */
    std::vector<uint32_t> seen_;
    /** @name Per-word (4-byte) memory dependence shadow state @{ */
    /** Last store to each word; kNoId32 if none. */
    std::vector<uint32_t> lastStore_;
    /** Loads of each word since its last store, in record order, as a
     *  list through readers_: head/tail index per word. */
    std::vector<uint32_t> readHead_, readTail_;
    struct Reader
    {
        uint32_t event;
        uint32_t next;
    };
    std::vector<Reader> readers_;
    /** @} */
};

} // namespace muir::sim
