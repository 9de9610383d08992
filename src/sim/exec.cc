#include "sim/exec.hh"

#include <algorithm>

#include "ir/op_eval.hh"
#include "sim/fault.hh"
#include "support/logging.hh"

namespace muir::sim
{

using ir::RuntimeValue;
using uir::Node;
using uir::NodeKind;
using uir::Task;

UirExecutor::UirExecutor(const uir::Accelerator &accel,
                         ir::MemoryImage &mem, bool record_ddg)
    : accel_(accel), mem_(mem), record_(record_ddg)
{
    if (!record_)
        return;
    rec_.design = &accel;
    rec_.depStart.push_back(0);
    size_t words = (mem.sizeBytes() + 3) / 4;
    lastStore_.assign(words, kNoId32);
    readHead_.assign(words, kNoId32);
    readTail_.assign(words, kNoId32);
}

UirExecutor::TaskState &
UirExecutor::stateOf(const Task &task)
{
    auto [it, fresh] = tasks_.try_emplace(&task);
    TaskState &st = it->second;
    if (!fresh)
        return st;
    st.order = task.executionOrder();
    for (const auto &n : task.nodes())
        st.numIds = std::max(st.numIds, n->id() + 1);
    if (record_) {
        st.denseId.assign(st.numIds, kNoId32);
        for (const auto &n : task.nodes()) {
            st.denseId[n->id()] =
                static_cast<uint32_t>(rec_.nodes.size());
            rec_.nodes.push_back(n.get());
        }
    }
    return st;
}

RuntimeValue
UirExecutor::zeroOf(const ir::Type &type)
{
    switch (type.kind()) {
      case ir::Type::Kind::Float:
        return RuntimeValue::makeFloat(0.0);
      case ir::Type::Kind::Ptr:
        return RuntimeValue::makePtr(0);
      case ir::Type::Kind::Tensor:
        return RuntimeValue::makeTensor(
            type.rows(), type.cols(),
            std::vector<float>(type.tensorElems(), 0.0f));
      default:
        return RuntimeValue::makeInt(0);
    }
}

RuntimeValue
UirExecutor::valueOf(Ctx &ctx, const Node::PortRef &ref)
{
    const auto &slots = ctx.vals.at(ref.node->id());
    muir_assert(ref.out < slots.size(),
                "value of %s output %u not computed",
                ref.node->name().c_str(), ref.out);
    return slots[ref.out];
}

uint64_t
UirExecutor::eventOf(Ctx &ctx, const Node::PortRef &ref)
{
    // Carried outputs of the loop control have their own per-iteration
    // latch events (see invoke()'s loop driver).
    if (ref.node->kind() == NodeKind::LoopControl && ref.out > 0 &&
        ref.out - 1 < ctx.lcCarried.size())
        return ctx.lcCarried[ref.out - 1];
    return ctx.evs.at(ref.node->id());
}

bool
UirExecutor::guardOn(Ctx &ctx, const Node &node)
{
    if (!node.guard().valid())
        return true;
    return valueOf(ctx, node.guard()).asInt() != 0;
}

void
UirExecutor::addDep(uint64_t d, bool mem)
{
    if (d == kNoEvent)
        return;
    rec_.deps.push_back(static_cast<uint32_t>(d));
    rec_.memEdge.push_back(mem);
    seen_[d] = rec_.numEvents;
}

void
UirExecutor::addUniqueDep(uint64_t d, bool mem)
{
    if (d != kNoEvent && seen_[d] != rec_.numEvents)
        addDep(d, mem);
}

uint64_t
UirExecutor::closeEvent(const Ctx &ctx, const Node *node, uint8_t flags,
                        uint64_t addr, unsigned words, uint64_t queue_dep)
{
    const uint32_t id = rec_.numEvents;
    muir_assert(id + 1 < kNoId32 && rec_.deps.size() < kNoId32,
                "DDG: %u events exceed the 32-bit id space", id);
    uint32_t dense = kNoId32;
    if (node) {
        Invocation &inv = rec_.invocations[ctx.inv];
        if (inv.entryEvent == kNoId32) {
            inv.entryEvent = id;
            flags |= kEvEntry;
        }
        dense = ctx.state->denseId[node->id()];
    } else {
        flags |= kEvCompletion;
    }
    rec_.nodeOf.push_back(dense);
    rec_.invocation.push_back(ctx.inv);
    rec_.addr.push_back(addr);
    rec_.words.push_back(static_cast<uint16_t>(words));
    rec_.flags.push_back(flags);
    rec_.queueDep.push_back(queue_dep == kNoEvent
                                ? kNoId32
                                : static_cast<uint32_t>(queue_dep));
    rec_.depStart.push_back(static_cast<uint32_t>(rec_.deps.size()));
    seen_.push_back(kNoId32);
    ++rec_.numEvents;
    return id;
}

void
UirExecutor::addReader(uint64_t word, uint32_t id)
{
    uint32_t r = static_cast<uint32_t>(readers_.size());
    readers_.push_back({id, kNoId32});
    if (readHead_[word] == kNoId32)
        readHead_[word] = r;
    else
        readers_[readTail_[word]].next = r;
    readTail_[word] = r;
}

uint64_t
UirExecutor::emit(Ctx &ctx, const Node *node)
{
    if (!record_)
        return kNoEvent;
    for (uint64_t d : deps_)
        addUniqueDep(d);
    deps_.clear();
    return closeEvent(ctx, node);
}

void
UirExecutor::stageInputs(Ctx &ctx, const Node &node)
{
    deps_.clear();
    for (const auto &ref : node.inputs())
        deps_.push_back(eventOf(ctx, ref));
    if (node.guard().valid())
        deps_.push_back(eventOf(ctx, node.guard()));
}

std::vector<RuntimeValue>
UirExecutor::run(const std::vector<RuntimeValue> &args)
{
    InvocationResult result = invoke(*accel_.root(), args, kNoEvent);
    return result.liveOutValues;
}

UirExecutor::InvocationResult
UirExecutor::invoke(const Task &task, const std::vector<RuntimeValue> &args,
                    uint64_t dispatch_event)
{
    if (inj_)
        inj_->checkDepth(depth_);
    muir_assert(++depth_ < 256, "task invocation depth exceeded");
    muir_assert(args.size() == task.liveIns().size(),
                "task %s: %zu args for %zu live-ins", task.name().c_str(),
                args.size(), task.liveIns().size());

    TaskState &st = stateOf(task);
    Ctx ctx;
    ctx.task = &task;
    ctx.state = &st;
    uint32_t my_seq = 0;
    if (record_) {
        my_seq = st.nextSeq++;
        ctx.inv = static_cast<uint32_t>(rec_.invocations.size());
        rec_.invocations.push_back({&task, my_seq, kNoId32});
    }
    ctx.vals.assign(st.numIds, {});
    ctx.evs.assign(st.numIds, kNoEvent);

    const auto &order = st.order;

    // Interface and constant nodes evaluate once per invocation.
    for (const Node *n : order) {
        switch (n->kind()) {
          case NodeKind::LiveIn:
            ctx.vals[n->id()] = {args[n->liveIndex()]};
            if (record_) {
                addDep(dispatch_event);
                ctx.evs[n->id()] = closeEvent(ctx, n);
            }
            ++firings_;
            break;
          case NodeKind::ConstNode:
            ctx.vals[n->id()] = {n->constIsFloat()
                                     ? RuntimeValue::makeFloat(n->constFp())
                                     : RuntimeValue::makeInt(n->constInt())};
            break;
          case NodeKind::GlobalAddr:
            ctx.vals[n->id()] = {
                RuntimeValue::makePtr(mem_.baseOf(n->global()))};
            break;
          default:
            break;
        }
    }
    if (Node *lc = task.loopControl()) {
        // ---- Loop task: run iterations (§3.5). ----
        unsigned carried = lc->numCarried();
        int64_t iv = valueOf(ctx, lc->input(0)).asInt();
        int64_t end = valueOf(ctx, lc->input(1)).asInt();
        int64_t step = valueOf(ctx, lc->input(2)).asInt();
        if (inj_)
            inj_->checkLoopStep(step, task.name());
        muir_assert(step > 0, "loop %s: non-positive step",
                    task.name().c_str());

        std::vector<RuntimeValue> carried_vals;
        // Events producing the carried value consumed next iteration:
        // the init producers initially, then the body's next-values.
        std::vector<uint64_t> carried_srcs;
        std::vector<uint64_t> seed_deps{dispatch_event,
                                        eventOf(ctx, lc->input(0)),
                                        eventOf(ctx, lc->input(1)),
                                        eventOf(ctx, lc->input(2))};
        for (unsigned k = 0; k < carried; ++k) {
            carried_vals.push_back(valueOf(ctx, lc->input(3 + k)));
            carried_srcs.push_back(eventOf(ctx, lc->input(3 + k)));
        }

        // Per-tile loop-control occupancy: the tile's φ/iv register set
        // holds one loop instance, so invocation s must wait for
        // invocation s - numTiles to hand off its loop control (at its
        // last iteration issue).
        uint64_t prev_lc_event = kNoEvent;
        if (record_) {
            unsigned tiles = std::max(1u, task.numTiles());
            if (my_seq >= tiles)
                seed_deps.push_back(st.loopExits.at(my_seq - tiles));
        }
        uint64_t last_iter_lc = kNoEvent;
        while (iv < end) {
            // LoopControl fires: iv advances along the control-only
            // recurrence (prev control event), NOT the carried chain.
            uint64_t lc_event = kNoEvent;
            if (record_) {
                for (uint64_t d : seed_deps)
                    addUniqueDep(d);
                addUniqueDep(prev_lc_event);
                lc_event = closeEvent(ctx, lc);
            }
            ++firings_;
            if (inj_)
                inj_->checkFirings(firings_);
            seed_deps.clear();

            // Carried-value latches: value k becomes available when
            // the control fires AND its previous producer finished.
            ctx.lcCarried.assign(carried, kNoEvent);
            // Latches are completion-like: a pure register, 0 latency.
            for (unsigned k = 0; record_ && k < carried; ++k) {
                addDep(lc_event);
                if (carried_srcs[k] != lc_event)
                    addDep(carried_srcs[k]);
                ctx.lcCarried[k] = closeEvent(ctx, nullptr);
            }

            std::vector<RuntimeValue> lc_outs;
            lc_outs.push_back(RuntimeValue::makeInt(iv));
            for (unsigned k = 0; k < carried; ++k)
                lc_outs.push_back(carried_vals[k]);
            ctx.vals[lc->id()] = std::move(lc_outs);
            ctx.evs[lc->id()] = lc_event;

            evalBody(ctx, order);

            // Read back the carried next values for the next iteration.
            for (unsigned k = 0; k < carried; ++k) {
                const Node::PortRef &next = lc->input(3 + carried + k);
                carried_vals[k] = valueOf(ctx, next);
                carried_srcs[k] = eventOf(ctx, next);
            }
            last_iter_lc = lc_event;
            prev_lc_event = lc_event;
            iv += step;
        }

        // Final (failing) bound check: makes exit values available.
        uint64_t exit_event = kNoEvent;
        if (record_) {
            for (uint64_t d : seed_deps)
                addUniqueDep(d);
            addUniqueDep(prev_lc_event);
            for (uint64_t e : carried_srcs)
                addUniqueDep(e);
            exit_event = closeEvent(ctx, lc);
            muir_assert(st.loopExits.size() == my_seq,
                        "loop invocation order violated");
            // Hand-off point for the next invocation on this tile: the
            // last iteration's control issue (the failing check shares
            // the drain with the successor).
            st.loopExits.push_back(last_iter_lc != kNoEvent ? last_iter_lc
                                                            : exit_event);
        }
        ++firings_;
        ctx.tail.push_back(exit_event);
        ctx.lcCarried.clear();
        std::vector<RuntimeValue> final_outs;
        final_outs.push_back(RuntimeValue::makeInt(iv));
        for (unsigned k = 0; k < carried; ++k)
            final_outs.push_back(carried_vals[k]);
        ctx.vals[lc->id()] = std::move(final_outs);
        ctx.evs[lc->id()] = exit_event;

        // Live-outs (escaping carried values / iv).
        for (const Node *n : order) {
            if (n->kind() == NodeKind::LiveOut)
                evalNode(ctx, *n);
        }
    } else {
        // ---- Plain task: single pass over the dataflow. ----
        evalBody(ctx, order);
        for (const Node *n : order)
            if (n->kind() == NodeKind::LiveOut)
                evalNode(ctx, *n);
    }

    InvocationResult result;
    for (Node *out : task.liveOuts()) {
        result.liveOutValues.push_back(valueOf(ctx, {out, 0}));
        ctx.tail.push_back(ctx.evs[out->id()]);
    }
    // Synthetic completion event covering the whole invocation subtree.
    if (record_) {
        std::sort(ctx.tail.begin(), ctx.tail.end());
        ctx.tail.erase(std::unique(ctx.tail.begin(), ctx.tail.end()),
                       ctx.tail.end());
        for (uint64_t e : ctx.tail)
            addDep(e);
        if (rec_.deps.size() == rec_.depStart.back())
            addDep(dispatch_event);
        result.completionEvent = closeEvent(ctx, nullptr);
        st.completions.push_back(result.completionEvent);
    }
    result.outstanding = std::move(ctx.outstanding);
    --depth_;
    return result;
}

void
UirExecutor::evalBody(Ctx &ctx, const std::vector<Node *> &order)
{
    for (const Node *n : order) {
        switch (n->kind()) {
          case NodeKind::LiveIn:
          case NodeKind::LiveOut:
          case NodeKind::ConstNode:
          case NodeKind::GlobalAddr:
          case NodeKind::LoopControl:
            continue; // Handled by invoke().
          default:
            evalNode(ctx, *n);
        }
    }
}

void
UirExecutor::evalNode(Ctx &ctx, const Node &node)
{
    ++firings_;
    if (inj_)
        inj_->checkFirings(firings_);
    if (record_)
        stageInputs(ctx, node);

    switch (node.kind()) {
      case NodeKind::Compute: {
        RuntimeValue result;
        if (node.op() == ir::Op::GEP) {
            uint64_t base = valueOf(ctx, node.input(0)).asPtr();
            int64_t index = valueOf(ctx, node.input(1)).asInt();
            unsigned elem = node.irType().pointee().sizeBytes();
            result = RuntimeValue::makePtr(
                base + static_cast<uint64_t>(index) * elem);
        } else {
            std::vector<RuntimeValue> operands;
            operands.reserve(node.numInputs());
            for (const auto &ref : node.inputs())
                operands.push_back(valueOf(ctx, ref));
            if (inj_ &&
                (node.op() == ir::Op::SDiv ||
                 node.op() == ir::Op::SRem) &&
                operands.size() > 1 &&
                operands[1].kind == RuntimeValue::Kind::Int)
                inj_->checkDivisor(operands[1].i);
            result = ir::applyPureOp(node.op(), operands, node.irType());
        }
        ctx.vals[node.id()] = {std::move(result)};
        uint64_t id = emit(ctx, &node);
        ctx.evs[node.id()] = id;
        if (inj_)
            inj_->corruptValue(id, ctx.vals[node.id()]);
        return;
      }
      case NodeKind::Fused: {
        std::vector<RuntimeValue> ext;
        ext.reserve(node.numInputs());
        for (const auto &ref : node.inputs())
            ext.push_back(valueOf(ctx, ref));
        std::vector<RuntimeValue> internal;
        internal.reserve(node.microOps().size());
        for (const auto &mop : node.microOps()) {
            std::vector<RuntimeValue> operands;
            operands.reserve(mop.srcs.size());
            for (int src : mop.srcs) {
                if (src < 0)
                    operands.push_back(ext.at(-src - 1));
                else
                    operands.push_back(internal.at(src));
            }
            if (mop.op == ir::Op::GEP) {
                uint64_t base = operands.at(0).asPtr();
                int64_t index = operands.at(1).asInt();
                unsigned elem = mop.type.pointee().sizeBytes();
                internal.push_back(RuntimeValue::makePtr(
                    base + static_cast<uint64_t>(index) * elem));
            } else {
                if (inj_ &&
                    (mop.op == ir::Op::SDiv ||
                     mop.op == ir::Op::SRem) &&
                    operands.size() > 1 &&
                    operands[1].kind == RuntimeValue::Kind::Int)
                    inj_->checkDivisor(operands[1].i);
                internal.push_back(
                    ir::applyPureOp(mop.op, operands, mop.type));
            }
        }
        ctx.vals[node.id()] = {internal.back()};
        uint64_t id = emit(ctx, &node);
        ctx.evs[node.id()] = id;
        if (inj_)
            inj_->corruptValue(id, ctx.vals[node.id()]);
        return;
      }
      case NodeKind::Load: {
        if (!guardOn(ctx, node)) {
            // Predicated off: fire for flow control, poison the output.
            ctx.vals[node.id()] = {zeroOf(node.irType())};
            uint64_t id = emit(ctx, &node);
            ctx.evs[node.id()] = id;
            if (inj_)
                inj_->corruptValue(id, ctx.vals[node.id()]);
            return;
        }
        uint64_t addr = valueOf(ctx, node.input(0)).asPtr();
        unsigned words = node.accessWords();
        RuntimeValue v;
        const ir::Type &t = node.irType();
        if (inj_) {
            unsigned span = t.isTensor() ? t.tensorElems() * 4
                            : t.isFloat() ? 4
                                          : t.sizeBytes();
            inj_->checkAccess(addr, span, mem_);
        }
        if (t.isTensor()) {
            std::vector<float> data(t.tensorElems());
            for (unsigned k = 0; k < t.tensorElems(); ++k)
                data[k] = mem_.loadFloat(addr + k * 4);
            v = RuntimeValue::makeTensor(t.rows(), t.cols(),
                                         std::move(data));
        } else if (t.isFloat()) {
            v = RuntimeValue::makeFloat(mem_.loadFloat(addr));
        } else {
            v = RuntimeValue::makeInt(mem_.loadInt(addr, t.sizeBytes()));
        }
        ctx.vals[node.id()] = {std::move(v)};
        if (record_) {
            // Data deps as staged (not deduplicated), then the RAW
            // edges to the last store of each word, flagged as memory
            // edges: the conflict observer needs to know which
            // orderings only exist because of the memory system. An
            // id that is already a data dep stays a data dep.
            const size_t data_begin = rec_.deps.size();
            for (uint64_t d : deps_)
                addDep(d);
            deps_.clear();
            const size_t data_end = rec_.deps.size();
            const uint64_t word0 = addr / 4;
            muir_assert(word0 + words <= lastStore_.size(),
                        "load beyond the memory image");
            for (unsigned w = 0; w < words; ++w) {
                uint32_t s = lastStore_[word0 + w];
                auto first = rec_.deps.begin() + data_begin;
                auto last = rec_.deps.begin() + data_end;
                if (s != kNoId32 && std::find(first, last, s) == last)
                    addDep(s, /*mem=*/true);
            }
            uint64_t id = closeEvent(ctx, &node, kEvLoad, addr, words);
            ctx.evs[node.id()] = id;
            if (inj_)
                inj_->corruptValue(id, ctx.vals[node.id()]);
            for (unsigned w = 0; w < words; ++w)
                addReader(word0 + w, static_cast<uint32_t>(id));
        }
        return;
      }
      case NodeKind::Store: {
        if (!guardOn(ctx, node)) {
            ctx.evs[node.id()] = emit(ctx, &node);
            ctx.vals[node.id()] = {RuntimeValue::makeInt(0)};
            return;
        }
        RuntimeValue value = valueOf(ctx, node.input(0));
        uint64_t addr = valueOf(ctx, node.input(1)).asPtr();
        unsigned words = node.accessWords();
        const ir::Type &t = node.input(0).node->outputType(
            node.input(0).out);
        if (inj_) {
            unsigned span =
                value.kind == RuntimeValue::Kind::Tensor
                    ? static_cast<unsigned>(value.tensor->size() * 4)
                : value.kind == RuntimeValue::Kind::Float ? 4
                                                          : t.sizeBytes();
            inj_->checkAccess(addr, span, mem_);
        }
        if (value.kind == RuntimeValue::Kind::Tensor) {
            for (size_t k = 0; k < value.tensor->size(); ++k)
                mem_.storeFloat(addr + k * 4, (*value.tensor)[k]);
        } else if (value.kind == RuntimeValue::Kind::Float) {
            mem_.storeFloat(addr, static_cast<float>(value.f));
        } else {
            mem_.storeInt(addr, t.sizeBytes(), value.i);
        }
        if (record_) {
            // Data deps, then WAW (last store) and WAR (readers since)
            // edges per word, all deduplicated; the memory ones are
            // flagged as such.
            for (uint64_t d : deps_)
                addUniqueDep(d);
            deps_.clear();
            const uint64_t word0 = addr / 4;
            muir_assert(word0 + words <= lastStore_.size(),
                        "store beyond the memory image");
            for (unsigned w = 0; w < words; ++w) {
                uint64_t word = word0 + w;
                if (lastStore_[word] != kNoId32)
                    addUniqueDep(lastStore_[word], /*mem=*/true);
                for (uint32_t r = readHead_[word]; r != kNoId32;
                     r = readers_[r].next)
                    addUniqueDep(readers_[r].event, /*mem=*/true);
            }
            uint64_t id = closeEvent(ctx, &node, kEvStore, addr, words);
            ctx.evs[node.id()] = id;
            ctx.tail.push_back(id);
            for (unsigned w = 0; w < words; ++w) {
                lastStore_[word0 + w] = static_cast<uint32_t>(id);
                readHead_[word0 + w] = kNoId32;
            }
        }
        ctx.vals[node.id()] = {RuntimeValue::makeInt(0)};
        return;
      }
      case NodeKind::ChildCall: {
        unsigned outs = node.numOutputs();
        if (!guardOn(ctx, node)) {
            std::vector<RuntimeValue> zeros;
            for (unsigned k = 0; k < outs; ++k)
                zeros.push_back(zeroOf(node.outputType(k)));
            ctx.vals[node.id()] = std::move(zeros);
            ctx.evs[node.id()] = emit(ctx, &node);
            return;
        }
        // Dispatch event first so the child's entry can depend on it.
        uint64_t dispatch = kNoEvent;
        if (record_) {
            // Task-queue backpressure (§4 Pass 1/2): at most
            // queueDepth x tiles invocations of the callee in flight;
            // dispatch stalls on the completion of the invocation that
            // frees a queue slot.
            const uir::Task *callee = node.callee();
            const auto &done = stateOf(*callee).completions;
            uint64_t window =
                uint64_t(std::max(1u, callee->queueDepth())) *
                std::max(1u, callee->numTiles());
            uint64_t child_seq = done.size();
            uint64_t queue_dep = kNoEvent;
            if (child_seq >= window) {
                queue_dep = done[child_seq - window];
                deps_.push_back(queue_dep);
            }
            for (uint64_t d : deps_)
                addUniqueDep(d);
            deps_.clear();
            dispatch = closeEvent(ctx, &node, 0, 0, 0, queue_dep);
        }
        std::vector<RuntimeValue> args;
        args.reserve(node.numInputs());
        for (const auto &ref : node.inputs())
            args.push_back(valueOf(ctx, ref));
        InvocationResult child = invoke(*node.callee(), args, dispatch);

        if (node.isSpawn()) {
            ctx.vals[node.id()] = {RuntimeValue::makeInt(1)};
            ctx.evs[node.id()] = dispatch;
            if (record_)
                ctx.outstanding.push_back(child.completionEvent);
            ctx.outstanding.insert(ctx.outstanding.end(),
                                   child.outstanding.begin(),
                                   child.outstanding.end());
        } else {
            std::vector<RuntimeValue> outs_vals;
            if (node.callee()->liveOuts().empty()) {
                outs_vals.push_back(RuntimeValue::makeInt(1));
                ctx.evs[node.id()] = child.completionEvent;
            } else {
                outs_vals = child.liveOutValues;
                // Consumers key off the call node's single event slot;
                // use the completion so all outputs are ready. (Finer
                // per-output events cost little accuracy here because
                // live-outs complete together at loop exit.)
                ctx.evs[node.id()] = child.completionEvent;
            }
            ctx.vals[node.id()] = std::move(outs_vals);
            ctx.tail.push_back(child.completionEvent);
            ctx.outstanding.insert(ctx.outstanding.end(),
                                   child.outstanding.begin(),
                                   child.outstanding.end());
        }
        return;
      }
      case NodeKind::SyncNode: {
        if (record_)
            deps_.insert(deps_.end(), ctx.outstanding.begin(),
                         ctx.outstanding.end());
        ctx.outstanding.clear();
        ctx.vals[node.id()] = {RuntimeValue::makeInt(1)};
        uint64_t id = emit(ctx, &node);
        ctx.evs[node.id()] = id;
        ctx.tail.push_back(id);
        return;
      }
      case NodeKind::LiveOut: {
        ctx.vals[node.id()] = {valueOf(ctx, node.input(0))};
        ctx.evs[node.id()] = emit(ctx, &node);
        return;
      }
      default:
        muir_panic("evalNode: unexpected kind %s on %s",
                   nodeKindName(node.kind()), node.name().c_str());
    }
}

} // namespace muir::sim
