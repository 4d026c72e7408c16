#pragma once

/// \file superstep_exec.hpp
/// Superstep execution helpers shared by every executor (the direct D-BSP
/// machine and the HMM/BT simulators). Centralizing the step-invocation and
/// message-delivery protocol here is what guarantees the executors agree
/// bit-for-bit on functional behaviour:
///
///  * a step that read its inbox has the inbox cleared afterwards; an unread
///    inbox persists (so L-smoothing dummy supersteps are transparent);
///  * after a step, the outgoing count word is committed;
///  * delivery walks senders in ascending processor order and appends to the
///    destination inboxes, then resets the sender's outgoing count, giving a
///    canonical (src, send-order) inbox ordering.

#include <vector>

#include "model/context_layout.hpp"
#include "model/program.hpp"

namespace dbsp::model {

/// Result of running one processor's step callback.
struct StepOutcome {
    std::uint64_t ops = 0;     ///< local-computation operations performed
    std::size_t sent = 0;      ///< messages emitted
};

/// Run program superstep \p s for processor \p p against \p acc, then commit
/// the outgoing count and apply the inbox-consumption rule.
inline StepOutcome run_processor_step(Program& program, const ContextLayout& layout,
                                      const ClusterTree& tree, StepIndex s, ProcId p,
                                      ContextAccessor& acc) {
    StepContext ctx(acc, layout, tree, s, program.label(s), p, program.proc_id_base());
    program.step(s, p, ctx);
    acc.set(layout.out_count_offset(), ctx.sent());
    if (ctx.read_inbox()) {
        acc.set(layout.in_count_offset(), 0);
    }
    return StepOutcome{ctx.ops(), ctx.sent()};
}

/// Accessor source: maps a processor id to an accessor for its context
/// storage. Replaces the former std::function-of-std::function AccessorFn —
/// one devirtualizable call per processor, no type-erasure allocations on the
/// delivery hot path. The returned reference stays valid until the next at()
/// call (sources typically rebind a single accessor object).
class AccessorSource {
public:
    virtual ~AccessorSource() = default;
    virtual ContextAccessor& at(ProcId p) = 0;

    /// Bracket one kFoldBlockProcs-wide block of processors (a delivery
    /// phase walks its blocks inside these brackets). A charged source opens
    /// a fresh block account at begin_block() and folds it once into its
    /// machine (and attached sink) at end_block(); every accessor at() hands
    /// out in between charges that account. No-ops for uncharged sources.
    virtual void begin_block() {}
    virtual void end_block() {}
};

/// AccessorSource over per-processor flat word vectors — the direct machine's
/// storage shape, shared by trace recording and the unit tests.
class VectorAccessorSource final : public AccessorSource {
public:
    VectorAccessorSource(std::vector<std::vector<Word>>& contexts, std::size_t mu)
        : contexts_(contexts), mu_(mu) {}
    ContextAccessor& at(ProcId p) override {
        acc_.rebind(contexts_[p].data(), mu_);
        return acc_;
    }

private:
    std::vector<std::vector<Word>>& contexts_;
    std::size_t mu_;
    FlatContextAccessor acc_{nullptr, 0};
};

/// Width of the fold blocks of the charged executors: delivery folds the
/// charges of each run of this many senders (and, separately, destination
/// inboxes) into one account, and the naive HMM step loop folds each run of
/// this many processors the same way. The width is part of the charging
/// structure — changing it changes the low bits of every charged total.
inline constexpr std::uint64_t kFoldBlockProcs = 64;

/// Reusable scratch space for deliver_messages. Executors that deliver every
/// superstep keep one instance alive across the whole run so the message
/// vectors and the bulk-read staging buffer stop being reallocated per step.
struct DeliveryScratch {
    std::vector<Message> pending;   ///< canonical (src, send-order) sequence
    std::vector<Message> by_block;  ///< pending, stably bucketed by dest block
    std::vector<std::size_t> block_end;
    std::vector<Word> words;
    std::vector<std::size_t> received;
};

/// Deliver all pending outgoing messages of processors [first, first + count)
/// into their destination inboxes (destinations must lie in the same range for
/// a well-formed i-superstep; callers validate cluster membership at send
/// time). Processor ids here are tree-local; \p id_base (the program's
/// proc_id_base) is added to the stored message source so inboxes always
/// carry global ids. Returns the maximum number of messages received by any
/// processor. \p contexts provides context access for the local range;
/// \p scratch (optional) lets callers reuse buffers across supersteps.
///
/// Both phases walk kFoldBlockProcs-wide blocks in ascending order, each
/// inside a contexts.begin_block()/end_block() bracket: phase 1 reads the
/// senders' outgoing records block by block, building the canonical
/// (src, send-order) pending sequence; phase 2 appends the messages
/// destined to each block in that canonical order, so every inbox receives
/// its messages in (src, send-order).
std::size_t deliver_messages(const ContextLayout& layout, ProcId first, std::uint64_t count,
                             AccessorSource& contexts, ProcId id_base = 0,
                             DeliveryScratch* scratch = nullptr);

}  // namespace dbsp::model
