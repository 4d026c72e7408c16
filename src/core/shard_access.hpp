#pragma once

/// \file shard_access.hpp
/// The charged context accessors of the simulators. Theorems 5 and 12 charge
/// every word a simulated processor touches at f(x), where x is the address
/// at which the schedule places its context; each accessor here is that one
/// rule over one machine's memory.
///
/// A shard is one unit of charges folded once into the machine: one executed
/// context, or one 64-processor block of a delivery phase or of the naive
/// step loop. ShardAccessor reads/writes the machine's words directly
/// (uncharged raw storage) while folding every charge into the shard's
/// account — with exactly the machine's accumulation procedure, starting
/// from zero (the account's word()/range()) — and every trace event straight
/// into the machine's sink, which the caller brackets with
/// Sink::shard_begin()/shard_end() so the sink's mirror folds the shard the
/// same way. Charging and data placement are decoupled: charges use the
/// *virtual* base address (where the paper's schedule places the context,
/// e.g. the top of memory for step execution) while the data moves at the
/// *physical* base (where the context actually sits). The paper's
/// swap-to-top/run/swap-back schedule is a net identity on memory, so a
/// round runs each context in place and charges the moves without moving
/// data (hmm::Machine::charge_swap_blocks, bt::Machine::charge_transfer).
///
/// MachineAccessor is the unsharded form: it charges through the machine's
/// own read/write/read_range/write_range at one base address.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "hmm/machine.hpp"
#include "model/superstep_exec.hpp"
#include "trace/sink.hpp"
#include "util/contracts.hpp"

namespace dbsp::core {

/// Context accessor charging into a shard account (and the machine's sink
/// when Traced) instead of the machine, at the virtual address. The per-word
/// sink hook is resolved at compile time: a runtime check per word measurably
/// slows the untraced simulators.
template <class Machine, class Account, bool Traced>
class ShardAccessor final : public model::ContextAccessor {
public:
    ShardAccessor(Machine& m, Account& account, model::Addr vbase, model::Addr pbase,
                  std::size_t mu)
        : m_(m), account_(account), sink_(m.trace()), vbase_(vbase), pbase_(pbase),
          mu_(mu) {}

    model::Word get(std::size_t index) const override {
        return m_.raw()[charge_word(index)];
    }

    void set(std::size_t index, model::Word value) override {
        m_.raw()[charge_word(index)] = value;
    }

    void get_range(std::size_t index, std::span<model::Word> out) const override {
        DBSP_REQUIRE(index + out.size() <= mu_);
        if (out.empty()) return;
        const auto raw = m_.raw();
        std::copy_n(raw.begin() + static_cast<std::ptrdiff_t>(charge_range(index, out.size())),
                    out.size(), out.begin());
    }

    void set_range(std::size_t index, std::span<const model::Word> values) override {
        DBSP_REQUIRE(index + values.size() <= mu_);
        if (values.empty()) return;
        const auto raw = m_.raw();
        std::copy_n(values.begin(), values.size(),
                    raw.begin() +
                        static_cast<std::ptrdiff_t>(charge_range(index, values.size())));
    }

    void rebind(model::Addr vbase, model::Addr pbase) {
        vbase_ = vbase;
        pbase_ = pbase;
    }

private:
    /// Charge context word \p index; returns its physical address.
    model::Addr charge_word(std::size_t index) const {
        DBSP_REQUIRE(index < mu_);
        const model::Addr vx = vbase_ + index;
        DBSP_REQUIRE(vx < m_.capacity() && pbase_ + index < m_.capacity());
        const double delta = m_.table().cost(vx);
        account_.word(delta);
        if constexpr (Traced) sink_->access(vx, delta);
        return pbase_ + index;
    }

    /// Charge the \p n >= 1 context words from \p index (within the
    /// context); returns the physical address of the first.
    model::Addr charge_range(std::size_t index, std::size_t n) const {
        const model::Addr vx = vbase_ + index;
        DBSP_REQUIRE(vx + n <= m_.capacity() && pbase_ + index + n <= m_.capacity());
        account_.range(m_.table(), vx, vx + n);
        if constexpr (Traced) sink_->access_range(m_.table().prefix(), vx, vx + n);
        return pbase_ + index;
    }

    Machine& m_;
    Account& account_;
    trace::Sink* sink_;    ///< the machine's sink; non-null when Traced
    model::Addr vbase_;    ///< charged addresses
    model::Addr pbase_;    ///< data addresses
    std::size_t mu_;
};

/// Run processor \p p's superstep \p s as one shard: its context sits at
/// \p pbase and is charged at \p vbase. Opens the shard bracket on the
/// machine's sink (if one is attached), runs the step through the traced or
/// untraced ShardAccessor, charges the step's unit ops to the sink and to a
/// fresh account, folds the account into the machine once, and closes the
/// bracket.
template <class Account, class Machine>
void run_in_place(Machine& m, model::Program& program, const model::ContextLayout& layout,
                  const model::ClusterTree& tree, model::StepIndex s, model::ProcId p,
                  model::Addr vbase, model::Addr pbase) {
    trace::Sink* const sink = m.trace();
    const std::size_t mu = layout.context_words();
    Account account;
    model::StepOutcome out;
    if (sink != nullptr) {
        sink->shard_begin();
        ShardAccessor<Machine, Account, true> acc(m, account, vbase, pbase, mu);
        out = model::run_processor_step(program, layout, tree, s, p, acc);
        sink->charge(static_cast<double>(out.ops));
    } else {
        ShardAccessor<Machine, Account, false> acc(m, account, vbase, pbase, mu);
        out = model::run_processor_step(program, layout, tree, s, p, acc);
    }
    account.charge(static_cast<double>(out.ops));
    m.merge_shard(account);
    if (sink != nullptr) sink->shard_end();
}

/// Accessor source over HMM memory for the delivery protocol and the naive
/// simulator's step loop. Processor p's context lives at
/// block_of_proc[p] * mu (or identity blocks when \p block_of_proc is
/// nullptr — the pinned naive layout) and charges at that physical address,
/// so vbase == pbase here. Each block charges a fresh account that
/// end_block() folds into the machine, inside a shard bracket on the
/// machine's sink when Traced. Attach the machine's sink before
/// construction.
template <bool Traced>
class HmmShardSource final : public model::AccessorSource {
public:
    HmmShardSource(hmm::Machine& m, std::size_t mu,
                   const std::vector<std::uint64_t>* block_of_proc)
        : m_(m), mu_(mu), block_of_proc_(block_of_proc), acc_(m, account_, 0, 0, mu) {}

    model::ContextAccessor& at(model::ProcId p) override {
        const model::Addr base =
            (block_of_proc_ != nullptr ? (*block_of_proc_)[p] : p) * mu_;
        acc_.rebind(base, base);
        return acc_;
    }

    /// Charge \p c units of pure computation to the open block.
    void charge(double c) {
        if constexpr (Traced) m_.trace()->charge(c);
        account_.charge(c);
    }

    void begin_block() override {
        if constexpr (Traced) m_.trace()->shard_begin();
    }

    void end_block() override {
        m_.merge_shard(account_);
        account_.clear();
        if constexpr (Traced) m_.trace()->shard_end();
    }

private:
    hmm::Machine& m_;
    std::size_t mu_;
    const std::vector<std::uint64_t>* block_of_proc_;  ///< nullptr = identity
    hmm::ShardAccount account_;
    ShardAccessor<hmm::Machine, hmm::ShardAccount, Traced> acc_;
};

/// Context accessor over \p mu machine words at \p base, charged by the
/// machine itself (its read/write/read_range/write_range, sink included):
/// the pinned naive BT layout and the self-simulator's top-of-memory slot.
template <class Machine>
class MachineAccessor final : public model::ContextAccessor {
public:
    MachineAccessor(Machine& m, model::Addr base, std::size_t mu)
        : m_(m), base_(base), mu_(mu) {}

    model::Word get(std::size_t i) const override {
        DBSP_REQUIRE(i < mu_);
        return m_.read(base_ + i);
    }
    void set(std::size_t i, model::Word value) override {
        DBSP_REQUIRE(i < mu_);
        m_.write(base_ + i, value);
    }
    void get_range(std::size_t i, std::span<model::Word> out) const override {
        DBSP_REQUIRE(i + out.size() <= mu_);
        m_.read_range(base_ + i, out);
    }
    void set_range(std::size_t i, std::span<const model::Word> values) override {
        DBSP_REQUIRE(i + values.size() <= mu_);
        m_.write_range(base_ + i, values);
    }

private:
    Machine& m_;
    model::Addr base_;
    std::size_t mu_;
};

}  // namespace dbsp::core
