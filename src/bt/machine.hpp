#pragma once

/// \file machine.hpp
/// The f(x)-BT model of Aggarwal, Chandra and Snir [ACS87], Section 2 of the
/// paper: an f(x)-HMM augmented with block transfer. Touching address x costs
/// f(x); in addition, a block of b cells [x-b+1, x] can be copied onto a
/// disjoint block [y-b+1, y] in time max{f(x), f(y)} + b — i.e. one access at
/// the deeper of the two block ends plus one unit per cell, modelling fully
/// pipelined bulk movement.
///
/// As with hmm::Machine, the instance stores real words and meters the exact
/// model cost of every operation.

#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "model/access_function.hpp"
#include "model/cost_table.hpp"
#include "model/types.hpp"
#include "trace/sink.hpp"
#include "util/contracts.hpp"

namespace dbsp::bt {

using model::AccessFunction;
using model::Addr;
using model::Word;

/// Private cost/telemetry accumulator for one context executed by COMPUTE —
/// the BT counterpart of hmm::ShardAccount (see there for the fold
/// structure). cost and word_access fold independently, the same
/// decomposition Machine::read_range documents.
struct ShardAccount {
    double cost = 0.0;
    double word_access = 0.0;
    double unit_ops = 0.0;
    std::uint64_t range_ops = 0;
    std::uint64_t range_words = 0;

    void clear() { *this = ShardAccount{}; }

    /// Mirror of Machine::charge into the shard.
    void charge(double c) {
        DBSP_REQUIRE(c >= 0.0);
        cost += c;
        unit_ops += c;
    }

    /// Mirror of Machine::read/write's accounting of one word costing
    /// \p delta.
    void word(double delta) {
        cost += delta;
        word_access += delta;
    }

    /// Mirror of Machine::read_range/write_range's accounting of [begin, end),
    /// end > begin: cost and word_access each folded on its own.
    void range(const model::CostTable& table, Addr begin, Addr end) {
        cost = table.accumulate(begin, end, cost);
        word_access = table.accumulate(begin, end, word_access);
        ++range_ops;
        range_words += end - begin;
    }
};

class Machine {
public:
    Machine(AccessFunction f, std::uint64_t capacity);

    /// Publish the accumulated range/transfer telemetry to the global
    /// metrics registry in one batch and zero the local accumulators
    /// (plain-member accumulation on the hot paths; see the note in
    /// machine.cpp). Safe to call repeatedly — a long-lived process
    /// (dbsp_serve) flushes after each request without double-counting at
    /// destruction.
    void publish_metrics();

    /// Publishes any telemetry not yet flushed via publish_metrics().
    ~Machine();

    /// --- charged word accesses (HMM-style) ---------------------------------
    /// Inline: the staged streams make one of these calls per word they move.
    Word read(Addr x) {
        DBSP_REQUIRE(x < capacity());
        const double delta = table_->cost(x);
        cost_ += delta;
        word_access_ += delta;
        if (trace_ != nullptr) [[unlikely]] return traced_read_tail(x);
        return memory_[x];
    }

    void write(Addr x, Word value) {
        DBSP_REQUIRE(x < capacity());
        const double delta = table_->cost(x);
        cost_ += delta;
        word_access_ += delta;
        if (trace_ != nullptr) [[unlikely]] {
            traced_write_tail(x, value);
            return;
        }
        memory_[x] = value;
    }

    /// Charged word-by-word copy of [src, src+n) onto [dst, dst+n):
    /// equivalent, bit for bit, to `for t: write(dst+t, read(src+t))`. Per
    /// word, cost and word_access each add the read's f(src+t) and then the
    /// write's f(dst+t), taken from the prefix table; ascending t, so even
    /// overlapping ranges end up as the loop leaves them. With a sink
    /// attached it runs that literal loop, so the event sequence is the
    /// same too. Not a block transfer: each word pays its own access.
    void copy_words(Addr src, Addr dst, std::uint64_t n) {
        if (trace_ != nullptr) [[unlikely]] {
            traced_copy_words(src, dst, n);
            return;
        }
        DBSP_REQUIRE(src + n <= capacity() && dst + n <= capacity());
        const double* prefix = table_->prefix().data();
        Word* memory = memory_.data();
        double cost = cost_;
        double word_access = word_access_;
        for (std::uint64_t t = 0; t < n; ++t) {
            const double read_delta = prefix[src + t + 1] - prefix[src + t];
            cost += read_delta;
            word_access += read_delta;
            const double write_delta = prefix[dst + t + 1] - prefix[dst + t];
            cost += write_delta;
            word_access += write_delta;
            memory[dst + t] = memory[src + t];
        }
        cost_ = cost;
        word_access_ = word_access;
    }

    /// --- charged bulk accesses ---------------------------------------------
    /// Read [x, x + out.size()) into \p out; cost-equivalent (bit for bit,
    /// including the word-access decomposition) to a read() loop in ascending
    /// address order.
    void read_range(Addr x, std::span<Word> out);

    /// Write \p values onto [x, x + values.size()); cost-equivalent to a
    /// write() loop in ascending address order.
    void write_range(Addr x, std::span<const Word> values);

    /// --- block transfer ----------------------------------------------------
    /// Copy [src, src+len) onto the disjoint [dst, dst+len).
    /// Cost: max(f(src+len-1), f(dst+len-1)) + len.
    void block_copy(Addr src, Addr dst, std::uint64_t len);

    /// Charge \p c units of pure computation.
    void charge(double c);

    /// The charges of block_copy(src, dst, len) — cost decomposition,
    /// transfer telemetry, and the trace event — without copying any data
    /// (block_copy is this plus the copy). The BT simulator's COMPUTE walk
    /// charges its movement schedule, a net identity on memory, through this
    /// while the contexts execute in place.
    void charge_transfer(Addr src, Addr dst, std::uint64_t len);

    /// Fold one shard's accumulators into the machine; the cost fold is the
    /// single add the sink's shard_end() performs.
    void merge_shard(const ShardAccount& account);

    /// --- accounting --------------------------------------------------------
    double cost() const { return cost_; }
    void reset_cost() {
        cost_ = 0.0;
        transfer_latency_ = transfer_volume_ = word_access_ = unit_ops_ = 0.0;
        if (trace_ != nullptr) trace_->reset_total();
    }

    /// Attach (or detach, with nullptr) a charge-trace sink. Not owned; every
    /// charge site is guarded by one branch on this pointer.
    void set_trace(trace::Sink* sink) { trace_ = sink; }
    trace::Sink* trace() const { return trace_; }

    /// Number of block_copy operations issued (for diagnostics/tests).
    std::uint64_t block_transfers() const { return block_transfers_; }

    /// Cost decomposition (sums to cost()): the max(f(x), f(y)) latency part
    /// of block transfers, their per-cell part, charged single-word accesses,
    /// and explicit unit-op charges. Diagnostics for the E8 analysis.
    double transfer_latency_cost() const { return transfer_latency_; }
    double transfer_volume_cost() const { return transfer_volume_; }
    double word_access_cost() const { return word_access_; }
    double unit_op_cost() const { return unit_ops_; }

    std::uint64_t capacity() const { return table_->capacity(); }
    const model::CostTable& table() const { return *table_; }
    const AccessFunction& function() const { return table_->function(); }

    /// Uncharged raw access for test setup/verification only.
    std::span<Word> raw() { return memory_; }
    std::span<const Word> raw() const { return memory_; }

private:
    /// Out-of-line cold tails for the per-word trace hook; see the note in
    /// hmm::Machine — the traced path finishes the operation in a tail call
    /// so the null-sink read()/write() stay leaf functions.
    [[gnu::cold]] [[gnu::noinline]] Word traced_read_tail(Addr x);
    [[gnu::cold]] [[gnu::noinline]] void traced_write_tail(Addr x, Word value);
    [[gnu::cold]] [[gnu::noinline]] void traced_copy_words(Addr src, Addr dst,
                                                           std::uint64_t n);

    /// The charges of read_range/write_range over the \p n >= 1 words from
    /// \p x.
    void charge_words(Addr x, std::uint64_t n);

    std::shared_ptr<const model::CostTable> table_;
    std::vector<Word> memory_;
    double cost_ = 0.0;
    double transfer_latency_ = 0.0;
    double transfer_volume_ = 0.0;
    double word_access_ = 0.0;
    double unit_ops_ = 0.0;
    std::uint64_t block_transfers_ = 0;
    trace::Sink* trace_ = nullptr;  ///< not owned; nullptr = tracing off
    std::uint64_t range_ops_ = 0;
    std::uint64_t range_words_ = 0;
    std::uint64_t transfer_words_ = 0;
    /// Block-transfer count per log2 size class (indexed by bit_width of
    /// len); mirrors report::Histogram's bucketing.
    std::array<std::uint64_t, 65> transfer_size_by_bucket_{};
};

}  // namespace dbsp::bt
