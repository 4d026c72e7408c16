#pragma once

/// \file machine.hpp
/// The f(x)-HMM of Aggarwal, Alpern, Chandra and Snir [AACS87], Section 2 of
/// the paper: a random access machine over words where touching address x
/// costs f(x) for a nondecreasing (2,c)-uniform f. The machine both stores
/// real data and meters the exact model cost of every operation, so an
/// algorithm implemented against this interface is simultaneously executed
/// and priced.
///
/// Cost conventions (constant factors are irrelevant to every claim we
/// reproduce, but we fix them for determinism):
///  * read/write of address x: f(x);
///  * an n-ary operation on cells x1..xn: 1 + sum f(xi) — expressed by the
///    caller as the accesses plus charge(1);
///  * bulk helpers (swap_blocks, copy_block, charge_scan) charge the exact
///    per-cell sum of f over every range they touch, once per touch;
///  * read_range/write_range charge the identical per-cell sum as a
///    read()/write() loop, accumulated in the same ascending order — the
///    charged total is bit-for-bit the per-word path's — while moving the
///    data with one memcpy-able loop.
///
/// The cost table is obtained from the process-wide CostTableCache, so a
/// sweep constructing many machines over the same access function builds the
/// O(capacity) prefix array once.

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

namespace dbsp::hmm {

using model::AccessFunction;
using model::Addr;
using model::Word;

/// Private cost/telemetry accumulator for one shard of a simulation: one
/// executed context, or one 64-processor block of a delivery phase or of the
/// naive step loop. The shard's accessors fold its charges here with
/// exactly the machine's accumulation procedure, starting from zero, and
/// Machine::merge_shard then adds the account to the machine once, while the
/// attached sink folds the same events inside a Sink::shard_begin/shard_end
/// bracket. This fold structure is part of what the charged totals are:
/// changing it changes their low bits.
struct ShardAccount {
    double cost = 0.0;
    std::uint64_t words_touched = 0;
    std::uint64_t bulk_ops = 0;
    std::uint64_t bulk_words = 0;
    std::array<std::uint64_t, 65> bulk_words_by_level{};

    void clear() { *this = ShardAccount{}; }

    /// Mirror of Machine::charge into the shard.
    void charge(double c) {
        DBSP_REQUIRE(c >= 0.0);
        cost += c;
    }

    /// Mirror of Machine::read/write's accounting of one word costing
    /// \p delta.
    void word(double delta) {
        cost += delta;
        ++words_touched;
    }

    /// Mirror of Machine::read_range/write_range's accounting of [begin, end),
    /// end > begin.
    void range(const model::CostTable& table, Addr begin, Addr end) {
        cost = table.accumulate(begin, end, cost);
        words_touched += end - begin;
        ++bulk_ops;
        bulk_words += end - begin;
        bulk_words_by_level[std::bit_width(end - 1)] += end - begin;
    }
};

class Machine {
public:
    /// A machine with \p capacity words of memory, all zero-initialized.
    Machine(AccessFunction f, std::uint64_t capacity);

    /// --- charged word accesses ---------------------------------------------
    /// Inline: they are the innermost operations of every native algorithm.
    /// The per-word trace hook is one [[unlikely]] branch on the sink pointer
    /// to an out-of-line cold tail, so the null-sink path stays a leaf; the
    /// traced path charges identically (same delta, same fold order) and then
    /// emits the access event, keeping the sink mirror bit-for-bit.
    Word read(Addr x) {
        DBSP_REQUIRE(x < capacity());
        cost_ += table_->cost(x);
        ++words_touched_;
        if (trace_ != nullptr) [[unlikely]] return traced_read_tail(x);
        return memory_[x];
    }

    void write(Addr x, Word value) {
        DBSP_REQUIRE(x < capacity());
        cost_ += table_->cost(x);
        ++words_touched_;
        if (trace_ != nullptr) [[unlikely]] {
            traced_write_tail(x, value);
            return;
        }
        memory_[x] = value;
    }

    /// --- charged bulk accesses ---------------------------------------------
    /// Read [x, x + out.size()) into \p out; cost-equivalent (bit for bit) to
    /// a read() loop in ascending address order.
    void read_range(Addr x, std::span<Word> out);

    /// Write \p values onto [x, x + values.size()); cost-equivalent to a
    /// write() loop in ascending address order.
    void write_range(Addr x, std::span<const Word> values);

    /// --- charged bulk operations -------------------------------------------
    /// Swap the disjoint word ranges [a, a+len) and [b, b+len). Each cell is
    /// read and written once: charges 2 * (sum f over both ranges).
    void swap_blocks(Addr a, Addr b, std::uint64_t len);

    /// Copy [src, src+len) onto [dst, dst+len) (ranges may not overlap).
    /// Charges sum f over source (reads) plus sum f over destination (writes).
    void copy_block(Addr src, Addr dst, std::uint64_t len);

    /// Charge the cost of touching every cell of [begin, end) once, without
    /// moving data (used for read-only scans whose values the caller already
    /// holds, e.g. re-reading a just-written buffer).
    void charge_range(Addr begin, Addr end);

    /// Charge \p c units of pure computation (unit-cost operations).
    void charge(double c);

    /// Charge exactly what swap_blocks(a, b, len) would charge — cost, word
    /// touches, bulk telemetry, and the trace block_op event — WITHOUT
    /// moving any data. Used by the HMM simulator: a pair of swap-in/swap-out
    /// moves nets to the identity on memory, so a round executes contexts in
    /// place and charges the paper's movement cost here.
    void charge_swap_blocks(Addr a, Addr b, std::uint64_t len);

    /// Fold one shard's accumulators into the machine: the cost fold is the
    /// single `cost_ += account.cost` the sink's shard_end() also performs,
    /// keeping the two bit-identical.
    void merge_shard(const ShardAccount& account);

    /// --- accounting --------------------------------------------------------
    double cost() const { return cost_; }
    void reset_cost() {
        cost_ = 0.0;
        words_touched_ = 0;
        if (trace_ != nullptr) trace_->reset_total();
    }

    /// Attach (or detach, with nullptr) a charge-trace sink. The machine does
    /// not own the sink; every charge site is guarded by one branch on this
    /// pointer.
    void set_trace(trace::Sink* sink) { trace_ = sink; }
    trace::Sink* trace() const { return trace_; }

    /// Number of charged word touches (reads + writes, including every cell
    /// of the bulk operations). Host-throughput metric for bench_micro.
    std::uint64_t words_touched() const { return words_touched_; }

    std::uint64_t capacity() const { return table_->capacity(); }
    const model::CostTable& table() const { return *table_; }
    const AccessFunction& function() const { return table_->function(); }

    /// Uncharged raw access for test setup/verification only.
    std::span<Word> raw() { return memory_; }
    std::span<const Word> raw() const { return memory_; }

    /// Publish the accumulated word-touch/bulk-op telemetry to the global
    /// metrics registry and zero the local accumulators. Idempotent between
    /// accesses: a second call with nothing new accumulated publishes
    /// nothing, so a long-lived process (dbsp_serve) can flush after every
    /// request — making snapshots equal the sum of per-request counts — and
    /// a reused machine never double-counts at destruction. Accumulation
    /// uses plain per-machine members (see note_bulk in machine.cpp):
    /// per-op atomics would cost tens of percent on the bulk delivery path,
    /// whose ranges are often single message records.
    void publish_metrics();

    /// Publishes any telemetry not yet flushed via publish_metrics().
    ~Machine();

private:
    /// Out-of-line cold tails of the per-word trace hook: the traced path
    /// finishes the operation in a tail call so the null-sink read()/write()
    /// stay leaf functions.
    [[gnu::cold]] [[gnu::noinline]] Word traced_read_tail(Addr x);
    [[gnu::cold]] [[gnu::noinline]] void traced_write_tail(Addr x, Word value);

    /// Telemetry accumulator for one bulk operation touching \p words words
    /// whose deepest (highest) address is \p deepest — the level that
    /// dominates the op's HMM cost. Three plain adds, no atomics.
    void note_bulk(Addr deepest, std::uint64_t words);

    std::shared_ptr<const model::CostTable> table_;
    std::vector<Word> memory_;
    double cost_ = 0.0;
    std::uint64_t words_touched_ = 0;
    trace::Sink* trace_ = nullptr;  ///< not owned; nullptr = tracing off
    std::uint64_t bulk_ops_ = 0;
    std::uint64_t bulk_words_ = 0;
    /// Words per log2 memory level (indexed by bit_width of the deepest
    /// address touched); mirrors report::Histogram's bucketing.
    std::array<std::uint64_t, 65> bulk_words_by_level_{};
};

}  // namespace dbsp::hmm
