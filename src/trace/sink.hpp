#pragma once

/// \file sink.hpp
/// Charge-trace event interface. The machines (hmm::Machine, bt::Machine,
/// model::DbspMachine) emit a charge event for every unit of model cost they
/// account; the simulators bracket the events in named phase scopes
/// (context movement, step execution, message delivery, ...). A sink consumes
/// the stream and attributes every charged unit to
/// (phase x memory level x superstep label).
///
/// Zero overhead when disabled: a machine holds a raw `trace::Sink*`
/// (nullptr by default) and every emission site is guarded by a single
/// branch on that pointer — no virtual call, no allocation, no work on the
/// hot path unless a sink is attached (overhead budget verified by
/// bench_micro, see EXPERIMENTS.md "Harness performance").
///
/// Exactness contract: a sink's total() must equal the machine's charged
/// cost bit for bit. Floating-point addition does not commute, so the base
/// class reproduces the *accumulation procedure* of the machines rather than
/// summing opaque deltas:
///  * scalar charges arrive as the exact double the machine added and are
///    folded with the same `+=`;
///  * per-word ranges arrive as (prefix array, address range) and are folded
///    word by word in ascending order — the mirror image of
///    CostTable::accumulate.
/// Per-level and per-phase sub-totals are attribution statistics (each adds
/// its bucket in its own order) and are exact only as a partition of events,
/// not of floating-point roundings; the grand total is the audited quantity.

#include <bit>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <vector>

#include "model/types.hpp"

namespace dbsp::trace {

using model::Addr;

/// Simulation phases a charge can be attributed to. kNone is the implicit
/// phase outside any scope (e.g. native algorithms run directly on a
/// machine).
enum class Phase : unsigned char {
    kNone = 0,          ///< outside any scope
    kStepExec,          ///< guest step callbacks (local computation)
    kContextMove,       ///< context load/store: swaps, pack/unpack, rotations
    kDeliver,           ///< message delivery (scan + inbox writes)
    kDeliverSort,       ///< BT sort-based delivery (Section 5.2)
    kDeliverTranspose,  ///< BT rational-permutation delivery (Section 6)
    kDummyStep,         ///< rounds for smoothing-inserted dummy supersteps
    kLocalRun,          ///< self-simulation: local window runs
    kGlobalStep,        ///< self-simulation: global superstep computation
    kCommunication,     ///< self-simulation: host h-relation charges
    kSuperstep,         ///< direct D-BSP superstep (per-label attribution)
};
inline constexpr unsigned kPhaseCount = 11;

/// Stable display name ("step-exec", "deliver-sort", ...).
const char* phase_name(Phase p);

/// Memory hierarchy level of an address: level 0 is address 0, level l >= 1
/// covers [2^(l-1), 2^l) — the doubling bands over which a (2,c)-uniform
/// access function varies by at most the constant c.
inline unsigned level_of(Addr x) { return static_cast<unsigned>(std::bit_width(x)); }

/// Level tag for pure-compute charges that touch no memory cell.
inline constexpr unsigned kNoLevel = ~0u;

/// An address range [begin, end) touched by a bulk operation.
struct AddrRange {
    Addr begin;
    Addr end;
};

class Sink {
public:
    virtual ~Sink() = default;

    /// --- charge events (emitted by the machines) ---------------------------
    /// Single word access at \p x, charged \p cost (= f(x)).
    virtual void access(Addr x, double cost);

    /// Range access [begin, end) charged word by word in ascending order
    /// through \p prefix (the machine's cost-table prefix sums); mirrors
    /// CostTable::accumulate exactly.
    virtual void access_range(std::span<const double> prefix, Addr begin, Addr end);

    /// Pure-computation charge (unit ops; no memory level).
    virtual void charge(double cost);

    /// Bulk HMM operation over \p ranges (swap_blocks, copy_block,
    /// charge_range). \p delta is the exact double added to the machine's
    /// cost accumulator; \p touches is the per-cell touch multiplicity
    /// (2 for a swap: one read + one write per cell of each range).
    virtual void block_op(std::span<const double> prefix, double delta, unsigned touches,
                          std::initializer_list<AddrRange> ranges);

    /// BT block transfer [src, src+len) -> [dst, dst+len): charged
    /// \p delta = \p latency + len. The latency is attributed to the deeper
    /// block end's level; the pipelined per-cell unit costs to the
    /// destination range's levels.
    virtual void block_transfer(Addr src, Addr dst, std::uint64_t len, double latency,
                                double delta);

    /// \p count messages moved by the enclosing delivery phase.
    virtual void messages(std::uint64_t count);

    /// One executed D-BSP superstep (direct machine): charged \p cost =
    /// max(tau, 1) + h * g(comm_arg).
    virtual void superstep(unsigned label, std::uint64_t tau, std::size_t h,
                           double comm_arg, double cost);

    /// --- phase scopes (emitted by the simulators) --------------------------
    virtual void phase_begin(Phase phase, unsigned label);
    virtual void phase_end(Phase phase);

    /// Mirrors Machine::reset_cost (clears the running total, keeps
    /// attribution statistics).
    virtual void reset_total() { total_ = 0.0; }

    /// Bracket the events of one shard — one executed context, or one
    /// 64-processor block — whose charges the machine folds into a private
    /// account and then adds to its cost in a single `+=`. begin stashes the
    /// running total and zeroes it, so the shard's events fold from zero
    /// exactly as the account does; end overwrites the total with
    /// `stashed + shard subtotal`, the same single add the machine performs.
    /// That keeps total() bit-identical to the machine's cost. Brackets do
    /// not nest.
    virtual void shard_begin() {
        shard_saved_ = total_;
        total_ = 0.0;
    }
    virtual void shard_end() { total_ = shard_saved_ + total_; }

    /// Running mirror of the machine's charged cost; equals it bit for bit.
    double total() const { return total_; }

protected:
    /// Attribution hooks, invoked by the default event implementations after
    /// the total has been updated. \p level is kNoLevel for pure compute.
    virtual void on_bucket(unsigned level, std::uint64_t words, double cost) {
        (void)level, (void)words, (void)cost;
    }
    virtual void on_phase_begin(Phase phase, unsigned label, double model_time) {
        (void)phase, (void)label, (void)model_time;
    }
    virtual void on_phase_end(Phase phase, double model_time) { (void)phase, (void)model_time; }
    virtual void on_transfer(std::uint64_t len, double latency) { (void)len, (void)latency; }
    virtual void on_messages(std::uint64_t count) { (void)count; }
    virtual void on_superstep(unsigned label, std::uint64_t tau, std::size_t h,
                              double comm_arg, double cost) {
        (void)label, (void)tau, (void)h, (void)comm_arg, (void)cost;
    }

    /// Split [begin, end) at level boundaries and report each segment to
    /// on_bucket with cost `touches * (prefix[seg_end] - prefix[seg_begin])`.
    void attribute_range(std::span<const double> prefix, Addr begin, Addr end,
                         unsigned touches);

private:
    double total_ = 0.0;
    double shard_saved_ = 0.0;  ///< total stashed by an open shard_begin()
};

/// RAII phase scope; null-safe so emission sites need no branching of their
/// own beyond the sink pointer check.
class PhaseScope {
public:
    PhaseScope(Sink* sink, Phase phase, unsigned label = 0) : sink_(sink), phase_(phase) {
        if (sink_ != nullptr) sink_->phase_begin(phase_, label);
    }
    ~PhaseScope() {
        if (sink_ != nullptr) sink_->phase_end(phase_);
    }
    PhaseScope(const PhaseScope&) = delete;
    PhaseScope& operator=(const PhaseScope&) = delete;

private:
    Sink* sink_;
    Phase phase_;
};

/// Fan-out sink: maintains its own exact total and forwards every event
/// verbatim to each child, so every child keeps an exact mirror as well.
/// Used by dbsp_explore to feed the aggregate table and the Chrome trace
/// writer from a single run.
class MultiSink final : public Sink {
public:
    MultiSink() = default;
    MultiSink(std::initializer_list<Sink*> children) : children_(children) {}
    void add(Sink* child) { children_.push_back(child); }

    void access(Addr x, double cost) override;
    void access_range(std::span<const double> prefix, Addr begin, Addr end) override;
    void charge(double cost) override;
    void block_op(std::span<const double> prefix, double delta, unsigned touches,
                  std::initializer_list<AddrRange> ranges) override;
    void block_transfer(Addr src, Addr dst, std::uint64_t len, double latency,
                        double delta) override;
    void messages(std::uint64_t count) override;
    void superstep(unsigned label, std::uint64_t tau, std::size_t h, double comm_arg,
                   double cost) override;
    void phase_begin(Phase phase, unsigned label) override;
    void phase_end(Phase phase) override;
    void reset_total() override;
    void shard_begin() override;
    void shard_end() override;

private:
    std::vector<Sink*> children_;
};

}  // namespace dbsp::trace
