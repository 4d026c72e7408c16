#pragma once

/// \file sink.hpp
/// LocalitySink: a trace::Sink that reconstructs the simulated machine's
/// *address stream* from the charge events and feeds it through the
/// reuse-distance engine. It layers on top of the base sink (so the exact
/// cost-mirror contract still holds: total() == machine cost bit for bit)
/// and linearizes the bulk events with fixed conventions that reproduce the
/// machines' own word accounting:
///  * access_range touches [begin, end) once per cell, ascending;
///  * block_op touches each range in the given order, each cell `touches`
///    times consecutively (a swap therefore contributes 4*len references:
///    two per cell of each block, exactly matching words_touched);
///  * block_transfer touches the source range then the destination range,
///    once per cell each.
/// With these conventions the sink's reference count equals
/// hmm::Machine::words_touched() for an HMM run, and its range/transfer word
/// counts equal the machine-published registry counters (bt.range_words,
/// bt.transfer_words) for a BT run — invariants enforced by the differential
/// oracle and bench_micro.
///
/// Performance (LocalityOptions): in the default batched mode, bulk events go
/// through the engine's batched record_range path, and single-word
/// access() events are coalesced — an ascending run of adjacent addresses is
/// held pending and flushed as one record_range when the run breaks (or any
/// bulk event / profile read arrives). Coalescing only *groups* the reference
/// stream, never reorders it, and record_range is event-for-event identical
/// to per-word record(), so the resulting profile is bit-identical to the
/// batched=false reference path (a fuzz-oracle invariant). kSampled mode adds
/// SHARDS spatial sampling on top (see reuse_distance.hpp).
///
/// Null-sink discipline: a machine with no sink attached executes zero
/// locality-profiling instructions. The per-word events this sink consumes
/// come from the machines' read()/write() cold trace tails and from the
/// traced core::ShardAccessor the simulators select once per context.

#include <cstdint>

#include "locality/profile.hpp"
#include "locality/reuse_distance.hpp"
#include "trace/sink.hpp"

namespace dbsp::locality {

struct LocalityOptions {
    using Mode = ReuseDistanceProfiler::Mode;
    Mode mode = Mode::kExact;
    /// SHARDS spatial sampling rate for kSampled; >= 1.0 degenerates to
    /// exact measurement (and a profile bit-identical to kExact).
    double sample_rate = 0.01;
    /// false: per-word reference path (no coalescing, no bulk engine calls).
    /// Slow; exists as the oracle baseline for the batched bit-identity
    /// invariant.
    bool batched = true;
};

class LocalitySink final : public trace::Sink {
public:
    LocalitySink() : LocalitySink(LocalityOptions{}) {}
    explicit LocalitySink(const LocalityOptions& opts)
        : options_(opts), engine_(opts.mode, opts.sample_rate) {
        profile_.set_mode(
            opts.mode == LocalityOptions::Mode::kSampled && opts.sample_rate < 1.0,
            opts.sample_rate);
    }

    void access(trace::Addr x, double cost) override;
    void access_range(std::span<const double> prefix, trace::Addr begin,
                      trace::Addr end) override;
    void block_op(std::span<const double> prefix, double delta, unsigned touches,
                  std::initializer_list<trace::AddrRange> ranges) override;
    void block_transfer(trace::Addr src, trace::Addr dst, std::uint64_t len,
                        double latency, double delta) override;

    const LocalityOptions& options() const { return options_; }

    /// Snapshot of the analytics with distinct_addresses filled in. Flushes
    /// the pending coalesced run first (hence non-const).
    LocalityProfile profile() {
        flush_run();
        LocalityProfile p = profile_;
        p.distinct_addresses = engine_.distinct_addresses();
        return p;
    }

    /// Total references recorded (== hmm::Machine::words_touched for an HMM
    /// run under the linearization conventions above). In sampled mode this
    /// still counts *every* reference; see sampled_accesses() for the
    /// measured subset. Flushes the pending coalesced run first.
    std::uint64_t recorded_accesses() {
        flush_run();
        return engine_.accesses();
    }
    /// References that passed the sampling filter (== recorded_accesses()
    /// in exact mode).
    std::uint64_t sampled_accesses() {
        flush_run();
        return engine_.sampled_accesses();
    }
    /// Words recorded from access_range events (== bt.range_words for a BT
    /// run; part of hmm.bulk_words for an HMM run).
    std::uint64_t range_words() const { return range_words_; }
    /// Words recorded from block_op events (ranges * touches).
    std::uint64_t block_op_words() const { return block_op_words_; }
    /// Transfer payload words, len per block_transfer (== bt.transfer_words).
    std::uint64_t transfer_words() const { return transfer_words_; }

private:
    void record(trace::Addr x) { profile_.note(engine_.record(x)); }
    void record_range(trace::Addr begin, trace::Addr end, unsigned touches) {
        engine_.record_range(begin, end, touches,
                             [this](const ReuseDistanceProfiler::Event& e,
                                    std::uint64_t n) { profile_.note_run(e, n); });
    }
    /// Flush the pending coalesced run of single-word accesses.
    void flush_run() {
        if (run_len_ == 0) return;
        const std::uint64_t len = run_len_;
        run_len_ = 0;
        if (len == 1) {
            record(run_begin_);  // keeps the engine's same-address fast path
        } else {
            record_range(run_begin_, run_begin_ + len, 1);
        }
    }

    LocalityOptions options_;
    ReuseDistanceProfiler engine_;
    LocalityProfile profile_;
    trace::Addr run_begin_ = 0;
    std::uint64_t run_len_ = 0;
    std::uint64_t range_words_ = 0;
    std::uint64_t block_op_words_ = 0;
    std::uint64_t transfer_words_ = 0;
};

}  // namespace dbsp::locality
