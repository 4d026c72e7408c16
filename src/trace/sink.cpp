#include "trace/sink.hpp"

#include <algorithm>

#include "util/contracts.hpp"

namespace dbsp::trace {

const char* phase_name(Phase p) {
    switch (p) {
        case Phase::kNone: return "(untraced)";
        case Phase::kStepExec: return "step-exec";
        case Phase::kContextMove: return "context-move";
        case Phase::kDeliver: return "deliver";
        case Phase::kDeliverSort: return "deliver-sort";
        case Phase::kDeliverTranspose: return "deliver-transpose";
        case Phase::kDummyStep: return "dummy-superstep";
        case Phase::kLocalRun: return "local-run";
        case Phase::kGlobalStep: return "global-step";
        case Phase::kCommunication: return "communication";
        case Phase::kSuperstep: return "superstep";
    }
    return "?";
}

void Sink::attribute_range(std::span<const double> prefix, Addr begin, Addr end,
                           unsigned touches) {
    Addr x = begin;
    while (x < end) {
        const unsigned lev = level_of(x);
        const Addr lev_end = lev == 0 ? 1 : Addr{1} << lev;
        const Addr seg_end = std::min<Addr>(end, lev_end);
        on_bucket(lev, touches * (seg_end - x),
                  static_cast<double>(touches) * (prefix[seg_end] - prefix[x]));
        x = seg_end;
    }
}

void Sink::access(Addr x, double cost) {
    total_ += cost;
    on_bucket(level_of(x), 1, cost);
}

void Sink::access_range(std::span<const double> prefix, Addr begin, Addr end) {
    // Mirror of CostTable::accumulate: fold word by word, ascending.
    for (Addr x = begin; x < end; ++x) {
        total_ += prefix[x + 1] - prefix[x];
    }
    attribute_range(prefix, begin, end, 1);
}

void Sink::charge(double cost) {
    total_ += cost;
    on_bucket(kNoLevel, 0, cost);
}

void Sink::block_op(std::span<const double> prefix, double delta, unsigned touches,
                    std::initializer_list<AddrRange> ranges) {
    total_ += delta;
    for (const AddrRange& r : ranges) {
        attribute_range(prefix, r.begin, r.end, touches);
    }
}

void Sink::block_transfer(Addr src, Addr dst, std::uint64_t len, double latency,
                          double delta) {
    total_ += delta;
    on_transfer(len, latency);
    // The f()-latency is paid at the deeper of the two block ends (f is
    // nondecreasing, so the deeper end is the larger address); the pipelined
    // part costs one unit per destination cell.
    on_bucket(level_of(std::max(src, dst) + len - 1), 1, latency);
    Addr x = dst;
    const Addr end = dst + len;
    while (x < end) {
        const unsigned lev = level_of(x);
        const Addr lev_end = lev == 0 ? 1 : Addr{1} << lev;
        const Addr seg_end = std::min<Addr>(end, lev_end);
        on_bucket(lev, seg_end - x, static_cast<double>(seg_end - x));
        x = seg_end;
    }
}

void Sink::messages(std::uint64_t count) { on_messages(count); }

void Sink::superstep(unsigned label, std::uint64_t tau, std::size_t h, double comm_arg,
                     double cost) {
    total_ += cost;
    on_superstep(label, tau, h, comm_arg, cost);
}

void Sink::phase_begin(Phase phase, unsigned label) { on_phase_begin(phase, label, total_); }

void Sink::phase_end(Phase phase) { on_phase_end(phase, total_); }

void MultiSink::access(Addr x, double cost) {
    Sink::access(x, cost);
    for (Sink* c : children_) c->access(x, cost);
}
void MultiSink::access_range(std::span<const double> prefix, Addr begin, Addr end) {
    Sink::access_range(prefix, begin, end);
    for (Sink* c : children_) c->access_range(prefix, begin, end);
}
void MultiSink::charge(double cost) {
    Sink::charge(cost);
    for (Sink* c : children_) c->charge(cost);
}
void MultiSink::block_op(std::span<const double> prefix, double delta, unsigned touches,
                         std::initializer_list<AddrRange> ranges) {
    Sink::block_op(prefix, delta, touches, ranges);
    for (Sink* c : children_) c->block_op(prefix, delta, touches, ranges);
}
void MultiSink::block_transfer(Addr src, Addr dst, std::uint64_t len, double latency,
                               double delta) {
    Sink::block_transfer(src, dst, len, latency, delta);
    for (Sink* c : children_) c->block_transfer(src, dst, len, latency, delta);
}
void MultiSink::messages(std::uint64_t count) {
    Sink::messages(count);
    for (Sink* c : children_) c->messages(count);
}
void MultiSink::superstep(unsigned label, std::uint64_t tau, std::size_t h, double comm_arg,
                          double cost) {
    Sink::superstep(label, tau, h, comm_arg, cost);
    for (Sink* c : children_) c->superstep(label, tau, h, comm_arg, cost);
}
void MultiSink::phase_begin(Phase phase, unsigned label) {
    for (Sink* c : children_) c->phase_begin(phase, label);
}
void MultiSink::phase_end(Phase phase) {
    for (Sink* c : children_) c->phase_end(phase);
}
void MultiSink::reset_total() {
    Sink::reset_total();
    for (Sink* c : children_) c->reset_total();
}
void MultiSink::shard_begin() {
    // Bracket this sink's own total and every child's: each folds the
    // shard's events through the forwarding overrides and rebases
    // independently at shard_end.
    Sink::shard_begin();
    for (Sink* c : children_) c->shard_begin();
}
void MultiSink::shard_end() {
    Sink::shard_end();
    for (Sink* c : children_) c->shard_end();
}

}  // namespace dbsp::trace
