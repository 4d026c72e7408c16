#pragma once

/// \file recorder.hpp
/// RecordingSink: captures the simulated machine's linearized address stream
/// verbatim, under exactly the conventions LocalitySink uses to feed the
/// reuse-distance engine (see sink.hpp):
///  * access_range touches [begin, end) once per cell, ascending;
///  * block_op touches each range in the given order, each cell `touches`
///    times consecutively;
///  * block_transfer touches the source range then the destination range,
///    once per cell each.
/// So a RecordingSink and a LocalitySink attached to the same run see the
/// same reference stream in the same order — replaying the recorded stream
/// through a brute-force LRU cache (tests) or through a host array under
/// hardware counters (bench_e15) measures the very stream the MRC predictor
/// was computed from.
///
/// The base-class cost fold is skipped entirely (total() stays 0; the
/// exactness contract is waived): recording is observation-only and lives
/// beside an exact-mirror sink, such as a LocalitySink, in a MultiSink when
/// both are wanted.

#include <algorithm>
#include <cstdint>
#include <vector>

#include "trace/sink.hpp"

namespace dbsp::locality {

class RecordingSink final : public trace::Sink {
public:
    void access(trace::Addr x, double) override { stream_.push_back(x); }

    void access_range(std::span<const double>, trace::Addr begin,
                      trace::Addr end) override {
        for (trace::Addr x = begin; x < end; ++x) stream_.push_back(x);
    }

    void block_op(std::span<const double>, double, unsigned touches,
                  std::initializer_list<trace::AddrRange> ranges) override {
        for (const trace::AddrRange& r : ranges) {
            for (trace::Addr x = r.begin; x < r.end; ++x) {
                for (unsigned t = 0; t < touches; ++t) stream_.push_back(x);
            }
        }
    }

    void block_transfer(trace::Addr src, trace::Addr dst, std::uint64_t len, double,
                        double) override {
        for (std::uint64_t k = 0; k < len; ++k) stream_.push_back(src + k);
        for (std::uint64_t k = 0; k < len; ++k) stream_.push_back(dst + k);
    }

    const std::vector<trace::Addr>& stream() const { return stream_; }

    /// One past the highest address touched (the footprint extent a replay
    /// array must cover). 0 on an empty stream.
    trace::Addr extent() const {
        trace::Addr top = 0;
        for (trace::Addr x : stream_) top = std::max(top, x + 1);
        return top;
    }

    void clear() { stream_.clear(); }

private:
    std::vector<trace::Addr> stream_;
};

}  // namespace dbsp::locality
