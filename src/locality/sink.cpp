#include "locality/sink.hpp"

namespace dbsp::locality {

void LocalitySink::access(trace::Addr x, double cost) {
    Sink::access(x, cost);
    if (!options_.batched) {
        record(x);
        return;
    }
    if (run_len_ != 0 && x == run_begin_ + run_len_) {
        ++run_len_;
        return;
    }
    flush_run();
    run_begin_ = x;
    run_len_ = 1;
}

void LocalitySink::access_range(std::span<const double> prefix, trace::Addr begin,
                                trace::Addr end) {
    flush_run();
    Sink::access_range(prefix, begin, end);
    if (options_.batched) {
        record_range(begin, end, 1);
    } else {
        for (trace::Addr x = begin; x < end; ++x) record(x);
    }
    range_words_ += end - begin;
}

void LocalitySink::block_op(std::span<const double> prefix, double delta, unsigned touches,
                            std::initializer_list<trace::AddrRange> ranges) {
    flush_run();
    Sink::block_op(prefix, delta, touches, ranges);
    for (const trace::AddrRange& r : ranges) {
        if (options_.batched) {
            record_range(r.begin, r.end, touches);
        } else {
            for (trace::Addr x = r.begin; x < r.end; ++x) {
                for (unsigned t = 0; t < touches; ++t) record(x);
            }
        }
        block_op_words_ += (r.end - r.begin) * touches;
    }
}

void LocalitySink::block_transfer(trace::Addr src, trace::Addr dst, std::uint64_t len,
                                  double latency, double delta) {
    flush_run();
    Sink::block_transfer(src, dst, len, latency, delta);
    if (options_.batched) {
        record_range(src, src + len, 1);
        record_range(dst, dst + len, 1);
    } else {
        for (std::uint64_t k = 0; k < len; ++k) record(src + k);
        for (std::uint64_t k = 0; k < len; ++k) record(dst + k);
    }
    transfer_words_ += len;
}

}  // namespace dbsp::locality
