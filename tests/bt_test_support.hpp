#pragma once

/// \file bt_test_support.hpp
/// Test helpers for comparing a fused BT operation with the per-word loop it
/// replaces: the exact bits of every machine accumulator, and a trace::Sink
/// that records every machine charge event (kind, addresses, length and the
/// exact bits of each charged double) while still folding the base class's
/// running total, so two runs compare their event vectors with ==.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "bt/machine.hpp"
#include "trace/sink.hpp"

namespace dbsp::test {

inline std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Every accumulator of two machines, bit for bit, and their memories.
inline void expect_same_state(const bt::Machine& a, const bt::Machine& b) {
    EXPECT_EQ(bits(a.cost()), bits(b.cost()));
    EXPECT_EQ(bits(a.transfer_latency_cost()), bits(b.transfer_latency_cost()));
    EXPECT_EQ(bits(a.transfer_volume_cost()), bits(b.transfer_volume_cost()));
    EXPECT_EQ(bits(a.word_access_cost()), bits(b.word_access_cost()));
    EXPECT_EQ(bits(a.unit_op_cost()), bits(b.unit_op_cost()));
    EXPECT_EQ(a.block_transfers(), b.block_transfers());
    EXPECT_TRUE(std::equal(a.raw().begin(), a.raw().end(), b.raw().begin()));
}

class RecordingSink final : public trace::Sink {
public:
    enum class Kind { kAccess, kAccessRange, kCharge, kBlockTransfer };

    struct Event {
        Kind kind;
        model::Addr a = 0;
        model::Addr b = 0;
        std::uint64_t len = 0;
        std::uint64_t cost_bits = 0;
        std::uint64_t latency_bits = 0;
        bool operator==(const Event&) const = default;
    };

    void access(model::Addr x, double cost) override {
        events.push_back({Kind::kAccess, x, 0, 0, std::bit_cast<std::uint64_t>(cost), 0});
        Sink::access(x, cost);
    }
    void access_range(std::span<const double> prefix, model::Addr begin,
                      model::Addr end) override {
        events.push_back({Kind::kAccessRange, begin, end, 0, 0, 0});
        Sink::access_range(prefix, begin, end);
    }
    void charge(double cost) override {
        events.push_back({Kind::kCharge, 0, 0, 0, std::bit_cast<std::uint64_t>(cost), 0});
        Sink::charge(cost);
    }
    void block_transfer(model::Addr src, model::Addr dst, std::uint64_t len, double latency,
                        double delta) override {
        events.push_back({Kind::kBlockTransfer, src, dst, len,
                          std::bit_cast<std::uint64_t>(delta),
                          std::bit_cast<std::uint64_t>(latency)});
        Sink::block_transfer(src, dst, len, latency, delta);
    }

    std::vector<Event> events;
};

}  // namespace dbsp::test
