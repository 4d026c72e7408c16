#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "bt/machine.hpp"
#include "bt_test_support.hpp"
#include "core/bounds.hpp"
#include "util/rng.hpp"

namespace dbsp::bt {
namespace {

using model::AccessFunction;
using test::bits;
using test::expect_same_state;

TEST(BtMachine, BlockCopyCostIsMaxAccessPlusLength) {
    Machine m(AccessFunction::polynomial(0.5), 4096);
    for (int i = 0; i < 16; ++i) m.raw()[1000 + i] = 70 + i;
    m.reset_cost();
    m.block_copy(1000, 0, 16);
    EXPECT_EQ(m.raw()[0], 70u);
    EXPECT_EQ(m.raw()[15], 85u);
    // max(f(1015), f(15)) + 16.
    const double expected = AccessFunction::polynomial(0.5)(1015) + 16.0;
    EXPECT_NEAR(m.cost(), expected, 1e-9);
    EXPECT_EQ(m.block_transfers(), 1u);
}

TEST(BtMachine, BlockCopyCheaperThanElementwise) {
    // The whole point of the model: moving b cells from depth x costs
    // f(x) + b, not sum of f over the range.
    const auto f = AccessFunction::polynomial(0.5);
    Machine m(f, 1 << 16);
    m.reset_cost();
    m.block_copy((1 << 16) - 4096, 0, 4096);
    const double block_cost = m.cost();
    double elementwise = 0;
    for (std::uint64_t i = 0; i < 4096; ++i) elementwise += f((1 << 16) - 4096 + i);
    EXPECT_LT(block_cost, elementwise / 30.0);
}

TEST(BtMachineDeathTest, OverlappingBlockCopyAborts) {
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    Machine m(AccessFunction::constant(), 64);
    EXPECT_DEATH(m.block_copy(0, 4, 8), "Precondition");
}

TEST(BtMachine, ReadWriteStillChargeHmmCosts) {
    Machine m(AccessFunction::logarithmic(), 1024);
    m.write(14, 3);
    EXPECT_DOUBLE_EQ(m.cost(), 4.0);  // log2(14+2)
    EXPECT_EQ(m.read(14), 3u);
    EXPECT_DOUBLE_EQ(m.cost(), 8.0);
}

TEST(BtMachine, ChargeAccumulates) {
    Machine m(AccessFunction::constant(), 16);
    m.charge(2.5);
    m.charge(0.5);
    EXPECT_DOUBLE_EQ(m.cost(), 3.0);
}

struct CopyCase {
    model::Addr src, dst;
    std::uint64_t n;
};

// Disjoint both ways, overlapping both ways (the forward per-word loop
// smears a forward-overlapping copy), empty, and one word.
const CopyCase kCopyCases[] = {{3700, 10, 300}, {10, 3700, 300}, {100, 103, 50},
                               {103, 100, 50},  {7, 9, 0},       {4095, 0, 1}};

TEST(BtMachine, CopyWordsMatchesPerWordLoop) {
    for (const auto& f : {AccessFunction::polynomial(0.5), AccessFunction::logarithmic()}) {
        for (const CopyCase& c : kCopyCases) {
            SCOPED_TRACE(f.name() + " src=" + std::to_string(c.src) +
                         " dst=" + std::to_string(c.dst) + " n=" + std::to_string(c.n));
            Machine fused(f, 4096), loop(f, 4096);
            SplitMix64 rng(c.src * 31 + c.dst);
            for (std::uint64_t i = 0; i < 4096; ++i) fused.raw()[i] = loop.raw()[i] = rng.next();
            // Start from a large running cost: the per-cell costs of shallow
            // cells are finer than its ulp, so every add rounds and a
            // regrouped fold (read + write added at once) changes the bits.
            fused.charge(10000.0 / 3.0);
            loop.charge(10000.0 / 3.0);
            fused.copy_words(c.src, c.dst, c.n);
            for (std::uint64_t t = 0; t < c.n; ++t) loop.write(c.dst + t, loop.read(c.src + t));
            expect_same_state(fused, loop);
        }
    }
}

TEST(BtMachine, CopyWordsTracedEmitsThePerWordEventSequence) {
    const auto f = AccessFunction::polynomial(0.5);
    for (const CopyCase& c : kCopyCases) {
        SCOPED_TRACE("src=" + std::to_string(c.src) + " dst=" + std::to_string(c.dst));
        Machine fused(f, 4096), loop(f, 4096);
        test::RecordingSink fused_sink, loop_sink;
        fused.set_trace(&fused_sink);
        loop.set_trace(&loop_sink);
        for (std::uint64_t i = 0; i < 4096; ++i) fused.raw()[i] = loop.raw()[i] = i * 3 + 1;
        fused.copy_words(c.src, c.dst, c.n);
        for (std::uint64_t t = 0; t < c.n; ++t) loop.write(c.dst + t, loop.read(c.src + t));
        expect_same_state(fused, loop);
        EXPECT_EQ(fused_sink.events.size(), 2 * c.n);
        EXPECT_TRUE(fused_sink.events == loop_sink.events);
        EXPECT_EQ(bits(fused_sink.total()), bits(fused.cost()));
    }
}

TEST(BtMachineDeathTest, CopyWordsOutOfRangeAborts) {
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    Machine m(AccessFunction::constant(), 64);
    EXPECT_DEATH(m.copy_words(60, 0, 8), "Precondition");
    EXPECT_DEATH(m.copy_words(0, 60, 8), "Precondition");
}

}  // namespace
}  // namespace dbsp::bt
