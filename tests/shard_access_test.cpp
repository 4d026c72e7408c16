// The accessor contract of core/shard_access.hpp: a ShardAccessor folded once
// into a fresh machine with merge_shard, charging at its physical address
// (vbase == pbase), is indistinguishable from the machine charging the same
// accesses itself through MachineAccessor — same cost bits, same counters,
// same memory, same trace events and sink total — on both machines, traced
// and untraced.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "bt/machine.hpp"
#include "bt_test_support.hpp"
#include "core/shard_access.hpp"
#include "hmm/machine.hpp"
#include "util/rng.hpp"

namespace dbsp {
namespace {

using model::AccessFunction;
using model::Word;
using test::bits;
using test::RecordingSink;

constexpr std::uint64_t kCapacity = 4096;
constexpr model::Addr kBase = 1000;
constexpr std::size_t kMu = 300;

/// A random get/set/get_range/set_range sequence over one context (empty
/// ranges included); returns every word it read.
std::vector<Word> drive(model::ContextAccessor& acc, std::uint64_t seed) {
    SplitMix64 rng(seed);
    std::vector<Word> seen, buf(kMu);
    for (int i = 0; i < 400; ++i) {
        const std::size_t index = rng.next_below(kMu);
        const std::size_t len = rng.next_below(kMu - index + 1);
        const std::span<Word> range(buf.data(), len);
        switch (rng.next_below(4)) {
            case 0:
                seen.push_back(acc.get(index));
                break;
            case 1:
                acc.set(index, rng.next());
                break;
            case 2:
                acc.get_range(index, range);
                seen.insert(seen.end(), range.begin(), range.end());
                break;
            case 3:
                for (Word& w : range) w = rng.next();
                acc.set_range(index, range);
                break;
        }
    }
    return seen;
}

void expect_same_counters(const hmm::Machine& a, const hmm::Machine& b) {
    EXPECT_EQ(bits(a.cost()), bits(b.cost()));
    EXPECT_EQ(a.words_touched(), b.words_touched());
    EXPECT_TRUE(std::equal(a.raw().begin(), a.raw().end(), b.raw().begin()));
}

void expect_same_counters(const bt::Machine& a, const bt::Machine& b) {
    test::expect_same_state(a, b);  // cost, its decomposition, memory
}

template <class Machine, class Account, bool Traced>
void check_shard_matches_machine() {
    for (const AccessFunction& f :
         {AccessFunction::polynomial(0.5), AccessFunction::logarithmic()}) {
        SCOPED_TRACE(f.name());
        Machine sharded(f, kCapacity), direct(f, kCapacity);
        SplitMix64 fill(3);
        for (std::uint64_t i = 0; i < kCapacity; ++i) {
            sharded.raw()[i] = direct.raw()[i] = fill.next();
        }
        RecordingSink sharded_sink, direct_sink;
        if (Traced) {
            sharded.set_trace(&sharded_sink);
            direct.set_trace(&direct_sink);
        }

        Account account;
        if (Traced) sharded_sink.shard_begin();
        core::ShardAccessor<Machine, Account, Traced> shard(sharded, account, kBase, kBase,
                                                            kMu);
        const std::vector<Word> sharded_seen = drive(shard, 41);
        sharded.merge_shard(account);
        if (Traced) sharded_sink.shard_end();

        core::MachineAccessor<Machine> pinned(direct, kBase, kMu);
        const std::vector<Word> direct_seen = drive(pinned, 41);

        EXPECT_EQ(sharded_seen, direct_seen);
        expect_same_counters(sharded, direct);
        EXPECT_GT(sharded.cost(), 0.0);
        EXPECT_EQ(sharded_sink.events, direct_sink.events);
        EXPECT_EQ(sharded_sink.events.empty(), !Traced);
        if (Traced) {
            EXPECT_EQ(bits(sharded_sink.total()), bits(sharded.cost()));
            EXPECT_EQ(bits(direct_sink.total()), bits(direct.cost()));
        }
    }
}

TEST(ShardAccessor, HmmMatchesMachineAccessor) {
    check_shard_matches_machine<hmm::Machine, hmm::ShardAccount, false>();
}

TEST(ShardAccessor, HmmTracedMatchesMachineAccessor) {
    check_shard_matches_machine<hmm::Machine, hmm::ShardAccount, true>();
}

TEST(ShardAccessor, BtMatchesMachineAccessor) {
    check_shard_matches_machine<bt::Machine, bt::ShardAccount, false>();
}

TEST(ShardAccessor, BtTracedMatchesMachineAccessor) {
    check_shard_matches_machine<bt::Machine, bt::ShardAccount, true>();
}

}  // namespace
}  // namespace dbsp
