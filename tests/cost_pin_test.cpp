/// Pins the charged costs of every simulator to committed IEEE-754 bit
/// patterns. The other executor tests compare executors with each other;
/// these compare each one against fixed numbers, so a change to how charges
/// are folded (per-context accounts, 64-processor blocks, sink brackets)
/// fails here even when every executor changes the same way. Folds whose
/// reordering can leave these sums unchanged, such as whole delivery blocks,
/// are checked directly by DeliverMessages.FoldsEachBlockInsideOneBracket.
///
/// v must be a power of two (model::ClusterTree), so the sizes are 32 — one
/// partial 64-processor block — and 256, four full blocks whose folds must
/// stay in ascending block order. Bitonic sort sends one message per
/// processor to a partner; random routing sends four to scattered targets,
/// so every inbox block mixes senders from all blocks.
///
/// The BT pins also fix every term of the cost decomposition and the
/// block-transfer count, so a fast path that moves a charge from one term to
/// another, or splits or merges a transfer, fails even when the total lands
/// on the same bits. One pin runs a transpose-class program with rational
/// permutations on (Section 6 delivery); the sort pin fixes the BT merge
/// sort alone, at a size whose staging tower has more than one level.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "algos/bitonic_sort.hpp"
#include "algos/permutation.hpp"
#include "algos/transpose_program.hpp"
#include "bt/primitives.hpp"
#include "bt/sort.hpp"
#include "core/bt_simulator.hpp"
#include "core/hmm_simulator.hpp"
#include "core/naive_hmm_simulator.hpp"
#include "core/smoothing.hpp"
#include "trace/aggregate.hpp"
#include "trace/sink.hpp"
#include "util/rng.hpp"

namespace dbsp {
namespace {

using model::AccessFunction;
using model::Word;

std::string bits(double x) {
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, std::bit_cast<std::uint64_t>(x));
    return buf;
}

std::unique_ptr<model::Program> make_program(const std::string& name, std::uint64_t v) {
    if (name == "routing") {
        const auto half = static_cast<unsigned>(std::bit_width(v) / 2);
        return std::make_unique<algo::RandomRoutingProgram>(
            v, std::vector<unsigned>{0, half, 0}, 77, /*local_ops=*/2, /*fill_messages=*/3);
    }
    SplitMix64 rng(1234 + v);
    if (name == "transpose") {
        std::vector<Word> values(v);
        for (Word& x : values) x = rng.next();
        return std::make_unique<algo::TransposeProgram>(values, 2);
    }
    std::vector<Word> keys(v);
    for (Word& k : keys) k = rng.next_below(1u << 20);
    return std::make_unique<algo::BitonicSortProgram>(keys);
}

/// BtSimulator result: bt_cost and its two decompositions (by operation
/// kind and by simulation phase), plus the block-transfer count.
struct BtPin {
    const char* cost;
    const char* compute;
    const char* transfer_latency;
    const char* transfer_volume;
    const char* word_access;
    const char* deliver;
    const char* layout;
    std::uint64_t block_transfers;
};

struct Pin {
    const char* program;
    const char* f;
    std::uint64_t v;
    const char* hmm;    ///< HmmSimulator hmm_cost
    const char* naive;  ///< NaiveHmmSimulator hmm_cost
    BtPin bt;
    bool rational_permutations = false;  ///< BtSimulator option
};

AccessFunction function_named(const std::string& name) {
    return name == "log" ? AccessFunction::logarithmic() : AccessFunction::polynomial(0.5);
}

// Captured once from the executors. Regenerate only for an intended change
// to what the simulators charge, never to make a refactor pass.
const Pin kPins[] = {
    {"bitonic", "x^0.5", 32, "4110e2b741e588fd", "40fe3dcef25054ff",
     {"413667d6d5601670", "411766f2f7acb83d", "4122b977aea2f7fc", "410389b800000000",
      "4124f969fc1d2fbd", "4130400f0c260b8d", "40d382c2d3b734f0", 10285}},
    {"bitonic", "x^0.5", 256, "41614e2ef6c82d9f", "4159112e168aaba1",
     {"417de192b7b63208", "415ac6d2e305c8d2", "41691d6d5919e1a5", "414dbe9580000000",
      "416aeb72d653229c", "417680fb33e8e23a", "4125dc59617bb32a", 201164}},
    {"bitonic", "log", 32, "410a5b97f398a379", "40f263c54343483d",
     {"4124a6af54189cef", "40fda59f53eb22ac", "410e515f8c52a43a", "41025eb800000000",
      "41108096e207f010", "41209a828257c304", "40c5de39d0dd6560", 20434}},
    {"bitonic", "log", 256, "415344f25d3bce0e", "413f2da6bdd9ebc6",
     {"416d24214d776763", "41405936547e4f5a", "4155b83793364f04", "4149d5a880000000",
      "4157077707bcb780", "41685980b49a6717", "41168a6077ad8ebc", 444405}},
    {"routing", "x^0.5", 32, "41196f91c92f2940", "40fdf3c18772bcff",
     {"41294df06c7a886e", "40ff3ac35849d958", "410ede74ab821d73", "40fb4fd000000000",
      "411c0f4e8334034d", "412513ede3da7b86", "40c4aa8765b46f40", 4158}},
    {"routing", "x^0.5", 256, "41609b3b8b3caf15", "4144fac4e1bbf022",
     {"415eb6933fe3c3ff", "41325cadf8875185", "414959cd4df3dbd2", "41382a9d00000000",
      "41479eb9b1d421de", "4159dd4b2391f271", "40f087278bff4b20", 64002}},
    {"routing", "log", 32, "410892baaee07f1e", "40e9c7cf6e3bbd4a",
     {"4119dfb6b7492818", "40ed7d9d5f5b2806", "4100a231d3135e0b", "40f9d7d000000000",
      "41059e8b9b7ee987", "4115b1c2189e8ef9", "40bf903cafcd0790", 10952}},
    {"routing", "log", 256, "413f2350a1b9e30e", "4121606c3dfbdd53",
     {"4150f68083cd4b3e", "411e479e6b697ad9", "4137ab91a55c7ec1", "412e77fa00000000",
      "413c33d169d8c2f3", "414da9426c4ff769", "40eeb2b3775bedf2", 111565}},
    {"transpose", "x^0.5", 256, "4131485d20c1322b", "41172edcb202ea39",
     {"41332f6aab31b69c", "412328983d361005", "4123c118146789c0", "410751e800000000",
      "4119568683f7b7ae", "41229a1a1d7a780d", "40d3845f765ca4c0", 10412},
     /*rational_permutations=*/true},
};

/// Runs every simulator once untraced and once with a MultiSink (fanning
/// out to an AggregateSink and a plain Sink) attached; the traced run and
/// every sink mirror must land on the same pinned bits.
void check_pin(const Pin& pin) {
    const AccessFunction f = function_named(pin.f);
    const std::uint64_t v = pin.v;
    for (const bool traced : {false, true}) {
        SCOPED_TRACE(traced ? "MultiSink attached" : "untraced");
        trace::AggregateSink aggregate;
        trace::Sink plain;
        trace::MultiSink multi{&aggregate, &plain};
        trace::Sink* const sink = traced ? &multi : nullptr;
        const auto expect_mirror = [&](const char* pinned) {
            if (!traced) return;
            EXPECT_EQ(bits(multi.total()), pinned);
            EXPECT_EQ(bits(aggregate.total()), pinned);
            EXPECT_EQ(bits(plain.total()), pinned);
        };

        const auto program = make_program(pin.program, v);
        const std::size_t mu = program->layout().context_words();

        auto hmm_smoothed = core::smooth(*program, core::hmm_label_set(f, mu, v));
        core::HmmSimulator::Options hmm_options;
        hmm_options.trace = sink;
        const auto hmm = core::HmmSimulator(f, hmm_options).simulate(*hmm_smoothed);
        EXPECT_EQ(bits(hmm.hmm_cost), pin.hmm) << "hmm_cost";
        expect_mirror(pin.hmm);

        core::NaiveHmmSimulator::Options naive_options;
        naive_options.trace = sink;
        const auto naive = core::NaiveHmmSimulator(f, naive_options).simulate(*program);
        EXPECT_EQ(bits(naive.hmm_cost), pin.naive) << "naive hmm_cost";
        expect_mirror(pin.naive);

        auto bt_smoothed = core::smooth(*program, core::bt_label_set(f, mu, v));
        core::BtSimulator::Options bt_options;
        bt_options.use_rational_permutations = pin.rational_permutations;
        bt_options.trace = sink;
        const auto bt = core::BtSimulator(f, bt_options).simulate(*bt_smoothed);
        EXPECT_EQ(bits(bt.bt_cost), pin.bt.cost) << "bt_cost";
        EXPECT_EQ(bits(bt.compute_cost), pin.bt.compute) << "bt compute_cost";
        EXPECT_EQ(bits(bt.transfer_latency), pin.bt.transfer_latency) << "bt transfer_latency";
        EXPECT_EQ(bits(bt.transfer_volume), pin.bt.transfer_volume) << "bt transfer_volume";
        EXPECT_EQ(bits(bt.word_access), pin.bt.word_access) << "bt word_access";
        EXPECT_EQ(bits(bt.deliver_cost), pin.bt.deliver) << "bt deliver_cost";
        EXPECT_EQ(bits(bt.layout_cost), pin.bt.layout) << "bt layout_cost";
        EXPECT_EQ(bt.block_transfers, pin.bt.block_transfers) << "bt block_transfers";
        if (pin.rational_permutations) {
            EXPECT_GT(bt.transpose_invocations, 0u) << "rational pin must deliver by transpose";
        }
        expect_mirror(pin.bt.cost);
    }
}

TEST(CostPin, SimulatorCostsMatchCommittedBits) {
    for (const Pin& pin : kPins) {
        SCOPED_TRACE(std::string(pin.program) + " f=" + pin.f + " v=" + std::to_string(pin.v));
        check_pin(pin);
    }
}

/// The BT merge sort alone: 2000 five-word records under x^0.5, placed deep
/// enough that each merge lane's staging tower has two levels, so record
/// moves cross both a level-to-level spill and an inner refill.
TEST(CostPin, MergeSortRecordsMatchesCommittedBits) {
    const AccessFunction f = AccessFunction::polynomial(0.5);
    const std::uint64_t n = 2000, r = 5, total = n * r;
    const model::Addr stage = 0, stage_words = 3 * 1024, base = 8192;
    const model::Addr scratch = base + total;
    for (const bool traced : {false, true}) {
        SCOPED_TRACE(traced ? "MultiSink attached" : "untraced");
        trace::AggregateSink aggregate;
        trace::Sink plain;
        trace::MultiSink multi{&aggregate, &plain};
        bt::Machine m(f, scratch + total);
        SplitMix64 rng(2024);
        for (std::uint64_t i = 0; i < total; ++i) m.raw()[base + i] = rng.next_below(64);
        if (traced) m.set_trace(&multi);

        // The lane tower merge_sort_records builds: chunk sized by f at the
        // deepest cell it touches, rounded down to whole records.
        std::uint64_t chunk = bt::chunk_words(m, scratch + total - 1, stage_words / 3);
        chunk = std::max<std::uint64_t>(chunk - chunk % r, r);
        const bt::StageTower tower(m, stage, chunk, r, /*lane=*/0, /*lanes=*/3);
        ASSERT_EQ(tower.levels.size(), 2u);

        bt::merge_sort_records(m, base, n, r, scratch, stage, stage_words);
        for (std::uint64_t i = 1; i < n; ++i) {
            const auto* prev = &m.raw()[base + (i - 1) * r];
            const auto* cur = &m.raw()[base + i * r];
            ASSERT_TRUE(prev[0] < cur[0] || (prev[0] == cur[0] && prev[1] <= cur[1])) << i;
        }
        EXPECT_EQ(bits(m.cost()), "4146327e840efd87");
        EXPECT_EQ(bits(m.transfer_latency_cost()), "413216a1e85be4d1");
        EXPECT_EQ(bits(m.transfer_volume_cost()), "411b6fc000000000");
        EXPECT_EQ(bits(m.word_access_cost()), "413307d41fc202e3");
        EXPECT_EQ(bits(m.unit_op_cost()), "40daa5c000000000");
        EXPECT_EQ(m.block_transfers(), 25129u);
        if (traced) {
            EXPECT_EQ(bits(multi.total()), bits(m.cost()));
            EXPECT_EQ(bits(aggregate.total()), bits(m.cost()));
            EXPECT_EQ(bits(plain.total()), bits(m.cost()));
        }
    }
}

}  // namespace
}  // namespace dbsp
