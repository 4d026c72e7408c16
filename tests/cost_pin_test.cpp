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

#include <gtest/gtest.h>

#include <bit>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "algos/bitonic_sort.hpp"
#include "algos/permutation.hpp"
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
    std::vector<Word> keys(v);
    for (Word& k : keys) k = rng.next_below(1u << 20);
    return std::make_unique<algo::BitonicSortProgram>(keys);
}

struct Pin {
    const char* program;
    const char* f;
    std::uint64_t v;
    const char* hmm;    ///< HmmSimulator hmm_cost
    const char* naive;  ///< NaiveHmmSimulator hmm_cost
    const char* bt;     ///< BtSimulator bt_cost
    const char* bt_compute;  ///< BtSimulator compute_cost
};

AccessFunction function_named(const std::string& name) {
    return name == "log" ? AccessFunction::logarithmic() : AccessFunction::polynomial(0.5);
}

// Captured once from the executors. Regenerate only for an intended change
// to what the simulators charge, never to make a refactor pass.
const Pin kPins[] = {
    {"bitonic", "x^0.5", 32, "4110e2b741e588fd", "40fe3dcef25054ff", "413667d6d5601670",
     "411766f2f7acb83d"},
    {"bitonic", "x^0.5", 256, "41614e2ef6c82d9f", "4159112e168aaba1", "417de192b7b63208",
     "415ac6d2e305c8d2"},
    {"bitonic", "log", 32, "410a5b97f398a379", "40f263c54343483d", "4124a6af54189cef",
     "40fda59f53eb22ac"},
    {"bitonic", "log", 256, "415344f25d3bce0e", "413f2da6bdd9ebc6", "416d24214d776763",
     "41405936547e4f5a"},
    {"routing", "x^0.5", 32, "41196f91c92f2940", "40fdf3c18772bcff", "41294df06c7a886e",
     "40ff3ac35849d958"},
    {"routing", "x^0.5", 256, "41609b3b8b3caf15", "4144fac4e1bbf022", "415eb6933fe3c3ff",
     "41325cadf8875185"},
    {"routing", "log", 32, "410892baaee07f1e", "40e9c7cf6e3bbd4a", "4119dfb6b7492818",
     "40ed7d9d5f5b2806"},
    {"routing", "log", 256, "413f2350a1b9e30e", "4121606c3dfbdd53", "4150f68083cd4b3e",
     "411e479e6b697ad9"},
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
        bt_options.trace = sink;
        const auto bt = core::BtSimulator(f, bt_options).simulate(*bt_smoothed);
        EXPECT_EQ(bits(bt.bt_cost), pin.bt) << "bt_cost";
        EXPECT_EQ(bits(bt.compute_cost), pin.bt_compute) << "bt compute_cost";
        expect_mirror(pin.bt);
    }
}

TEST(CostPin, SimulatorCostsMatchCommittedBits) {
    for (const Pin& pin : kPins) {
        SCOPED_TRACE(std::string(pin.program) + " f=" + pin.f + " v=" + std::to_string(pin.v));
        check_pin(pin);
    }
}

}  // namespace
}  // namespace dbsp
