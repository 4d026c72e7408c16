#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <complex>
#include <memory>
#include <string>
#include <vector>

#include "algos/bitonic_sort.hpp"
#include "algos/fft_recursive.hpp"
#include "algos/permutation.hpp"
#include "bt/machine.hpp"
#include "core/bt_simulator.hpp"
#include "core/hmm_simulator.hpp"
#include "core/self_simulator.hpp"
#include "core/smoothing.hpp"
#include "hmm/fft.hpp"
#include "hmm/machine.hpp"
#include "hmm/matmul.hpp"
#include "hmm/primitives.hpp"
#include "locality/sink.hpp"
#include "model/dbsp_machine.hpp"
#include "trace/aggregate.hpp"
#include "trace/chrome_trace.hpp"
#include "trace/sink.hpp"
#include "util/bits.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace dbsp {
namespace {

using model::AccessFunction;
using model::Word;

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// The paper's case-study access functions (same set as bench/common.hpp).
std::vector<AccessFunction> case_study_functions() {
    return {AccessFunction::polynomial(0.35), AccessFunction::polynomial(0.5),
            AccessFunction::logarithmic()};
}

std::unique_ptr<algo::BitonicSortProgram> make_sort_program(std::uint64_t v,
                                                            std::uint64_t seed) {
    SplitMix64 rng(seed);
    std::vector<Word> keys(v);
    for (auto& k : keys) k = rng.next();
    return std::make_unique<algo::BitonicSortProgram>(keys);
}

std::unique_ptr<algo::FftRecursiveProgram> make_fft_program(std::uint64_t v,
                                                            std::uint64_t seed) {
    SplitMix64 rng(seed);
    std::vector<std::complex<double>> x(v);
    for (auto& c : x) c = {rng.next_double() - 0.5, rng.next_double() - 0.5};
    return std::make_unique<algo::FftRecursiveProgram>(x);
}

bool has_dummy_step(const model::Program& program) {
    for (model::StepIndex s = 0; s < program.num_supersteps(); ++s) {
        if (program.is_dummy_step(s)) return true;
    }
    return false;
}

// ---------------------------------------------------------------------------
// Machine-level mirroring: the sink's total must equal the machine's charged
// cost bit for bit through every kind of charge event.
// ---------------------------------------------------------------------------

TEST(TraceSink, HmmMachineMirrorsChargedCostExactly) {
    for (const auto& f : case_study_functions()) {
        hmm::Machine traced(f, 4096);
        hmm::Machine untraced(f, 4096);
        trace::AggregateSink sink;
        traced.set_trace(&sink);

        const auto workload = [](hmm::Machine& m) {
            SplitMix64 rng(99);
            for (int i = 0; i < 200; ++i) {
                const model::Addr x = rng.next_below(4096);
                m.write(x, rng.next());
                (void)m.read(x / 2 + 1);
            }
            std::vector<Word> buf(64);
            m.read_range(100, buf);
            m.write_range(700, buf);
            m.swap_blocks(0, 2048, 512);
            m.copy_block(64, 1024, 128);
            m.charge_range(10, 300);
            m.charge(7.0);
        };
        workload(traced);
        workload(untraced);

        // Tracing never perturbs the charge stream...
        EXPECT_EQ(traced.cost(), untraced.cost()) << f.name();
        // ...and the mirror is exact, not approximate.
        EXPECT_EQ(sink.total(), traced.cost()) << f.name();

        // reset_cost clears the mirror too, and the equality holds again.
        traced.reset_cost();
        EXPECT_EQ(sink.total(), 0.0);
        (void)traced.read(321);
        traced.swap_blocks(8, 256, 32);
        EXPECT_EQ(sink.total(), traced.cost()) << f.name();
    }
}

// The native HMM algorithms charge through Machine::read/write as well as
// the bulk operations; with a sink attached every per-word charge must reach
// it, so the mirror stays exact and the locality engine sees every reference.
TEST(TraceSink, NativeHmmAlgorithmsMirrorChargedCostExactly) {
    struct Case {
        const char* name;
        std::uint64_t capacity;
        void (*run)(hmm::Machine&);
    };
    const Case cases[] = {
        {"touch_all", 4096, [](hmm::Machine& m) { (void)hmm::touch_all(m, 4096); }},
        {"oblivious_merge_sort", 2 * 4096,
         [](hmm::Machine& m) { hmm::oblivious_merge_sort(m, 4096); }},
        {"blocked_matmul", 4 * 256 + 64,
         [](hmm::Machine& m) { hmm::blocked_matmul(m, 256, 512, 768, 16); }},
        {"fft_natural", 6 * 256 + 64,
         [](hmm::Machine& m) { hmm::fft_natural(m, 2 * 256 + 32, 256); }},
    };
    for (const auto& f : case_study_functions()) {
        for (const Case& c : cases) {
            SCOPED_TRACE(std::string(c.name) + " f=" + f.name());
            hmm::Machine traced(f, c.capacity);
            hmm::Machine untraced(f, c.capacity);
            SplitMix64 rng(17);
            for (std::uint64_t i = 0; i < c.capacity; ++i) {
                const Word w = rng.next_below(1 << 16);
                traced.raw()[i] = w;
                untraced.raw()[i] = w;
            }
            trace::AggregateSink aggregate;
            locality::LocalitySink locality;
            trace::MultiSink multi{&aggregate, &locality};
            traced.set_trace(&multi);
            c.run(traced);
            c.run(untraced);

            EXPECT_EQ(bits(traced.cost()), bits(untraced.cost()));
            EXPECT_EQ(bits(aggregate.total()), bits(traced.cost()));
            EXPECT_EQ(bits(multi.total()), bits(traced.cost()));
            EXPECT_EQ(traced.words_touched(), untraced.words_touched());
            EXPECT_EQ(locality.recorded_accesses(), traced.words_touched());
            EXPECT_TRUE(std::equal(traced.raw().begin(), traced.raw().end(),
                                   untraced.raw().begin()));
        }
    }
}

TEST(TraceSink, BtMachineMirrorsChargedCostExactly) {
    for (const auto& f : case_study_functions()) {
        bt::Machine traced(f, 4096);
        bt::Machine untraced(f, 4096);
        trace::AggregateSink sink;
        traced.set_trace(&sink);

        const auto workload = [](bt::Machine& m) {
            SplitMix64 rng(7);
            for (int i = 0; i < 200; ++i) {
                const model::Addr x = rng.next_below(4096);
                m.write(x, rng.next());
                (void)m.read(x / 3 + 2);
            }
            std::vector<Word> buf(96);
            m.read_range(40, buf);
            m.write_range(900, buf);
            m.block_copy(0, 2048, 512);
            m.block_copy(1500, 8, 64);
            m.charge(3.0);
        };
        workload(traced);
        workload(untraced);

        EXPECT_EQ(traced.cost(), untraced.cost()) << f.name();
        EXPECT_EQ(sink.total(), traced.cost()) << f.name();
        EXPECT_EQ(sink.block_transfers(), 2u);
        EXPECT_EQ(sink.transfer_volume(), 512u + 64u);

        traced.reset_cost();
        EXPECT_EQ(sink.total(), 0.0);
        traced.block_copy(16, 128, 16);
        EXPECT_EQ(sink.total(), traced.cost()) << f.name();
    }
}

// ---------------------------------------------------------------------------
// End-to-end totals: for every case-study access function the trace total
// equals the simulator's charged cost exactly (EXPECT_EQ on doubles, no
// tolerance) and attaching the tracer does not change the charged cost.
// ---------------------------------------------------------------------------

TEST(TraceTotals, HmmSimulationMatchesChargedCost) {
    const std::uint64_t v = 64;
    for (const auto& f : case_study_functions()) {
        auto prog = make_sort_program(v, 11);
        auto smoothed = core::smooth(*prog, core::hmm_label_set(f, prog->context_words(), v));

        trace::AggregateSink sink;
        core::HmmSimulator::Options options;
        options.trace = &sink;
        const auto traced = core::HmmSimulator(f, options).simulate(*smoothed);

        auto prog2 = make_sort_program(v, 11);
        auto smoothed2 =
            core::smooth(*prog2, core::hmm_label_set(f, prog2->context_words(), v));
        const auto untraced = core::HmmSimulator(f).simulate(*smoothed2);

        EXPECT_EQ(sink.total(), traced.hmm_cost) << f.name();
        EXPECT_EQ(traced.hmm_cost, untraced.hmm_cost) << f.name();
    }
}

TEST(TraceTotals, BtSimulationMatchesChargedCost) {
    const std::uint64_t v = 64;
    for (const auto& f : case_study_functions()) {
        auto prog = make_sort_program(v, 13);
        auto smoothed = core::smooth(*prog, core::bt_label_set(f, prog->context_words(), v));

        trace::AggregateSink sink;
        core::BtSimulator::Options options;
        options.trace = &sink;
        const auto traced = core::BtSimulator(f, options).simulate(*smoothed);

        auto prog2 = make_sort_program(v, 13);
        auto smoothed2 =
            core::smooth(*prog2, core::bt_label_set(f, prog2->context_words(), v));
        const auto untraced = core::BtSimulator(f).simulate(*smoothed2);

        EXPECT_EQ(sink.total(), traced.bt_cost) << f.name();
        EXPECT_EQ(traced.bt_cost, untraced.bt_cost) << f.name();
    }
}

TEST(TraceTotals, BtRationalPermutationDeliveryMatchesChargedCost) {
    // FFT-rec declares transpose supersteps, so the rational-permutation
    // delivery path (kDeliverTranspose) is exercised. (FftRecursiveProgram
    // needs log v a power of two, hence v = 16.)
    const std::uint64_t v = 16;
    for (const auto& f : case_study_functions()) {
        auto prog = make_fft_program(v, 17);
        auto smoothed = core::smooth(*prog, core::bt_label_set(f, prog->context_words(), v));

        trace::AggregateSink sink;
        core::BtSimulator::Options options;
        options.use_rational_permutations = true;
        options.trace = &sink;
        const auto res = core::BtSimulator(f, options).simulate(*smoothed);

        EXPECT_EQ(sink.total(), res.bt_cost) << f.name();
        ASSERT_GT(res.transpose_invocations, 0u) << f.name();
        EXPECT_GT(sink.phase_cost(trace::Phase::kDeliverTranspose), 0.0) << f.name();
    }
}

TEST(TraceTotals, DirectDbspRunMatchesChargedTime) {
    const std::uint64_t v = 64;
    for (const auto& f : case_study_functions()) {
        auto prog = make_sort_program(v, 19);
        trace::AggregateSink sink;
        model::DbspMachine machine(f);
        machine.set_trace(&sink);
        const auto result = machine.run(*prog);

        auto prog2 = make_sort_program(v, 19);
        const auto plain = model::DbspMachine(f).run(*prog2);

        EXPECT_EQ(sink.total(), result.time) << f.name();
        EXPECT_EQ(result.time, plain.time) << f.name();
        // Supersteps are the only direct-run events: everything is attributed
        // to kSuperstep (per-label buckets reassociate, hence the tolerance).
        for (const auto& [key, stats] : sink.phases()) {
            EXPECT_EQ(key.phase, trace::Phase::kSuperstep);
        }
        EXPECT_NEAR(sink.phase_cost(trace::Phase::kSuperstep), sink.attributed_cost(),
                    1e-12 * result.time);
    }
}

TEST(TraceTotals, SelfSimulationMatchesHostTime) {
    const std::uint64_t v = 64;
    std::vector<unsigned> labels;
    for (unsigned l = 0; l <= ilog2(v); ++l) labels.push_back(ilog2(v) - l);
    for (const auto& f : case_study_functions()) {
        for (std::uint64_t vp : {1ull, 8ull, 64ull}) {
            algo::RandomRoutingProgram prog(v, labels, 23);
            trace::AggregateSink sink;
            core::SelfSimulator sim(f, vp);
            sim.set_trace(&sink);
            const auto host = sim.simulate(prog);

            algo::RandomRoutingProgram prog2(v, labels, 23);
            const auto plain = core::SelfSimulator(f, vp).simulate(prog2);

            EXPECT_EQ(sink.total(), host.host_time) << f.name() << " v'=" << vp;
            EXPECT_EQ(host.host_time, plain.host_time) << f.name() << " v'=" << vp;
        }
    }
}

TEST(TraceTotals, ReusedSinkRestartsMirrorEachSimulation) {
    // bench_micro reuses one sink across many simulate() calls; each run
    // starts from a fresh machine (cost 0), so the mirror must restart too.
    const auto f = AccessFunction::polynomial(0.5);
    trace::AggregateSink sink;
    core::HmmSimulator::Options options;
    options.trace = &sink;
    for (int rep = 0; rep < 3; ++rep) {
        auto prog = make_sort_program(64, 47);
        auto smoothed = core::smooth(*prog, core::hmm_label_set(f, prog->context_words(), 64));
        const auto res = core::HmmSimulator(f, options).simulate(*smoothed);
        EXPECT_EQ(sink.total(), res.hmm_cost) << "rep " << rep;
    }

    trace::AggregateSink bt_sink;
    core::BtSimulator::Options bt_options;
    bt_options.trace = &bt_sink;
    for (int rep = 0; rep < 2; ++rep) {
        auto prog = make_sort_program(64, 49);
        auto smoothed = core::smooth(*prog, core::bt_label_set(f, prog->context_words(), 64));
        const auto res = core::BtSimulator(f, bt_options).simulate(*smoothed);
        EXPECT_EQ(bt_sink.total(), res.bt_cost) << "rep " << rep;
    }
}

// ---------------------------------------------------------------------------
// Attribution content.
// ---------------------------------------------------------------------------

TEST(TraceAggregate, HmmAttributionCoversSimulationPhases) {
    const std::uint64_t v = 64;
    const auto f = AccessFunction::polynomial(0.5);
    auto prog = make_sort_program(v, 29);
    auto smoothed = core::smooth(*prog, core::hmm_label_set(f, prog->context_words(), v));
    const bool smoothing_inserted_dummies = has_dummy_step(*smoothed);

    trace::AggregateSink sink;
    core::HmmSimulator::Options options;
    options.trace = &sink;
    const auto res = core::HmmSimulator(f, options).simulate(*smoothed);

    // Every unit of charge is attributed somewhere; the bucket sum re-adds
    // the same charges in per-bucket order, so it matches to roundoff.
    EXPECT_NEAR(sink.attributed_cost(), res.hmm_cost, 1e-9 * res.hmm_cost);
    EXPECT_GT(sink.phase_cost(trace::Phase::kStepExec), 0.0);
    EXPECT_GT(sink.phase_cost(trace::Phase::kContextMove), 0.0);
    EXPECT_GT(sink.phase_cost(trace::Phase::kDeliver), 0.0);
    EXPECT_EQ(sink.phase_cost(trace::Phase::kDummyStep) > 0.0, smoothing_inserted_dummies);
    EXPECT_GT(sink.message_count(), 0u);
    EXPECT_FALSE(sink.levels().empty());

    // Charges land across several hierarchy levels, and a cheap level is hit:
    // the simulation keeps the active cluster at the top of memory.
    EXPECT_GE(sink.levels().size(), 3u);
    EXPECT_LE(sink.levels().begin()->first, 4u);

    // The human-readable report mentions every active phase.
    const std::string report = sink.to_string();
    EXPECT_NE(report.find("step-exec"), std::string::npos);
    EXPECT_NE(report.find("context-move"), std::string::npos);
    EXPECT_NE(report.find("deliver"), std::string::npos);
}

TEST(TraceAggregate, SelfSimulationPhasesArePartitioned) {
    const std::uint64_t v = 64;
    const auto f = AccessFunction::logarithmic();
    std::vector<unsigned> labels = {0, 6, 6, 0, 6, 3};
    algo::RandomRoutingProgram prog(v, labels, 31);
    trace::AggregateSink sink;
    core::SelfSimulator sim(f, 8);
    sim.set_trace(&sink);
    const auto host = sim.simulate(prog);

    EXPECT_EQ(sink.total(), host.host_time);
    EXPECT_GT(sink.phase_cost(trace::Phase::kLocalRun), 0.0);
    EXPECT_GT(sink.phase_cost(trace::Phase::kGlobalStep), 0.0);
    // Local runs + global supersteps partition the host time.
    EXPECT_NEAR(sink.phase_cost(trace::Phase::kLocalRun) +
                    sink.phase_cost(trace::Phase::kGlobalStep),
                host.host_time, 1e-9 * host.host_time);
}

// ---------------------------------------------------------------------------
// Concrete sinks and fan-out.
// ---------------------------------------------------------------------------

TEST(TraceChrome, WriterRecordsScopesWithExactTotal) {
    const std::uint64_t v = 64;
    const auto f = AccessFunction::polynomial(0.35);
    auto prog = make_sort_program(v, 37);
    auto smoothed = core::smooth(*prog, core::hmm_label_set(f, prog->context_words(), v));

    trace::ChromeTraceSink sink("hmm");
    core::HmmSimulator::Options options;
    options.trace = &sink;
    const auto res = core::HmmSimulator(f, options).simulate(*smoothed);

    EXPECT_EQ(sink.total(), res.hmm_cost);
    EXPECT_GT(sink.event_count(), 0u);
    const std::string json = sink.to_json();
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"tid\":\"hmm\""), std::string::npos);
    EXPECT_NE(json.find("step-exec"), std::string::npos);
}

TEST(TraceMulti, FanOutKeepsEveryChildExact) {
    const std::uint64_t v = 64;
    const auto f = AccessFunction::polynomial(0.5);
    auto prog = make_sort_program(v, 41);
    auto smoothed = core::smooth(*prog, core::bt_label_set(f, prog->context_words(), v));

    trace::AggregateSink aggregate;
    trace::ChromeTraceSink chrome("bt");
    trace::MultiSink multi({&aggregate, &chrome});
    core::BtSimulator::Options options;
    options.trace = &multi;
    const auto res = core::BtSimulator(f, options).simulate(*smoothed);

    EXPECT_EQ(multi.total(), res.bt_cost);
    EXPECT_EQ(aggregate.total(), res.bt_cost);
    EXPECT_EQ(chrome.total(), res.bt_cost);
    EXPECT_GT(chrome.event_count(), 0u);
}

// ---------------------------------------------------------------------------
// Thread safety of the intended usage: one private sink per sweep point.
// ---------------------------------------------------------------------------

TEST(TraceParallel, OneSinkPerSweepPointIsExactUnderParallelFor) {
    struct Point {
        AccessFunction f;
        std::uint64_t v;
    };
    std::vector<Point> points;
    for (const auto& f : case_study_functions()) {
        for (std::uint64_t v : {16u, 64u}) points.push_back({f, v});
    }

    std::vector<double> traced_cost(points.size()), mirrored(points.size()),
        untraced_cost(points.size());
    util::parallel_for(
        points.size(),
        [&](std::size_t i) {
            const auto& [f, v] = points[i];
            auto prog = make_sort_program(v, 43 + v);
            auto smoothed =
                core::smooth(*prog, core::hmm_label_set(f, prog->context_words(), v));
            trace::AggregateSink sink;  // private to this sweep point
            core::HmmSimulator::Options options;
            options.trace = &sink;
            traced_cost[i] = core::HmmSimulator(f, options).simulate(*smoothed).hmm_cost;
            mirrored[i] = sink.total();

            auto prog2 = make_sort_program(v, 43 + v);
            auto smoothed2 =
                core::smooth(*prog2, core::hmm_label_set(f, prog2->context_words(), v));
            untraced_cost[i] = core::HmmSimulator(f).simulate(*smoothed2).hmm_cost;
        },
        4);

    for (std::size_t i = 0; i < points.size(); ++i) {
        EXPECT_EQ(mirrored[i], traced_cost[i]) << "point " << i;
        EXPECT_EQ(traced_cost[i], untraced_cost[i]) << "point " << i;
    }
}

}  // namespace
}  // namespace dbsp
