/// Tests for src/locality/: the reuse-distance engine (cross-checked against
/// a move-to-front LRU list, per reference and on recorded streams of up to
/// a million references), the derived analytics (histograms, working set,
/// per-level slicing), and the LocalitySink's count/cost agreement with
/// hmm::Machine.

#include <algorithm>
#include <cmath>
#include <complex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "algos/fft_direct.hpp"
#include "core/hmm_simulator.hpp"
#include "core/naive_hmm_simulator.hpp"
#include "core/smoothing.hpp"
#include "hmm/machine.hpp"
#include "locality/profile.hpp"
#include "locality/recorder.hpp"
#include "locality/reuse_distance.hpp"
#include "locality/sink.hpp"
#include "report/json.hpp"
#include "trace/sink.hpp"
#include "util/rng.hpp"

namespace dbsp::locality {
namespace {

TEST(ReuseDistance, FirstTouchesAreCold) {
    ReuseDistanceProfiler prof;
    for (Addr x = 0; x < 100; ++x) {
        const auto e = prof.record(x);
        EXPECT_TRUE(e.cold);
    }
    EXPECT_EQ(prof.accesses(), 100u);
    EXPECT_EQ(prof.distinct_addresses(), 100u);
}

TEST(ReuseDistance, RepeatedSingleAddressIsDistanceZero) {
    ReuseDistanceProfiler prof;
    EXPECT_TRUE(prof.record(42).cold);
    for (int i = 0; i < 50; ++i) {
        const auto e = prof.record(42);
        EXPECT_FALSE(e.cold);
        EXPECT_EQ(e.distance, 0u);
        EXPECT_EQ(e.time, 1u);
    }
    EXPECT_EQ(prof.distinct_addresses(), 1u);
}

TEST(ReuseDistance, CyclicStreamHasDistanceKMinusOne) {
    constexpr std::uint64_t k = 12;
    ReuseDistanceProfiler prof;
    for (std::uint64_t i = 0; i < 5 * k; ++i) {
        const auto e = prof.record(i % k);
        if (i < k) {
            EXPECT_TRUE(e.cold);
        } else {
            EXPECT_FALSE(e.cold);
            EXPECT_EQ(e.distance, k - 1);
            EXPECT_EQ(e.time, k);
        }
    }
}

/// Independent LRU oracle: a move-to-front list with the most recent
/// address at the back, so a reference costs O(distance) — the depth of its
/// previous touch below the top — plus a last-use clock per address for the
/// reuse time.
struct MoveToFrontLru {
    std::vector<Addr> stack;
    std::unordered_map<Addr, std::uint64_t> last_use;
    std::uint64_t clock = 0;

    ReuseDistanceProfiler::Event touch(Addr x) {
        ++clock;
        auto [it, cold] = last_use.try_emplace(x, clock);
        if (cold) {
            stack.push_back(x);
            return {true, 0, 0};
        }
        const std::uint64_t time = clock - it->second;
        it->second = clock;
        std::uint64_t depth = 0;
        auto pos = stack.end() - 1;
        while (*pos != x) {
            --pos;
            ++depth;
        }
        std::copy(pos + 1, stack.end(), pos);
        stack.back() = x;
        return {false, depth, time};
    }

    /// The profile of a whole reference stream, one note() per reference.
    static LocalityProfile profile_of(const std::vector<Addr>& stream) {
        MoveToFrontLru lru;
        LocalityProfile p;
        for (const Addr x : stream) p.note(lru.touch(x));
        p.distinct_addresses = lru.stack.size();
        return p;
    }
};

TEST(ReuseDistance, MatchesBruteForceStackSimulation) {
    ReuseDistanceProfiler prof;
    MoveToFrontLru brute;
    SplitMix64 rng(99);
    for (int i = 0; i < 10000; ++i) {
        // Skewed address distribution so short and long distances both occur.
        const Addr x = rng.next_below(3) == 0 ? rng.next_below(8) : rng.next_below(300);
        const auto got = prof.record(x);
        const auto want = brute.touch(x);
        ASSERT_EQ(got.cold, want.cold) << "access " << i;
        if (!got.cold) {
            ASSERT_EQ(got.distance, want.distance) << "access " << i;
            ASSERT_EQ(got.time, want.time) << "access " << i;
        }
    }
    EXPECT_EQ(prof.distinct_addresses(), brute.stack.size());
}

/// Feed \p sink one random mix of events until the recorder holds
/// \p references references. Addresses lie in [0, span): single words
/// (scattered and skewed toward a hot set, or ascending runs the
/// LocalitySink coalesces into one range), ranges, one- and two-range block
/// ops with one or two touches per cell, and block transfers.
void drive(trace::Sink& sink, const RecordingSink& rec, std::span<const double> prefix,
           Addr span, std::uint64_t seed, std::size_t references) {
    SplitMix64 rng(seed);
    while (rec.stream().size() < references) {
        const Addr len = 1 + rng.next_below(std::min<Addr>(64, span));
        const Addr a = rng.next_below(span - len + 1);
        const Addr b = rng.next_below(span - len + 1);
        switch (rng.next_below(6)) {
            case 0: {
                const Addr x =
                    rng.next_below(4) == 0 ? rng.next_below(16) : rng.next_below(span);
                sink.access(x, prefix[x + 1] - prefix[x]);
                break;
            }
            case 1:
                for (Addr x = a; x < a + len; ++x) {
                    sink.access(x, prefix[x + 1] - prefix[x]);
                }
                break;
            case 2:
                sink.access_range(prefix, a, a + len);
                break;
            case 3:
                sink.block_op(prefix, 0.0, static_cast<unsigned>(1 + rng.next_below(2)),
                              {{a, a + len}});
                break;
            case 4:
                sink.block_op(prefix, 0.0, 2, {{a, a + len}, {b, b + len}});
                break;
            case 5:
                sink.block_transfer(a, b, len, 1.0, 1.0);
                break;
        }
    }
}

TEST(LocalitySink, RecordedStreamsMatchTheMoveToFrontOracle) {
    // A million references over a few hundred addresses: the live set stays
    // tiny while positions are used up fast, so the engine renumbers its
    // position space hundreds of times mid-stream.
    for (const Addr span : {Addr{48}, Addr{384}}) {
        SCOPED_TRACE("span " + std::to_string(span));
        std::vector<double> prefix(span + 1);
        for (Addr x = 0; x <= span; ++x) prefix[x] = static_cast<double>(x);
        RecordingSink rec;
        LocalitySink sink;
        trace::MultiSink both{&rec, &sink};
        drive(both, rec, prefix, span, 1000 + span, 1000000);
        EXPECT_EQ(sink.recorded_accesses(), rec.stream().size());
        const LocalityProfile got = sink.profile();
        const LocalityProfile want = MoveToFrontLru::profile_of(rec.stream());
        EXPECT_EQ(got.cold_misses, want.cold_misses);
        EXPECT_EQ(got.distance_count, want.distance_count);
        EXPECT_TRUE(got.identical(want));
    }
}

TEST(ReuseDistance, FarAddressesMatchTheMoveToFrontOracle) {
    // Addresses from 2^26 up live in the engine's hash map rather than its
    // direct array (which grows to the highest direct address touched, so
    // this stream keeps its direct cells low). Cells at 2^26 and near 2^40
    // mix with low ones, through both record() and record_range() with one
    // or two touches per cell. The engine is driven directly: a LocalitySink
    // would need a cost prefix table spanning every address.
    const Addr bases[] = {0, Addr{1} << 26, Addr{1} << 40};
    ReuseDistanceProfiler engine;
    LocalityProfile got;
    const auto fold = [&](const ReuseDistanceProfiler::Event& e, std::uint64_t n) {
        got.note_run(e, n);
    };
    std::vector<Addr> stream;
    SplitMix64 rng(26);
    while (stream.size() < 300000) {
        const Addr base = bases[rng.next_below(3)];
        const Addr begin = base + rng.next_below(384);
        if (rng.next_below(3) == 0) {
            got.note(engine.record(begin));
            stream.push_back(begin);
            continue;
        }
        const Addr end = begin + 1 + rng.next_below(64);
        const auto touches = static_cast<unsigned>(1 + rng.next_below(2));
        engine.record_range(begin, end, touches, fold);
        for (Addr x = begin; x < end; ++x) stream.insert(stream.end(), touches, x);
    }
    got.distinct_addresses = engine.distinct_addresses();
    EXPECT_EQ(engine.accesses(), stream.size());
    EXPECT_TRUE(got.identical(MoveToFrontLru::profile_of(stream)));
}

TEST(Profile, LevelCapacityBoundarySlicingIsExact) {
    // A cyclic stream over 2^j addresses reuses at distance 2^j - 1: it hits
    // a memory of capacity 2^j (level j) and misses every smaller one.
    constexpr unsigned j = 4;
    constexpr std::uint64_t k = 1u << j;  // 16 addresses
    ReuseDistanceProfiler prof;
    LocalityProfile profile;
    constexpr std::uint64_t rounds = 8;
    for (std::uint64_t i = 0; i < rounds * k; ++i) profile.note(prof.record(i % k));
    profile.distinct_addresses = prof.distinct_addresses();

    EXPECT_EQ(profile.accesses, rounds * k);
    EXPECT_EQ(profile.cold_misses, k);
    const double finite = static_cast<double>((rounds - 1) * k);
    const double total = static_cast<double>(rounds * k);
    EXPECT_DOUBLE_EQ(profile.hit_fraction(j), finite / total);
    EXPECT_DOUBLE_EQ(profile.hit_fraction(j - 1), 0.0);
    EXPECT_EQ(profile.max_level(), j);
    // Locality score: every finite distance is k - 1.
    EXPECT_NEAR(profile.locality_score(), std::log2(static_cast<double>(k)), 1e-12);
}

TEST(Profile, WorkingSetMatchesDirectDenningSum) {
    ReuseDistanceProfiler prof;
    LocalityProfile profile;
    std::vector<std::uint64_t> reuse_times;  // finite reuse times, in order
    SplitMix64 rng(5);
    constexpr std::uint64_t T = 3000;
    std::uint64_t cold = 0;
    for (std::uint64_t i = 0; i < T; ++i) {
        const auto e = prof.record(rng.next_below(64));
        profile.note(e);
        if (e.cold) {
            ++cold;
        } else {
            reuse_times.push_back(e.time);
        }
    }
    profile.distinct_addresses = prof.distinct_addresses();
    for (unsigned jj = 0; jj <= 12; ++jj) {
        const double tau = std::ldexp(1.0, static_cast<int>(jj));
        double sum = tau * static_cast<double>(cold);
        for (const std::uint64_t r : reuse_times) {
            sum += std::min(static_cast<double>(r), tau);
        }
        const double expected = std::min(sum / static_cast<double>(T),
                                         static_cast<double>(profile.distinct_addresses));
        EXPECT_DOUBLE_EQ(profile.working_set(jj), expected) << "tau 2^" << jj;
    }
}

TEST(Profile, JsonRoundTripCarriesTheAnalytics) {
    ReuseDistanceProfiler prof;
    LocalityProfile profile;
    for (std::uint64_t i = 0; i < 640; ++i) profile.note(prof.record(i % 32));
    profile.distinct_addresses = prof.distinct_addresses();

    const report::Json j = profile.to_json();
    std::string error;
    const auto parsed = report::Json::parse(j.dump(), &error);
    ASSERT_TRUE(parsed.has_value()) << error;
    EXPECT_EQ((*parsed)["schema"].as_string(), "dbsp-locality-v2");
    EXPECT_EQ((*parsed)["mode"].as_string(), "exact");
    EXPECT_DOUBLE_EQ((*parsed)["sample_rate"].as_double(), 1.0);
    EXPECT_DOUBLE_EQ((*parsed)["accesses"].as_double(), 640.0);
    EXPECT_DOUBLE_EQ((*parsed)["sampled_accesses"].as_double(), 640.0);
    EXPECT_DOUBLE_EQ((*parsed)["distinct_addresses"].as_double(), 32.0);
    EXPECT_DOUBLE_EQ((*parsed)["cold_misses"].as_double(), 32.0);
    EXPECT_DOUBLE_EQ((*parsed)["locality_score"].as_double(), profile.locality_score());
    const auto& cdf = (*parsed)["reuse_distance"]["cdf"].items();
    ASSERT_EQ(cdf.size(), profile.max_level() + 1);
    EXPECT_DOUBLE_EQ(cdf.back().as_double(), profile.hit_fraction(profile.max_level()));
    ASSERT_EQ((*parsed)["levels"].size(), profile.max_level() + 1);
    EXPECT_EQ((*parsed)["working_set"]["tau"].size(),
              (*parsed)["working_set"]["w"].size());
}

TEST(Profile, ColdEventsNeverReachTheFiniteHistogramsOrScore) {
    // Regression lock on the cold contract: a first touch's distance and
    // time are *infinite*, so whatever numeric values the event happens to
    // carry must never reach the finite histograms, the reuse-time sums, or
    // the score. (A fold of cold events into the score once produced subtly
    // deflated scores without failing any analytic identity — hence the
    // explicit lock.)
    LocalityProfile profile;
    const ReuseDistanceProfiler::Event cold{true, 123, 7, true};
    profile.note(cold);
    profile.note_run(cold, 41);
    EXPECT_EQ(profile.accesses, 42u);
    EXPECT_EQ(profile.cold_misses, 42u);
    EXPECT_DOUBLE_EQ(profile.locality_score(), 0.0);
    for (unsigned b = 0; b < LocalityProfile::kBuckets; ++b) {
        ASSERT_EQ(profile.distance_count[b], 0u) << "bucket " << b;
        ASSERT_EQ(profile.time_count[b], 0u) << "bucket " << b;
        ASSERT_TRUE(profile.time_sum[b] == 0) << "bucket " << b;
    }
    for (unsigned l = 0; l <= 10; ++l) {
        EXPECT_DOUBLE_EQ(profile.hit_fraction(l), 0.0) << "level " << l;
    }
}

TEST(Profile, NoteRunIsBitIdenticalToRepeatedNote) {
    LocalityProfile runs, singles;
    SplitMix64 rng(31);
    for (int i = 0; i < 300; ++i) {
        ReuseDistanceProfiler::Event e{false, 0, 1, true};
        e.cold = rng.next_below(8) == 0;
        e.sampled = rng.next_below(8) != 0;
        e.distance = rng.next_below(1 << 12);
        e.time = 1 + rng.next_below(1 << 12);
        const std::uint64_t n = 1 + rng.next_below(9);
        runs.note_run(e, n);
        for (std::uint64_t j = 0; j < n; ++j) singles.note(e);
    }
    EXPECT_TRUE(runs.identical(singles));
}

/// Drive the same deterministic mix of traced machine operations (every
/// charged kind: single words, ranges, block ops, charge-only sweeps) so two
/// sinks under different options see the identical reference stream.
void drive_machine(hmm::Machine& machine) {
    SplitMix64 rng(11);
    std::vector<model::Word> buf(64, 5);
    for (int i = 0; i < 500; ++i) {
        switch (rng.next_below(7)) {
            case 0:
                machine.write(rng.next_below(2048), rng.next());
                break;
            case 1:
                (void)machine.read(rng.next_below(2048));
                break;
            case 2:
                machine.write_range(rng.next_below(2048 - 64), buf);
                break;
            case 3:
                machine.read_range(rng.next_below(2048 - 32),
                                   std::span<model::Word>(buf.data(), 32));
                break;
            case 4:
                machine.swap_blocks(rng.next_below(512), 1024 + rng.next_below(512), 64);
                break;
            case 5:
                machine.copy_block(rng.next_below(512), 1024 + rng.next_below(512), 32);
                break;
            case 6: {
                const std::uint64_t begin = rng.next_below(1024);
                machine.charge_range(begin, begin + 1 + rng.next_below(128));
                break;
            }
        }
    }
}

TEST(LocalitySink, BatchedAndPerWordPathsAreBitIdentical) {
    // The engine's core contract: the batched record_range path and
    // coalescing produce a profile bit-identical to the per-word reference
    // path on the same stream (also a fuzz-oracle invariant; this is the
    // deterministic unit-test anchor).
    const auto f = model::AccessFunction::polynomial(0.5);
    LocalityOptions per_word;
    per_word.batched = false;
    LocalitySink fast, slow(per_word);
    hmm::Machine m_fast(f, 2048), m_slow(f, 2048);
    m_fast.set_trace(&fast);
    m_slow.set_trace(&slow);
    drive_machine(m_fast);
    drive_machine(m_slow);
    EXPECT_EQ(fast.recorded_accesses(), slow.recorded_accesses());
    EXPECT_EQ(fast.total(), slow.total());
    EXPECT_TRUE(fast.profile().identical(slow.profile()));
}

TEST(LocalitySink, SampledRateOneIsBitIdenticalToExact) {
    const auto f = model::AccessFunction::polynomial(0.5);
    LocalityOptions sampled_opts;
    sampled_opts.mode = LocalityOptions::Mode::kSampled;
    sampled_opts.sample_rate = 1.0;
    LocalitySink exact, sampled(sampled_opts);
    hmm::Machine m_exact(f, 2048), m_sampled(f, 2048);
    m_exact.set_trace(&exact);
    m_sampled.set_trace(&sampled);
    drive_machine(m_exact);
    drive_machine(m_sampled);
    EXPECT_TRUE(exact.profile().identical(sampled.profile()));
}

TEST(LocalitySink, SampledModeStillCountsEveryReference) {
    const auto f = model::AccessFunction::polynomial(0.5);
    LocalityOptions opts;
    opts.mode = LocalityOptions::Mode::kSampled;
    opts.sample_rate = 0.25;
    LocalitySink sink(opts);
    hmm::Machine machine(f, 2048);
    machine.set_trace(&sink);
    drive_machine(machine);
    // The clock and cost mirror are exact in sampled mode; only the
    // distance measurements are subsampled.
    EXPECT_EQ(sink.recorded_accesses(), machine.words_touched());
    EXPECT_EQ(sink.total(), machine.cost());
    EXPECT_GT(sink.sampled_accesses(), 0u);
    EXPECT_LT(sink.sampled_accesses(), sink.recorded_accesses());
    LocalityProfile p = sink.profile();
    EXPECT_EQ(p.accesses, machine.words_touched());
    EXPECT_EQ(p.sampled_accesses, sink.sampled_accesses());
    EXPECT_GT(p.locality_score(), 0.0);
}

TEST(LocalitySink, CountsAndCostsMatchTheMachine) {
    const auto f = model::AccessFunction::polynomial(0.5);
    hmm::Machine machine(f, 1024);
    LocalitySink sink;
    machine.set_trace(&sink);

    // A mix of every charged operation kind.
    std::uint64_t expected_refs = 0;
    machine.write(5, 7);
    machine.write(900, 1);
    ASSERT_EQ(machine.read(5), 7u);
    expected_refs += 3;

    std::vector<model::Word> buf(64, 3);
    machine.write_range(0, buf);
    machine.read_range(32, std::span<model::Word>(buf.data(), 32));
    expected_refs += 64 + 32;

    machine.swap_blocks(0, 512, 64);   // 4 * 64 touches
    machine.copy_block(0, 256, 32);    // 2 * 32 touches
    machine.charge_range(100, 200);    // 100 touches
    machine.charge(17.0);              // pure computation: no references
    expected_refs += 4 * 64 + 2 * 32 + 100;

    EXPECT_EQ(sink.recorded_accesses(), expected_refs);
    EXPECT_EQ(sink.recorded_accesses(), machine.words_touched());
    EXPECT_EQ(sink.total(), machine.cost());  // bit-exact mirror
    EXPECT_EQ(sink.block_op_words(), 4u * 64 + 2u * 32 + 100);
    EXPECT_EQ(sink.range_words(), 96u);

    const LocalityProfile p = sink.profile();
    EXPECT_EQ(p.accesses, expected_refs);
    EXPECT_EQ(p.accesses, p.cold_misses + (p.accesses - p.cold_misses));
    EXPECT_GT(p.distinct_addresses, 0u);
}

TEST(LocalitySink, RecursiveSimulationScoresBelowNaive) {
    // The tentpole claim at unit-test scale: the Figure 1 schedule's address
    // stream is more local than the pinned-context baseline's.
    const auto f = model::AccessFunction::polynomial(0.5);
    const std::uint64_t v = 64;
    SplitMix64 rng(3);
    std::vector<std::complex<double>> x(v);
    for (auto& c : x) c = {rng.next_double() - 0.5, rng.next_double() - 0.5};

    algo::FftDirectProgram recursive_prog(x);
    auto smoothed = core::smooth(
        recursive_prog, core::hmm_label_set(f, recursive_prog.context_words(), v));
    LocalitySink recursive_sink;
    core::HmmSimulator::Options rec_opt;
    rec_opt.trace = &recursive_sink;
    const auto rec_res = core::HmmSimulator(f, rec_opt).simulate(*smoothed);

    algo::FftDirectProgram naive_prog(x);
    LocalitySink naive_sink;
    core::NaiveHmmSimulator::Options naive_opt;
    naive_opt.trace = &naive_sink;
    const auto naive_res = core::NaiveHmmSimulator(f, naive_opt).simulate(naive_prog);

    // Exact count and cost mirrors on both legs.
    EXPECT_EQ(recursive_sink.recorded_accesses(), rec_res.words_touched);
    EXPECT_EQ(recursive_sink.total(), rec_res.hmm_cost);
    EXPECT_EQ(naive_sink.recorded_accesses(), naive_res.words_touched);
    EXPECT_EQ(naive_sink.total(), naive_res.hmm_cost);

    const double rec_score = recursive_sink.profile().locality_score();
    const double naive_score = naive_sink.profile().locality_score();
    EXPECT_LT(rec_score, naive_score);
}

}  // namespace
}  // namespace dbsp::locality
