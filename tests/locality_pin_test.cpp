/// Pins the locality profiles of whole simulations to committed values. The
/// other locality tests compare the engine with itself (batched against
/// per-word, sampled at rate 1 against exact) or with a reference LRU list;
/// these compare it with fixed numbers, so a change of reuse-distance engine
/// fails here unless every profile field keeps its bits: the reference,
/// cold-miss and distinct-address counts, every distance and reuse-time
/// bucket, the pending score run and the IEEE-754 pattern of score_sum.
///
/// Four address streams, each profiled exactly and SHARDS-sampled at 0.25:
/// the recursive HMM schedule and the naive HMM baseline on bitonic sort,
/// BT with sort delivery on the same program, and BT delivering a transpose
/// by rational permutations.

#include <gtest/gtest.h>

#include <bit>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "algos/bitonic_sort.hpp"
#include "algos/transpose_program.hpp"
#include "core/bt_simulator.hpp"
#include "core/hmm_simulator.hpp"
#include "core/naive_hmm_simulator.hpp"
#include "core/smoothing.hpp"
#include "locality/sink.hpp"
#include "util/rng.hpp"

namespace dbsp::locality {
namespace {

using model::AccessFunction;
using model::Word;

std::string u128(unsigned __int128 x) {
    std::string s;
    do {
        s.insert(s.begin(), static_cast<char>('0' + static_cast<int>(x % 10)));
        x /= 10;
    } while (x != 0);
    return s;
}

/// Every field identical() compares, in one canonical line: counts, the
/// score fold state, then the non-empty distance buckets (bucket:count) and
/// reuse-time buckets (bucket:count:sum).
std::string describe(const LocalityProfile& p) {
    char head[160];
    std::snprintf(head, sizeof head,
                  "acc=%" PRIu64 " sacc=%" PRIu64 " cold=%" PRIu64 " distinct=%" PRIu64
                  " score=%016" PRIx64 " pend=%" PRIu64 "x%" PRIu64 " d=",
                  p.accesses, p.sampled_accesses, p.cold_misses, p.distinct_addresses,
                  std::bit_cast<std::uint64_t>(p.score_sum), p.pending_distance,
                  p.pending_count);
    std::string s = head;
    for (unsigned b = 0; b < LocalityProfile::kBuckets; ++b) {
        if (p.distance_count[b] != 0) {
            s += std::to_string(b) + ":" + std::to_string(p.distance_count[b]) + ",";
        }
    }
    s += " t=";
    for (unsigned b = 0; b < LocalityProfile::kBuckets; ++b) {
        if (p.time_count[b] != 0) {
            s += std::to_string(b) + ":" + std::to_string(p.time_count[b]) + ":" +
                 u128(p.time_sum[b]) + ",";
        }
    }
    return s;
}

std::unique_ptr<model::Program> bitonic(std::uint64_t v) {
    SplitMix64 rng(1234 + v);
    std::vector<Word> keys(v);
    for (Word& k : keys) k = rng.next_below(1u << 20);
    return std::make_unique<algo::BitonicSortProgram>(keys);
}

std::unique_ptr<model::Program> transpose(std::uint64_t v) {
    SplitMix64 rng(1234 + v);
    std::vector<Word> values(v);
    for (Word& x : values) x = rng.next();
    return std::make_unique<algo::TransposeProgram>(values, 2);
}

LocalityOptions options_for(bool sampled) {
    LocalityOptions opts;
    if (sampled) {
        opts.mode = LocalityOptions::Mode::kSampled;
        opts.sample_rate = 0.25;
    }
    return opts;
}

enum class Leg { kRecursiveHmm, kNaiveHmm, kBtSort, kBtRational };

/// Runs one leg under x^0.5 with a LocalitySink attached and returns the
/// sink's profile.
LocalityProfile profile_of(Leg leg, bool sampled) {
    const AccessFunction f = AccessFunction::polynomial(0.5);
    const std::uint64_t v = 256;
    const auto program = leg == Leg::kBtRational ? transpose(v) : bitonic(v);
    const std::size_t mu = program->layout().context_words();
    LocalitySink sink(options_for(sampled));
    switch (leg) {
        case Leg::kRecursiveHmm: {
            auto smoothed = core::smooth(*program, core::hmm_label_set(f, mu, v));
            core::HmmSimulator::Options o;
            o.trace = &sink;
            (void)core::HmmSimulator(f, o).simulate(*smoothed);
            break;
        }
        case Leg::kNaiveHmm: {
            core::NaiveHmmSimulator::Options o;
            o.trace = &sink;
            (void)core::NaiveHmmSimulator(f, o).simulate(*program);
            break;
        }
        case Leg::kBtSort:
        case Leg::kBtRational: {
            auto smoothed = core::smooth(*program, core::bt_label_set(f, mu, v));
            core::BtSimulator::Options o;
            o.use_rational_permutations = leg == Leg::kBtRational;
            o.trace = &sink;
            const auto res = core::BtSimulator(f, o).simulate(*smoothed);
            if (leg == Leg::kBtRational) {
                EXPECT_GT(res.transpose_invocations, 0u) << "must deliver by transpose";
            }
            break;
        }
    }
    return sink.profile();
}

struct Pin {
    Leg leg;
    const char* name;
    const char* exact;
    const char* sampled;  ///< sampled@0.25
};

// Captured once from the engine. Regenerate only for an intended change to
// the address stream or the profile's definition, never to make an engine
// rewrite pass.
const Pin kPins[] = {
    {Leg::kRecursiveHmm, "recursive hmm bitonic",
     "acc=1057864 sacc=1057864 cold=2304 distinct=2304 score=41484f6c14ff6aef "
     "pend=262x1 d=0:435236,1:1280,2:37120,3:37568,4:80196,5:245177,6:29800,7:45528,"
     "8:29056,9:56031,10:24559,11:10688,12:23321, t=1:435236:435236,2:1536:4608,"
     "3:46784:206976,4:38016:389760,5:79424:1806503,6:230301:9312944,7:17192:1613712,"
     "8:45128:7933984,9:10604:3724762,10:25238:19457421,11:39701:57551914,"
     "12:32896:89393063,13:17476:96447778,14:7765:94510784,15:14055:275838561,"
     "16:5472:269808672,17:6720:669229824,18:1440:233471040,19:576:167770368,",
     "acc=1057864 sacc=180342 cold=580 distinct=580 score=412011d3df235e66 "
     "pend=292x1 d=0:88330,3:11647,4:20398,5:15491,6:6848,7:2040,8:11024,9:9545,"
     "10:5902,11:2840,12:5697, t=1:75916:75916,3:3528:14112,4:9216:91904,"
     "5:1278:39618,6:39240:1622500,7:3296:303072,8:7840:1396984,9:2152:760912,"
     "10:6249:4923754,11:10459:15217925,12:7283:19891258,13:4249:23474055,"
     "14:1826:22259235,15:3606:70628758,16:1392:68512858,17:1744:174966576,"
     "18:336:54604876,19:152:44562530,"},
    {Leg::kNaiveHmm, "naive hmm bitonic",
     "acc=203264 sacc=203264 cold=2304 distinct=2304 score=413b0813a9388084 "
     "pend=256x1 d=0:8960,2:27648,3:256,4:8960,9:52,10:1005,11:61456,12:92623, "
     "t=1:8960:8960,3:27904:112384,4:8960:98560,9:37:14171,10:73:56064,"
     "11:32910:54152751,12:102568:309635577,13:19548:95231997,",
     "acc=203264 sacc=51356 cold=580 distinct=580 score=411ad796c2ec3de0 pend=264x1 "
     "d=0:5916,3:2964,4:2862,5:211,9:16,10:219,11:16553,12:22035, t=1:2485:2485,"
     "3:7228:29104,4:2240:24640,9:10:3991,10:17:12293,11:7837:12822791,"
     "12:25944:78100562,13:5015:24645970,"},
    {Leg::kBtSort, "bt sort delivery bitonic",
     "acc=9678462 sacc=9678462 cold=7604 distinct=7604 score=4190e55d02234fa9 "
     "pend=44x9 d=0:47360,1:46674,2:39081,3:229381,4:455602,5:1121733,6:1252325,"
     "7:1982317,8:1515776,9:936273,10:86632,11:192287,12:560041,13:1205376, "
     "t=1:47360:47360,2:65362:149412,3:108687:623906,4:472627:4962843,"
     "5:999074:24887135,6:1023529:45930720,7:1874635:177469004,8:1142827:208807196,"
     "9:957800:332588372,10:377896:262295184,11:523054:767945722,"
     "12:365055:1028715359,13:279869:1777508707,14:855593:12720692735,"
     "15:325926:5944876579,16:54051:2667214638,17:59082:5776129555,"
     "18:96888:16154193610,19:18342:7090089696,20:23201:13749771752,",
     "acc=9678462 sacc=2132731 cold=1911 distinct=1911 score=416e4396ae5b7b83 "
     "pend=3432x2 d=0:60009,3:31360,4:100513,5:169413,6:242692,7:453363,8:400170,"
     "9:159126,10:23320,11:48281,12:138949,13:303624, t=1:3151:3151,2:17092:36948,"
     "3:11169:72124,4:61655:666953,5:172702:4137515,6:245440:11272363,"
     "7:414403:39827772,8:270364:49498088,9:210761:72512091,10:98067:67877733,"
     "11:108220:158022781,12:86752:249646689,13:70568:448354342,14:215232:3203225242,"
     "15:82159:1495658461,16:13415:665611330,17:14536:1422466217,18:24613:4099120481,"
     "19:4633:1785515167,20:5888:3490160767,"},
    {Leg::kBtRational, "bt rational transpose",
     "acc=429945 sacc=429945 cold=7035 distinct=7035 score=41476f5721016758 "
     "pend=44x9 d=0:1024,1:1665,2:2560,3:9833,4:20634,5:65757,6:46784,7:113687,"
     "8:33681,9:11436,10:9068,11:21009,12:72986,13:12786, t=1:1024:1024,2:2689:6402,"
     "3:5062:29886,4:21356:210750,5:62251:1593504,6:26470:1149628,7:108367:10728323,"
     "8:38318:6770227,9:20776:7102385,10:20272:14233752,11:11152:15650746,"
     "12:22152:62887816,13:37538:253652531,14:25778:271760493,15:4448:101879792,"
     "16:6804:333003744,17:8433:770911404,18:20:2713210,",
     "acc=429945 sacc=88034 cold=1779 distinct=1779 score=4123c1d0c1626940 "
     "pend=3432x2 d=0:3273,3:1065,4:6201,5:7591,6:3677,7:25372,8:7458,9:2372,10:2472,"
     "11:5123,12:18440,13:3211, t=2:400:800,3:692:4608,4:2243:21464,5:8621:216735,"
     "6:4902:220679,7:23105:2336137,8:7409:1309312,9:4028:1410751,10:5609:3970288,"
     "11:2944:4147000,12:5316:15070530,13:9599:64849730,14:6464:68128262,"
     "15:1124:25687059,16:1705:83871756,17:2091:190932882,18:3:406987,"},
};

TEST(LocalityPin, ExactProfilesMatchCommittedValues) {
    for (const Pin& pin : kPins) {
        EXPECT_EQ(describe(profile_of(pin.leg, false)), pin.exact) << pin.name;
    }
}

TEST(LocalityPin, SampledProfilesMatchCommittedValues) {
    for (const Pin& pin : kPins) {
        EXPECT_EQ(describe(profile_of(pin.leg, true)), pin.sampled) << pin.name;
    }
}

}  // namespace
}  // namespace dbsp::locality
