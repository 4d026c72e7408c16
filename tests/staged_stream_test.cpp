#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "bt/primitives.hpp"
#include "bt/sort.hpp"
#include "bt_test_support.hpp"
#include "util/rng.hpp"

namespace dbsp::bt {
namespace {

using model::AccessFunction;
using model::Word;
using test::bits;
using test::expect_same_state;

TEST(StageTower, SingleLevelForSmallChunks) {
    Machine m(AccessFunction::logarithmic(), 4096);
    StageTower t(m, 0, 16, 1, 0, 1);
    EXPECT_EQ(t.levels.size(), 1u);
    EXPECT_EQ(t.levels[0].addr, 0u);
    EXPECT_EQ(t.levels[0].capacity, 16u);
}

TEST(StageTower, BuildsMultipleLevelsForDeepChunks) {
    Machine m(AccessFunction::polynomial(0.5), 1 << 20);
    StageTower t(m, 0, 4096, 1, 0, 1);
    ASSERT_GE(t.levels.size(), 2u);
    // Inner levels shrink and sit shallower than outer ones.
    for (std::size_t k = 1; k < t.levels.size(); ++k) {
        EXPECT_LT(t.levels[k].capacity, t.levels[k - 1].capacity);
        EXPECT_LT(t.levels[k].addr, t.levels[k - 1].addr);
    }
    // The innermost level starts at the stage base.
    EXPECT_EQ(t.levels.back().addr, 0u);
    // Total footprint is exactly the chunk.
    std::uint64_t total = 0;
    for (const auto& level : t.levels) total += level.capacity;
    EXPECT_EQ(total, 4096u);
}

TEST(StageTower, CapacitiesRespectAlignment) {
    Machine m(AccessFunction::polynomial(0.5), 1 << 20);
    StageTower t(m, 0, 4095, 5, 0, 1);  // chunk multiple of 5
    for (const auto& level : t.levels) EXPECT_EQ(level.capacity % 5, 0u);
}

TEST(StageTower, LanesInterleaveDepthwise) {
    Machine m(AccessFunction::polynomial(0.5), 1 << 20);
    StageTower a(m, 0, 1024, 1, 0, 3);
    StageTower b(m, 0, 1024, 1, 1, 3);
    StageTower c(m, 0, 1024, 1, 2, 3);
    ASSERT_EQ(a.levels.size(), b.levels.size());
    ASSERT_EQ(a.levels.size(), c.levels.size());
    for (std::size_t k = 0; k < a.levels.size(); ++k) {
        // Same capacities, adjacent addresses per level.
        EXPECT_EQ(a.levels[k].capacity, b.levels[k].capacity);
        EXPECT_EQ(b.levels[k].addr, a.levels[k].addr + a.levels[k].capacity);
        EXPECT_EQ(c.levels[k].addr, b.levels[k].addr + b.levels[k].capacity);
    }
    // All three innermost buffers sit in front of any outer buffer.
    EXPECT_LT(c.levels.back().addr + c.levels.back().capacity,
              a.levels.front().addr + 1);
}

TEST(StagedStream, RoundTripLargeRegion) {
    const std::uint64_t n = 100000;
    Machine m(AccessFunction::polynomial(0.5), 3 * n + 8192);
    {
        StagedWriter wr(m, 8192, n, 0, 512);
        for (std::uint64_t i = 0; i < n; ++i) wr.push(i * 7 + 1);
    }
    StagedReader rd(m, 8192, n, 0, 512);
    for (std::uint64_t i = 0; i < n; ++i) {
        ASSERT_EQ(rd.peek(), i * 7 + 1) << i;
        rd.advance(1);
    }
    EXPECT_TRUE(rd.done());
}

TEST(StagedStream, AmortizedCostPerWordIsSmall) {
    // The whole point of the tower: streaming n words from depth costs
    // O(n) + small, even under x^0.5 where direct reads would cost n*f(n).
    const auto f = AccessFunction::polynomial(0.5);
    const std::uint64_t n = 1 << 17;
    Machine m(f, 2 * n + 8192);
    m.reset_cost();
    const std::uint64_t chunk = chunk_words(m, 8192 + n, 2048);
    StagedReader rd(m, 8192, n, 0, chunk);
    Word acc = 0;
    while (!rd.done()) {
        acc ^= rd.peek();
        rd.advance(1);
    }
    const double per_word = m.cost() / static_cast<double>(n);
    EXPECT_LT(per_word, 12.0);  // vs f(n) ~ 360 for direct reads
    const double direct_per_word = f(8192 + n / 2);
    EXPECT_LT(per_word, direct_per_word / 20.0);
}

TEST(StagedStream, ThreeLaneMergePattern) {
    // Reproduce the merge access pattern: two readers + one writer on shared
    // lanes; interleaved consumption must stay correct.
    const std::uint64_t n = 5000;
    Machine m(AccessFunction::polynomial(0.35), 4 * n + 4096);
    auto raw = m.raw();
    for (std::uint64_t i = 0; i < n; ++i) {
        raw[4096 + i] = 2 * i;          // evens
        raw[4096 + n + i] = 2 * i + 1;  // odds
    }
    const std::uint64_t chunk = 120;
    StagedReader ra(m, 4096, n, 0, chunk, 1, 0, 3);
    StagedReader rb(m, 4096 + n, n, 0, chunk, 1, 1, 3);
    StagedWriter out(m, 4096 + 2 * n, 2 * n, 0, chunk, 1, 2, 3);
    while (!ra.done() || !rb.done()) {
        if (!ra.done() && (rb.done() || ra.peek() <= rb.peek())) {
            out.push(ra.peek());
            ra.advance(1);
        } else {
            out.push(rb.peek());
            rb.advance(1);
        }
    }
    out.flush();
    for (std::uint64_t i = 0; i < 2 * n; ++i) {
        ASSERT_EQ(m.raw()[4096 + 2 * n + i], i);
    }
}

TEST(StagedStream, WriterDestructorFlushesPartial) {
    Machine m(AccessFunction::logarithmic(), 4096);
    {
        StagedWriter wr(m, 2048, 33, 0, 64);
        for (int i = 0; i < 33; ++i) wr.push(i);
    }
    for (int i = 0; i < 33; ++i) EXPECT_EQ(m.raw()[2048 + i], static_cast<Word>(i));
}

TEST(StagedStream, RecordPeeksNeverStraddle) {
    // Records of 5 with chunk a multiple of 5: peek(0..4) always valid.
    const std::uint64_t recs = 999, rw = 5;
    Machine m(AccessFunction::polynomial(0.5), 2 * recs * rw + 4096);
    auto raw = m.raw();
    for (std::uint64_t i = 0; i < recs * rw; ++i) raw[4096 + i] = i;
    StagedReader rd(m, 4096, recs * rw, 0, 125, rw);
    for (std::uint64_t r = 0; r < recs; ++r) {
        for (std::uint64_t t = 0; t < rw; ++t) {
            ASSERT_EQ(rd.peek(t), r * rw + t);
        }
        rd.advance(rw);
    }
}

/// Stream `records` records of `align` words from a reader (own window at
/// [0, reader_chunk)) into a writer (own window right above it), either
/// record by record with push_from or word by word with push(peek(t)).
void copy_records(Machine& m, std::uint64_t align, std::uint64_t records,
                  std::uint64_t reader_chunk, std::uint64_t writer_chunk, bool fused) {
    const Addr src = 8192, dst = src + records * align;
    StagedReader rd(m, src, records * align, /*stage=*/0, reader_chunk, align);
    StagedWriter wr(m, dst, records * align, /*stage=*/reader_chunk, writer_chunk);
    for (std::uint64_t i = 0; i < records; ++i) {
        if (fused) {
            wr.push_from(rd, align);
        } else {
            for (std::uint64_t t = 0; t < align; ++t) wr.push(rd.peek(t));
        }
        EXPECT_EQ(wr.written(), (i + 1) * align);
        rd.advance(align);
    }
    wr.flush();
}

TEST(StagedStream, PushFromMatchesPerWordPush) {
    const auto f = AccessFunction::polynomial(0.5);
    const std::uint64_t records = 997;
    struct Case {
        std::uint64_t align, reader_chunk, writer_chunk;
    };
    // Writer inner capacities 7 and 13 are not multiples of 5, so a spill
    // lands inside a record; 512 (above a 500-word reader window) builds a
    // two-level writer tower whose innermost level holds 16 words, so a spill
    // cascades out mid-record too, and 500 a two-level reader tower.
    const Case cases[] = {{1, 64, 7},  {1, 64, 512}, {5, 60, 7},
                          {5, 60, 13}, {5, 500, 512}, {5, 5, 5}};
    {
        Machine probe(f, 1);
        ASSERT_EQ(StageTower(probe, 500, 512, 1, 0, 1).levels.size(), 2u);
        ASSERT_EQ(StageTower(probe, 500, 512, 1, 0, 1).levels.back().capacity, 16u);
        ASSERT_EQ(StageTower(probe, 0, 500, 5, 0, 1).levels.size(), 2u);
    }
    for (const Case& c : cases) {
        for (const bool traced : {false, true}) {
            SCOPED_TRACE("align=" + std::to_string(c.align) + " reader_chunk=" +
                         std::to_string(c.reader_chunk) + " writer_chunk=" +
                         std::to_string(c.writer_chunk) + (traced ? " traced" : ""));
            const std::uint64_t capacity = 8192 + 2 * records * c.align;
            Machine fused(f, capacity), loop(f, capacity);
            test::RecordingSink fused_sink, loop_sink;
            if (traced) {
                fused.set_trace(&fused_sink);
                loop.set_trace(&loop_sink);
            }
            SplitMix64 rng(c.align * 1000 + c.writer_chunk);
            for (std::uint64_t i = 8192; i < capacity; ++i) fused.raw()[i] = loop.raw()[i] = rng.next();
            copy_records(fused, c.align, records, c.reader_chunk, c.writer_chunk, true);
            copy_records(loop, c.align, records, c.reader_chunk, c.writer_chunk, false);
            expect_same_state(fused, loop);
            EXPECT_TRUE(std::equal(fused.raw().begin() + 8192,
                                   fused.raw().begin() + 8192 + records * c.align,
                                   fused.raw().begin() + 8192 + records * c.align));
            EXPECT_TRUE(fused_sink.events == loop_sink.events);
            EXPECT_EQ(bits(fused_sink.total()), bits(loop_sink.total()));
        }
    }
}

TEST(StagedStreamDeathTest, TowerConstructorsRejectOverlapAndOverflow) {
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    Machine m(AccessFunction::logarithmic(), 1024);
    // Lane 0 of three: the checks cover the whole window [100, 292), so a
    // region clear of lane 0's own buffers but inside lane 2's is rejected.
    const StageTower lane0(m, 100, 64, 1, 0, 3);
    EXPECT_DEATH(StagedReader(m, 250, 100, lane0), "Precondition");
    EXPECT_DEATH(StagedWriter(m, 250, 100, lane0), "Precondition");
    EXPECT_DEATH(StagedReader(m, 50, 51, lane0), "Precondition");
    EXPECT_DEATH(StagedWriter(m, 50, 51, lane0), "Precondition");
    // A window running past the end of memory.
    const StageTower deep(m, 1000, 64, 1, 0, 1);
    EXPECT_DEATH(StagedReader(m, 0, 10, deep), "Precondition");
    EXPECT_DEATH(StagedWriter(m, 0, 10, deep), "Precondition");
    // A stream running past the end of memory.
    const StageTower top(m, 0, 64, 1, 0, 1);
    EXPECT_DEATH(StagedReader(m, 1000, 25, top), "Precondition");
    EXPECT_DEATH(StagedWriter(m, 1000, 25, top), "Precondition");
}

TEST(StagedStreamDeathTest, PushFromBeyondTheStagedWindowAborts) {
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    Machine m(AccessFunction::logarithmic(), 4096);
    // Reader windows of 10 words: an 11-word push_from cannot be served,
    // exactly as peek(10) could not.
    StagedReader rd(m, 2048, 100, 0, 10);
    StagedWriter wr(m, 3000, 100, 512, 64);
    EXPECT_DEATH(wr.push_from(rd, 11), "Invariant");
    StagedWriter small(m, 3000, 4, 512, 64);
    EXPECT_DEATH(small.push_from(rd, 5), "Precondition");
}

/// The merge sort as it reads with the per-word stream API only: streams
/// that build their own towers per merge, and each record moved with
/// push(peek(t)). merge_sort_records must charge exactly this.
void oracle_merge(Machine& m, Addr a, std::uint64_t la, Addr b, std::uint64_t lb, Addr dst,
                  std::uint64_t r, Addr stage, std::uint64_t chunk) {
    StagedReader ra(m, a, la, stage, chunk, r, 0, 3);
    StagedReader rb(m, b, lb, stage, chunk, r, 1, 3);
    StagedWriter out(m, dst, la + lb, stage, chunk, r, 2, 3);
    auto take = [&](StagedReader& src) {
        for (std::uint64_t t = 0; t < r; ++t) out.push(src.peek(t));
        src.advance(r);
    };
    while (!ra.done() && !rb.done()) {
        const Word ka0 = ra.peek(0);
        const Word kb0 = rb.peek(0);
        m.charge(1.0);
        bool a_first;
        if (ka0 != kb0) {
            a_first = ka0 < kb0;
        } else {
            const Word ka1 = ra.peek(1);
            const Word kb1 = rb.peek(1);
            m.charge(1.0);
            a_first = ka1 <= kb1;
        }
        take(a_first ? ra : rb);
    }
    while (!ra.done()) take(ra);
    while (!rb.done()) take(rb);
    out.flush();
}

void oracle_sort(Machine& m, Addr base, std::uint64_t n, std::uint64_t r, Addr scratch,
                 Addr stage, std::uint64_t stage_words) {
    if (n <= 1) return;
    const std::uint64_t total = n * r;
    std::uint64_t chunk = chunk_words(m, std::max(base, scratch) + total - 1, stage_words / 3);
    chunk = std::max<std::uint64_t>(chunk - chunk % r, r);
    Addr src = base, dst = scratch;
    for (std::uint64_t width = 1; width < n; width *= 2) {
        for (std::uint64_t lo = 0; lo < n; lo += 2 * width) {
            const std::uint64_t mid = std::min(lo + width, n);
            const std::uint64_t hi = std::min(lo + 2 * width, n);
            if (hi == mid) {
                m.block_copy(src + lo * r, dst + lo * r, (mid - lo) * r);
                continue;
            }
            oracle_merge(m, src + lo * r, (mid - lo) * r, src + mid * r, (hi - mid) * r,
                         dst + lo * r, r, stage, chunk);
        }
        std::swap(src, dst);
    }
    if (src != base) m.block_copy(src, base, total);
}

TEST(StagedStreamMergeOracle, MergeSortMatchesPerWordOracle) {
    const AccessFunction functions[] = {AccessFunction::polynomial(0.5),
                                        AccessFunction::polynomial(0.35),
                                        AccessFunction::logarithmic()};
    SplitMix64 rng(4242);
    for (int iter = 0; iter < 24; ++iter) {
        // Edge sizes first, then random ones up to 2000 records.
        const std::uint64_t fixed[] = {0, 1, 2, 3, 2000};
        const std::uint64_t n = iter < 5 ? fixed[iter] : rng.next_below(2001);
        const std::uint64_t r = (iter % 2 == 0) ? 2 : 5;
        const AccessFunction& f = functions[iter % 3];
        const std::uint64_t stage_words = 3 * (r + rng.next_below(1024));
        const Addr base = stage_words + rng.next_below(1 << 15);
        const Addr scratch = base + n * r;
        const Word key_range = 1 + rng.next_below(n + 1);  // small ranges force ties
        for (const bool traced : {false, true}) {
            SCOPED_TRACE("n=" + std::to_string(n) + " r=" + std::to_string(r) + " f=" +
                         f.name() + (traced ? " traced" : ""));
            Machine fused(f, scratch + n * r), oracle(f, scratch + n * r);
            test::RecordingSink fused_sink, oracle_sink;
            if (traced) {
                fused.set_trace(&fused_sink);
                oracle.set_trace(&oracle_sink);
            }
            SplitMix64 data(iter);
            for (std::uint64_t i = 0; i < n * r; ++i) {
                fused.raw()[base + i] = oracle.raw()[base + i] = data.next_below(key_range);
            }
            merge_sort_records(fused, base, n, r, scratch, 0, stage_words);
            oracle_sort(oracle, base, n, r, scratch, 0, stage_words);
            expect_same_state(fused, oracle);
            for (std::uint64_t i = 1; i < n; ++i) {
                const Word* prev = &fused.raw()[base + (i - 1) * r];
                const Word* cur = &fused.raw()[base + i * r];
                ASSERT_TRUE(prev[0] < cur[0] || (prev[0] == cur[0] && prev[1] <= cur[1]));
            }
            EXPECT_TRUE(fused_sink.events == oracle_sink.events);
            EXPECT_EQ(bits(fused_sink.total()), bits(oracle_sink.total()));
            if (traced) {
                EXPECT_EQ(bits(fused_sink.total()), bits(fused.cost()));
            }
        }
    }
}

}  // namespace
}  // namespace dbsp::bt
