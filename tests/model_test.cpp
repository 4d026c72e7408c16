#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "model/cluster_tree.hpp"
#include "model/context_layout.hpp"
#include "model/program.hpp"
#include "model/superstep_exec.hpp"

namespace dbsp::model {
namespace {

TEST(ClusterTree, Structure) {
    ClusterTree t(16);
    EXPECT_EQ(t.log_processors(), 4u);
    EXPECT_EQ(t.num_clusters(0), 1u);
    EXPECT_EQ(t.num_clusters(4), 16u);
    EXPECT_EQ(t.cluster_size(2), 4u);
    EXPECT_EQ(t.cluster_of(13, 2), 3u);
    EXPECT_EQ(t.cluster_first(3, 2), 12u);
    EXPECT_TRUE(t.same_cluster(12, 15, 2));
    EXPECT_FALSE(t.same_cluster(11, 12, 2));
    EXPECT_TRUE(t.same_cluster(0, 15, 0));
}

TEST(ClusterTree, BinaryDecomposition) {
    // C^(i)_j = C^(i+1)_(2j) union C^(i+1)_(2j+1).
    ClusterTree t(32);
    for (unsigned i = 0; i < 5; ++i) {
        for (std::uint64_t j = 0; j < t.num_clusters(i); ++j) {
            const auto first = t.cluster_first(j, i);
            EXPECT_EQ(t.cluster_first(2 * j, i + 1), first);
            EXPECT_EQ(t.cluster_first(2 * j + 1, i + 1), first + t.cluster_size(i + 1));
        }
    }
}

TEST(ContextLayout, OffsetsArePackedAndDisjoint) {
    const ContextLayout l{5, 3};
    EXPECT_EQ(l.out_count_offset(), 5u);
    EXPECT_EQ(l.out_records_offset(), 6u);
    EXPECT_EQ(l.in_records_offset(), 6u + 9u);
    EXPECT_EQ(l.in_count_offset(), 6u + 18u);
    EXPECT_EQ(l.context_words(), 5u + 2u + 18u);
    EXPECT_EQ(l.out_record_offset(2), l.out_records_offset() + 6);
    EXPECT_EQ(l.in_record_offset(1), l.in_records_offset() + 3);
}

/// Minimal program: processor p sends its id to p^1 in a single superstep.
class PairSwapProgram final : public Program {
public:
    explicit PairSwapProgram(std::uint64_t v) : v_(v) {}
    std::string name() const override { return "pair-swap"; }
    std::uint64_t num_processors() const override { return v_; }
    std::size_t data_words() const override { return 1; }
    std::size_t max_messages() const override { return 1; }
    StepIndex num_supersteps() const override { return 2; }
    unsigned label(StepIndex s) const override { return s == 0 ? ilog2(v_) - 1 : 0; }
    void init(ProcId p, std::span<Word> data) const override { data[0] = p; }
    void step(StepIndex s, ProcId p, StepContext& ctx) override {
        if (s == 0) {
            ctx.send(p ^ 1, ctx.load(0));
        } else {
            EXPECT_EQ(ctx.inbox_size(), 1u);
            const Message m = ctx.inbox(0);
            EXPECT_EQ(m.src, p ^ 1);
            EXPECT_EQ(m.dest, p);
            ctx.store(0, m.payload0);
        }
    }

private:
    std::uint64_t v_;
};

TEST(StepContext, SendValidatesClusterDiscipline) {
    const ContextLayout layout{1, 1};
    std::vector<Word> mem(layout.context_words(), 0);
    FlatContextAccessor acc(mem.data(), mem.size());
    ClusterTree tree(8);
    StepContext ctx(acc, layout, tree, 0, /*label=*/2, /*proc=*/0);
    // Label 2 on 8 processors: clusters of 2; sending to processor 1 is
    // legal, anything farther would abort (tested via death below).
    ctx.send(1, 99);
    EXPECT_EQ(ctx.sent(), 1u);
    EXPECT_EQ(mem[layout.out_record_offset(0)], 1u);
    EXPECT_EQ(mem[layout.out_record_offset(0) + 1], 99u);
}

TEST(StepContextDeathTest, SendOutsideClusterAborts) {
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const ContextLayout layout{1, 1};
    std::vector<Word> mem(layout.context_words(), 0);
    FlatContextAccessor acc(mem.data(), mem.size());
    ClusterTree tree(8);
    StepContext ctx(acc, layout, tree, 0, /*label=*/2, /*proc=*/0);
    EXPECT_DEATH(ctx.send(5, 1), "Precondition");
}

TEST(StepContext, OpsAccounting) {
    const ContextLayout layout{4, 2};
    std::vector<Word> mem(layout.context_words(), 0);
    FlatContextAccessor acc(mem.data(), mem.size());
    ClusterTree tree(4);
    StepContext ctx(acc, layout, tree, 0, 0, 2);
    ctx.store(0, 7);
    (void)ctx.load(0);
    ctx.charge_ops(10);
    ctx.send(0, 1);
    EXPECT_EQ(ctx.ops(), 13u);
    EXPECT_FALSE(ctx.read_inbox());
    (void)ctx.inbox_size();
    EXPECT_TRUE(ctx.read_inbox());
}

TEST(StepContext, ProcBaseTranslation) {
    const ContextLayout layout{1, 1};
    std::vector<Word> mem(layout.context_words(), 0);
    FlatContextAccessor acc(mem.data(), mem.size());
    ClusterTree tree(4);  // a 4-processor window based at global id 8
    StepContext ctx(acc, layout, tree, 0, 0, /*proc=*/1, /*base=*/8);
    EXPECT_EQ(ctx.proc(), 9u);
    ctx.send(10, 5);  // global dest 10 -> local 2
    EXPECT_EQ(mem[layout.out_record_offset(0)], 2u);
}

TEST(DeliverMessages, CanonicalOrderAndCounts) {
    const ContextLayout layout{1, 3};
    const std::size_t mu = layout.context_words();
    std::vector<std::vector<Word>> mem(4, std::vector<Word>(mu, 0));
    // Processors 1, 2, 3 each queue one message to processor 0.
    for (ProcId p : {3u, 1u, 2u}) {
        mem[p][layout.out_count_offset()] = 1;
        mem[p][layout.out_record_offset(0)] = 0;      // dest
        mem[p][layout.out_record_offset(0) + 1] = p;  // payload
    }
    VectorAccessorSource with(mem, mu);
    const std::size_t h = deliver_messages(layout, 0, 4, with);
    EXPECT_EQ(h, 3u);
    EXPECT_EQ(mem[0][layout.in_count_offset()], 3u);
    // Delivery order is ascending by sender.
    EXPECT_EQ(mem[0][layout.in_record_offset(0)], 1u);
    EXPECT_EQ(mem[0][layout.in_record_offset(1)], 2u);
    EXPECT_EQ(mem[0][layout.in_record_offset(2)], 3u);
    // Senders' outgoing counts were consumed.
    for (ProcId p = 1; p < 4; ++p) EXPECT_EQ(mem[p][layout.out_count_offset()], 0u);
}

TEST(DeliverMessages, AppendsToUnconsumedInbox) {
    const ContextLayout layout{1, 3};
    const std::size_t mu = layout.context_words();
    std::vector<std::vector<Word>> mem(2, std::vector<Word>(mu, 0));
    mem[0][layout.in_count_offset()] = 1;  // one stale message
    mem[0][layout.in_record_offset(0)] = 7;
    mem[1][layout.out_count_offset()] = 1;
    mem[1][layout.out_record_offset(0)] = 0;
    mem[1][layout.out_record_offset(0) + 1] = 42;
    VectorAccessorSource with(mem, mu);
    deliver_messages(layout, 0, 2, with);
    EXPECT_EQ(mem[0][layout.in_count_offset()], 2u);
    EXPECT_EQ(mem[0][layout.in_record_offset(1) + 1], 42u);
}

/// Contexts for `count` processors where each sends `sends` messages to
/// (p + k + 1) % count, payloads derived from (p, k).
std::vector<std::vector<Word>> make_sending_contexts(const ContextLayout& layout,
                                                     std::uint64_t count,
                                                     std::size_t sends) {
    std::vector<std::vector<Word>> contexts(count,
                                            std::vector<Word>(layout.context_words(), 0));
    for (std::uint64_t p = 0; p < count; ++p) {
        contexts[p][layout.out_count_offset()] = sends;
        for (std::size_t k = 0; k < sends; ++k) {
            const std::size_t off = layout.out_record_offset(k);
            contexts[p][off] = (p + k + 1) % count;  // dest
            contexts[p][off + 1] = 1000 * p + k;     // payload0
            contexts[p][off + 2] = 7 * p + k;        // payload1
        }
    }
    return contexts;
}

TEST(DeliverMessages, CanonicalInboxOrderAcrossBlocks) {
    // Phase 2 appends block by block; every inbox must still receive its
    // messages in (src, send-order), whatever block the senders sit in.
    const ContextLayout layout{.data_words = 4, .max_messages = 6};
    const std::size_t sends = 3;
    for (const std::uint64_t count : {1u, 63u, 64u, 65u, 200u}) {
        auto contexts = make_sending_contexts(layout, count, sends);
        VectorAccessorSource src(contexts, layout.context_words());
        const std::size_t h = deliver_messages(layout, 0, count, src, /*id_base=*/5);
        std::size_t max_expected = 0;
        for (std::uint64_t q = 0; q < count; ++q) {
            std::vector<std::vector<Word>> expected;  // {src, payload0, payload1}
            for (std::uint64_t p = 0; p < count; ++p) {
                for (std::size_t k = 0; k < sends; ++k) {
                    if ((p + k + 1) % count == q) expected.push_back({5 + p, 1000 * p + k, 7 * p + k});
                }
            }
            max_expected = std::max(max_expected, expected.size());
            ASSERT_EQ(contexts[q][layout.in_count_offset()], expected.size())
                << "count=" << count << " q=" << q;
            for (std::size_t i = 0; i < expected.size(); ++i) {
                const std::size_t off = layout.in_record_offset(i);
                const std::vector<Word> got(contexts[q].begin() + off,
                                            contexts[q].begin() + off + 3);
                EXPECT_EQ(got, expected[i]) << "count=" << count << " q=" << q << " i=" << i;
            }
            EXPECT_EQ(contexts[q][layout.out_count_offset()], 0u);
        }
        EXPECT_EQ(h, max_expected) << "count=" << count;
    }
}

TEST(DeliverMessages, ZeroMessagesAtBlockEdges) {
    const ContextLayout layout{.data_words = 2, .max_messages = 2};
    for (const std::uint64_t count : {1u, 63u, 64u, 65u}) {
        auto contexts = make_sending_contexts(layout, count, 0);
        const auto before = contexts;
        VectorAccessorSource src(contexts, layout.context_words());
        DeliveryScratch scratch;
        EXPECT_EQ(deliver_messages(layout, 0, count, src, 0, &scratch), 0u) << count;
        EXPECT_EQ(contexts, before) << count;  // nothing moved
        EXPECT_TRUE(scratch.pending.empty()) << count;
    }
}

TEST(DeliverMessages, ScratchReusedAcrossSources) {
    // One scratch driven by two sources in turn must carry nothing over.
    const ContextLayout layout{.data_words = 2, .max_messages = 4};
    DeliveryScratch scratch;
    for (int round = 0; round < 2; ++round) {
        auto a = make_sending_contexts(layout, 70, 2);
        auto b = make_sending_contexts(layout, 70, 2);
        VectorAccessorSource sa(a, layout.context_words());
        VectorAccessorSource sb(b, layout.context_words());
        const std::size_t ra = deliver_messages(layout, 0, 70, sa, 0, &scratch);
        const std::size_t rb = deliver_messages(layout, 0, 70, sb, 0, &scratch);
        EXPECT_EQ(ra, rb);
        EXPECT_EQ(a, b);
    }
}

/// Records which processors each begin_block()/end_block() bracket touched.
class BracketRecorder final : public AccessorSource {
public:
    BracketRecorder(std::vector<std::vector<Word>>& contexts, std::size_t mu)
        : inner_(contexts, mu) {}
    ContextAccessor& at(ProcId p) override {
        EXPECT_TRUE(open_) << "at(" << p << ") outside a block bracket";
        brackets.back().push_back(p);
        return inner_.at(p);
    }
    void begin_block() override {
        EXPECT_FALSE(open_);
        open_ = true;
        brackets.emplace_back();
    }
    void end_block() override {
        EXPECT_TRUE(open_);
        open_ = false;
    }

    std::vector<std::vector<ProcId>> brackets;

private:
    VectorAccessorSource inner_;
    bool open_ = false;
};

TEST(DeliverMessages, FoldsEachBlockInsideOneBracket) {
    // The charged executors fold one account per bracket, so the bracket
    // structure is part of the charged totals: phase 1 visits the senders of
    // block b in ascending order, phase 2 only the inboxes of block b.
    const ContextLayout layout{.data_words = 2, .max_messages = 4};
    for (const std::uint64_t count : {1u, 64u, 65u, 200u}) {
        auto contexts = make_sending_contexts(layout, count, 2);
        BracketRecorder src(contexts, layout.context_words());
        deliver_messages(layout, 0, count, src);
        const std::uint64_t nblocks = (count + kFoldBlockProcs - 1) / kFoldBlockProcs;
        ASSERT_EQ(src.brackets.size(), 2 * nblocks) << count;
        for (std::uint64_t b = 0; b < nblocks; ++b) {
            const ProcId lo = b * kFoldBlockProcs;
            const ProcId hi = std::min<ProcId>(count, lo + kFoldBlockProcs);
            std::vector<ProcId> senders;
            for (ProcId p = lo; p < hi; ++p) senders.push_back(p);
            EXPECT_EQ(src.brackets[b], senders) << "count=" << count << " block " << b;
            for (const ProcId q : src.brackets[nblocks + b]) {
                EXPECT_TRUE(q >= lo && q < hi) << "count=" << count << " block " << b;
            }
        }
    }
}

TEST(RelabeledProgram, DummyStepsDoNothing) {
    PairSwapProgram base(4);
    RelabeledProgram smoothed(base, {0, RelabeledProgram::kDummy, 1},
                              {1, 1, 0});
    EXPECT_EQ(smoothed.num_supersteps(), 3u);
    EXPECT_TRUE(smoothed.is_dummy(1));
    EXPECT_FALSE(smoothed.is_dummy(0));
    EXPECT_EQ(smoothed.label(1), 1u);
}

}  // namespace
}  // namespace dbsp::model
