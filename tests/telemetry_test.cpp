/// Tests for the PR-9 observability layer: windowed instruments
/// (report::WindowedCounter / WindowedHistogram), the JSONL event logger,
/// request span trees (SpanBuilder / SpanSink) and the telemetry hub's
/// frame assembly. Window arithmetic is tested with injected epoch seconds
/// — no sleeping — and the concurrent record-vs-snapshot test runs under
/// util::parallel_for so TSAN exercises the instrument locking.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "report/json.hpp"
#include "report/metrics.hpp"
#include "telemetry/logger.hpp"
#include "telemetry/span.hpp"
#include "telemetry/telemetry.hpp"
#include "trace/sink.hpp"
#include "util/parallel.hpp"

namespace {

using namespace dbsp;

// ---------------------------------------------------------------- windows

TEST(WindowedCounter, EmptyWindowIsZero) {
    report::WindowedCounter c;
    EXPECT_EQ(c.sum_over(100, 1), 0u);
    EXPECT_EQ(c.sum_over(100, 60), 0u);
    EXPECT_EQ(c.rate_over(100, 10), 0.0);
}

TEST(WindowedCounter, WindowCoversCompletedSecondsOnly) {
    report::WindowedCounter c;
    c.add(100, 5);  // the live second at now_s=100
    // A window queried at now_s=100 covers [100-w, 99] — the live second is
    // excluded so a half-elapsed second never reads as a low rate.
    EXPECT_EQ(c.sum_over(100, 10), 0u);
    // One second later it is a completed second and counts.
    EXPECT_EQ(c.sum_over(101, 10), 5u);
    EXPECT_EQ(c.sum_over(101, 1), 5u);
    // Sixty-one seconds later it has left the 60s window.
    EXPECT_EQ(c.sum_over(162, 60), 0u);
    EXPECT_DOUBLE_EQ(c.rate_over(101, 10), 0.5);
}

TEST(WindowedCounter, SlotRolloverReclaimsStaleSeconds) {
    report::WindowedCounter c;
    c.add(10, 7);
    // kSlots seconds later the same slot is reused for a new epoch; the old
    // count must not bleed into the new second's total.
    const std::int64_t later = 10 + report::WindowedCounter::kSlots;
    c.add(later, 3);
    EXPECT_EQ(c.sum_over(later + 1, 1), 3u);
    EXPECT_EQ(c.sum_over(later + 1, 60), 3u);
}

TEST(WindowedHistogram, EmptyWindowQuantilesAreZero) {
    report::WindowedHistogram h;
    const auto w = h.window_over(50, 60);
    EXPECT_EQ(w.total, 0u);
    EXPECT_EQ(w.quantile(0.5), 0.0);
    EXPECT_EQ(w.quantile(0.99), 0.0);
}

TEST(WindowedHistogram, QuantileAtBucketBoundaries) {
    report::WindowedHistogram h;
    // One sample in bucket [4,7] (values 4..7 share bucket 3).
    h.observe(10, 4);
    const auto w = h.window_over(11, 10);
    ASSERT_EQ(w.total, 1u);
    // A single-sample bucket interpolates to its upper bound at rank 1.
    EXPECT_EQ(w.quantile(0.0), report::WindowedHistogram::bucket_hi(3));
    EXPECT_EQ(w.quantile(1.0), report::WindowedHistogram::bucket_hi(3));

    // Two samples in distinct buckets: p50 resolves the low bucket, p99 the
    // high one — exactly at their interpolated rank positions.
    h.observe(10, 1);  // bucket 1 = [1,1]
    const auto w2 = h.window_over(11, 10);
    ASSERT_EQ(w2.total, 2u);
    EXPECT_EQ(w2.quantile(0.50), 1.0);
    EXPECT_EQ(w2.quantile(0.99), report::WindowedHistogram::bucket_hi(3));
}

TEST(WindowedHistogram, ZeroValueLandsInBucketZero) {
    report::WindowedHistogram h;
    h.observe(10, 0, 3);
    const auto w = h.window_over(11, 1);
    EXPECT_EQ(w.total, 3u);
    EXPECT_EQ(w.quantile(0.5), 0.0);
}

TEST(WindowedHistogram, WindowExpiryAndRollover) {
    report::WindowedHistogram h;
    h.observe(10, 100);
    EXPECT_EQ(h.window_over(11, 60).total, 1u);
    EXPECT_EQ(h.window_over(72, 60).total, 0u) << "sample aged out of the window";
    // Slot reuse at epoch + kSlots must reset the bucket array.
    h.observe(10 + report::WindowedHistogram::kSlots, 1);
    const auto w = h.window_over(11 + report::WindowedHistogram::kSlots, 1);
    EXPECT_EQ(w.total, 1u);
    EXPECT_EQ(w.quantile(1.0), 1.0);
}

TEST(WindowedHistogram, WindowClampsToRingCapacity) {
    report::WindowedHistogram h;
    h.observe(100, 8);
    // A window wider than the ring cannot resurrect overwritten slots; it
    // clamps to kSlots-1 completed seconds and still sees the sample.
    const auto w = h.window_over(101, 10000);
    EXPECT_EQ(w.total, 1u);
}

TEST(WindowedInstruments, ConcurrentRecordVsSnapshot) {
    report::WindowedCounter c;
    report::WindowedHistogram h;
    std::atomic<bool> stop{false};
    // Snapshot continuously on this thread while parallel_for workers
    // hammer add/observe across several epochs — TSAN-checked.
    std::thread reader([&] {
        while (!stop.load(std::memory_order_relaxed)) {
            (void)c.sum_over(7, 60);
            (void)h.window_over(7, 60).quantile(0.99);
        }
    });
    util::parallel_for(4096, [&](std::size_t i) {
        const std::int64_t now_s = static_cast<std::int64_t>(i % 8);
        c.add(now_s);
        h.observe(now_s, i % 1000);
    });
    stop.store(true, std::memory_order_relaxed);
    reader.join();
    // Every add with epoch in [0,5] is visible from now_s=6 (epochs 6,7 are
    // excluded-or-live); exact visibility depends on the epoch layout, so
    // assert the stable invariant: nothing lost in the full ring view.
    EXPECT_EQ(c.sum_over(8, 8), 4096u);
    EXPECT_EQ(h.window_over(8, 8).total, 4096u);
}

// ----------------------------------------------------------------- logger

TEST(Logger, DisabledLoggerIsInertAndCheap) {
    telemetry::Logger log;
    EXPECT_FALSE(log.active());
    EXPECT_FALSE(log.enabled(telemetry::LogLevel::kError));
    log.log(telemetry::LogLevel::kError, "ignored");
    EXPECT_EQ(log.stats().written, 0u);
}

TEST(Logger, LevelParsingIsStrict) {
    EXPECT_EQ(telemetry::parse_level("debug"), telemetry::LogLevel::kDebug);
    EXPECT_EQ(telemetry::parse_level("warn"), telemetry::LogLevel::kWarn);
    EXPECT_FALSE(telemetry::parse_level("WARN").has_value());
    EXPECT_FALSE(telemetry::parse_level("").has_value());
    EXPECT_FALSE(telemetry::parse_level("verbose").has_value());
}

TEST(Logger, WritesFilteredJsonLines) {
    const std::string path = testing::TempDir() + "dbsp_logger_test.jsonl";
    std::remove(path.c_str());
    {
        telemetry::Logger::Options options;
        options.path = path;
        options.level = telemetry::LogLevel::kInfo;
        telemetry::Logger log(options);
        ASSERT_TRUE(log.active());
        EXPECT_FALSE(log.enabled(telemetry::LogLevel::kDebug));
        log.log(telemetry::LogLevel::kDebug, "filtered-out");
        report::Json fields = report::Json::object();
        fields.set("answer", std::uint64_t{42});
        log.log(telemetry::LogLevel::kInfo, "test-event", std::move(fields));
        log.flush();
        EXPECT_EQ(log.stats().written, 1u);
        EXPECT_EQ(log.stats().dropped, 0u);
    }
    std::FILE* f = std::fopen(path.c_str(), "r");
    ASSERT_NE(f, nullptr);
    char line[512] = {};
    ASSERT_NE(std::fgets(line, sizeof(line), f), nullptr);
    std::fclose(f);
    const auto doc = report::Json::parse(line);
    ASSERT_TRUE(doc.has_value());
    EXPECT_EQ((*doc)["level"].as_string(), "info");
    EXPECT_EQ((*doc)["event"].as_string(), "test-event");
    EXPECT_EQ((*doc)["answer"].as_double(), 42.0);
    EXPECT_TRUE((*doc)["ts_ms"].is_number());
    std::remove(path.c_str());
}

TEST(Logger, RotationBoundsDiskUsage) {
    const std::string path = testing::TempDir() + "dbsp_logger_rotate.jsonl";
    std::remove(path.c_str());
    std::remove((path + ".1").c_str());
    {
        telemetry::Logger::Options options;
        options.path = path;
        options.level = telemetry::LogLevel::kDebug;
        options.max_bytes = 512;  // tiny: force several rotations
        telemetry::Logger log(options);
        for (int i = 0; i < 64; ++i) {
            report::Json fields = report::Json::object();
            fields.set("i", static_cast<std::uint64_t>(i));
            fields.set("pad", std::string(32, 'x'));
            log.log(telemetry::LogLevel::kInfo, "rotate", std::move(fields));
        }
        log.flush();
        EXPECT_EQ(log.stats().written, 64u);
        EXPECT_GT(log.stats().rotations, 0u);
    }
    // Live file and one predecessor at most, each near the threshold.
    std::FILE* live = std::fopen(path.c_str(), "r");
    ASSERT_NE(live, nullptr);
    std::fclose(live);
    std::FILE* old = std::fopen((path + ".1").c_str(), "r");
    ASSERT_NE(old, nullptr);
    std::fclose(old);
    std::remove(path.c_str());
    std::remove((path + ".1").c_str());
}

TEST(Logger, OverflowDropsAndCountsInsteadOfBlocking) {
    const std::string path = testing::TempDir() + "dbsp_logger_drop.jsonl";
    std::remove(path.c_str());
    {
        telemetry::Logger::Options options;
        options.path = path;
        options.level = telemetry::LogLevel::kDebug;
        options.queue_capacity = 4;
        telemetry::Logger log(options);
        // Far more lines than the queue holds, enqueued as fast as possible;
        // the writer cannot keep up with all of them, and log() must never
        // block — it either enqueues or drops+counts.
        for (int i = 0; i < 20000; ++i) {
            log.log(telemetry::LogLevel::kInfo, "burst");
        }
        log.flush();
        const auto stats = log.stats();
        EXPECT_EQ(stats.written + stats.dropped, 20000u);
        EXPECT_GT(stats.written, 0u);
    }
    std::remove(path.c_str());
}

TEST(Logger, UnopenablePathReportsInactive) {
    telemetry::Logger::Options options;
    options.path = "/nonexistent-dir-zzz/log.jsonl";
    telemetry::Logger log(options);
    EXPECT_FALSE(log.active());
}

// ------------------------------------------------------------------ spans

TEST(SpanBuilder, BuildsNestedTreeWithRelativeTimes) {
    telemetry::SpanBuilder b;
    b.begin("parse");
    b.end();
    b.begin("run");
    b.begin("inner");
    b.end();
    b.end();
    const telemetry::Span root = b.finish();
    ASSERT_EQ(root.children.size(), 2u);
    EXPECT_EQ(root.children[0].name, "parse");
    EXPECT_EQ(root.children[1].name, "run");
    ASSERT_EQ(root.children[1].children.size(), 1u);
    EXPECT_EQ(root.children[1].children[0].name, "inner");
    EXPECT_GE(root.dur_ns, root.children[1].dur_ns);
    // to_json round-trips structurally.
    const auto doc = report::Json::parse(root.to_json().dump_compact());
    ASSERT_TRUE(doc.has_value());
    EXPECT_EQ((*doc)["name"].as_string(), "request");
    EXPECT_EQ((*doc)["children"].size(), 2u);
}

TEST(SpanSink, PhaseScopesBecomeSpansAndTailAggregates) {
    telemetry::SpanSink sink(telemetry::steady_now_ns());
    const unsigned rounds =
        static_cast<unsigned>(telemetry::SpanSink::kMaxDetail) + 10;
    for (unsigned i = 0; i < rounds; ++i) {
        sink.phase_begin(trace::Phase::kSuperstep, i);
        sink.phase_end(trace::Phase::kSuperstep);
    }
    const telemetry::Span leg = sink.take("hmm");
    EXPECT_EQ(leg.name, "hmm");
    // kMaxDetail individual spans plus one aggregate holding the remainder.
    ASSERT_EQ(leg.children.size(), telemetry::SpanSink::kMaxDetail + 1);
    EXPECT_EQ(leg.children.front().label, 0u);
    const telemetry::Span& tail = leg.children.back();
    EXPECT_EQ(tail.count, 10u);

    // take() resets: a second leg starts clean.
    sink.phase_begin(trace::Phase::kSuperstep, 0);
    sink.phase_end(trace::Phase::kSuperstep);
    EXPECT_EQ(sink.take("bt").children.size(), 1u);
}

TEST(SpanSink, ChargeEventsAreIgnoredAndUnmatchedEndsAreSafe) {
    telemetry::SpanSink sink(0);
    EXPECT_FALSE(sink.wants_charges());
    sink.charge(100.0);
    sink.access(7, 3.0);
    sink.messages(5);
    sink.phase_end(trace::Phase::kSuperstep);  // unmatched: must not crash
    EXPECT_TRUE(sink.take("x").children.empty());
}

// -------------------------------------------------------------- telemetry

TEST(Telemetry, FrameCarriesSchemaWindowsAndVitals) {
    telemetry::Telemetry::Options options;
    telemetry::Telemetry hub(options);
    telemetry::RequestRecord rec;
    rec.id = hub.next_request_id();
    rec.op = "run";
    rec.ms = 2.5;
    rec.hmm_slack = 0.8;
    rec.bt_slack = 1.2;
    hub.record_request(std::move(rec));
    hub.record_cache(true);
    hub.record_cache(false);

    telemetry::ServerVitals vitals;
    vitals.requests = 3;
    vitals.cache_hits = 1;
    vitals.cache_misses = 1;
    const report::Json f = hub.frame(7, vitals);
    EXPECT_EQ(f["schema"].as_string(), "dbsp-telemetry-v1");
    EXPECT_EQ(f["seq"].as_double(), 7.0);
    EXPECT_TRUE(f["windows"]["1s"]["qps"].is_number());
    EXPECT_TRUE(f["windows"]["10s"]["p99_ms"].is_number());
    EXPECT_TRUE(f["windows"]["60s"]["cache_hit_ratio"].is_number());
    EXPECT_TRUE(f["bound_slack"]["hmm"]["p50"].is_number());
    EXPECT_GT(f["proc"]["open_fds"].as_double(), 0.0);
    EXPECT_GT(f["proc"]["threads"].as_double(), 0.0);
    EXPECT_EQ(f["server"]["requests"].as_double(), 3.0);

    // The spans ring serves the recorded request newest-first.
    const report::Json spans = hub.spans_json(8);
    ASSERT_EQ(spans.size(), 1u);
    EXPECT_EQ(spans.items()[0]["op"].as_string(), "run");
    EXPECT_GT(spans.items()[0]["bound_slack"]["hmm"].as_double(), 0.0);
}

TEST(Telemetry, SpanRingIsBounded) {
    telemetry::Telemetry::Options options;
    options.span_ring = 4;
    telemetry::Telemetry hub(options);
    for (int i = 0; i < 10; ++i) {
        telemetry::RequestRecord rec;
        rec.id = hub.next_request_id();
        rec.op = "ping";
        hub.record_request(std::move(rec));
    }
    EXPECT_EQ(hub.spans_json(100).size(), 4u);
    // Newest first: the last id recorded leads.
    EXPECT_EQ(hub.spans_json(100).items()[0]["id"].as_double(), 10.0);
}

TEST(Telemetry, SlowRequestLogsFullSpanTree) {
    const std::string path = testing::TempDir() + "dbsp_slow_req.jsonl";
    std::remove(path.c_str());
    {
        telemetry::Logger::Options lo;
        lo.path = path;
        lo.level = telemetry::LogLevel::kWarn;
        telemetry::Logger log(lo);
        telemetry::Telemetry::Options options;
        options.slow_ms = 1.0;
        options.logger = &log;
        telemetry::Telemetry hub(options);

        telemetry::RequestRecord fast;
        fast.id = 1;
        fast.op = "run";
        fast.ms = 0.5;
        hub.record_request(std::move(fast));

        telemetry::RequestRecord slow;
        slow.id = 2;
        slow.op = "run";
        slow.ms = 5.0;
        slow.root.name = "request";
        hub.record_request(std::move(slow));
        log.flush();
        EXPECT_EQ(log.stats().written, 1u) << "only the slow request logs";
    }
    std::FILE* f = std::fopen(path.c_str(), "r");
    ASSERT_NE(f, nullptr);
    char line[2048] = {};
    ASSERT_NE(std::fgets(line, sizeof(line), f), nullptr);
    std::fclose(f);
    const auto doc = report::Json::parse(line);
    ASSERT_TRUE(doc.has_value());
    EXPECT_EQ((*doc)["event"].as_string(), "slow-request");
    EXPECT_EQ((*doc)["id"].as_double(), 2.0);
    EXPECT_TRUE((*doc)["spans"].is_object());
    std::remove(path.c_str());
}

}  // namespace
