#pragma once

/// \file span.hpp
/// Request spans: every serve request gets a monotonically assigned id and a
/// tree of named, steady-clock-timed spans (parse -> cache-probe -> run ->
/// superstep[i] -> reply-write). SpanBuilder assembles the tree on the
/// request thread; SpanSink rides the existing trace::Sink phase-scope hooks
/// to time the simulator legs at superstep granularity without touching the
/// charging paths.
///
/// Spans observe wall time only. They never feed back into charged costs,
/// fingerprints or reply bytes — the span tree travels exclusively through
/// the op:"spans" telemetry ring and the slow-request log.

#include <cstdint>
#include <string>
#include <vector>

#include "report/json.hpp"
#include "telemetry/clock.hpp"
#include "trace/sink.hpp"

namespace dbsp::telemetry {

/// One node of a request's span tree. Timestamps are nanoseconds relative to
/// the request's own start, so trees serialize small and compare across
/// requests. `count > 1` marks an aggregated span (many phase instances
/// folded into one node once the per-leg detail cap is reached).
struct Span {
    std::string name;
    unsigned label = 0;           ///< superstep label, where one applies
    std::uint64_t start_ns = 0;   ///< relative to the request start
    std::uint64_t dur_ns = 0;
    std::uint64_t count = 1;      ///< instances folded into this node
    std::vector<Span> children;

    double ms() const { return static_cast<double>(dur_ns) / 1e6; }
    report::Json to_json() const;
};

/// Stack-shaped builder for one request's span tree. Not thread-safe: one
/// builder lives on one request thread.
class SpanBuilder {
public:
    SpanBuilder() : t0_ns_(steady_now_ns()) { root_.name = "request"; }

    std::uint64_t t0_ns() const { return t0_ns_; }

    /// Open a child of the innermost open span.
    void begin(std::string name) {
        Span s;
        s.name = std::move(name);
        s.start_ns = steady_now_ns() - t0_ns_;
        open_.push_back(std::move(s));
    }

    /// Close the innermost open span; returns a reference to the finished
    /// node (valid until its parent gains another child).
    Span& end() {
        Span done = std::move(open_.back());
        open_.pop_back();
        done.dur_ns = steady_now_ns() - t0_ns_ - done.start_ns;
        Span& parent = open_.empty() ? root_ : open_.back();
        parent.children.push_back(std::move(done));
        return parent.children.back();
    }

    /// Close the root and take the finished tree.
    Span finish() {
        while (!open_.empty()) end();
        root_.dur_ns = steady_now_ns() - t0_ns_;
        return std::move(root_);
    }

private:
    std::uint64_t t0_ns_;
    Span root_;
    std::vector<Span> open_;
};

/// trace::Sink adapter that turns the simulators' phase scopes (and the
/// direct machine's superstep events) into timed spans. Charge events are
/// no-ops: spans need none of the base class's exact cost mirror. They are
/// not free, though. Any attached sink switches the executors to their
/// traced accessors (HmmSimulator picks HmmShardSource<true>, and the HMM
/// and BT machines hand every charged word to the sink), so a SpanSink pays
/// one virtual no-op call per charged *word*, on top of its per-phase
/// spans. Every serve request attaches one. ROADMAP.md, "Per-layer
/// wall-clock profile, with phase-only observers kept on the fast path",
/// tracks the fix.
///
/// Detail is bounded: the first kMaxDetail phase instances are recorded as
/// individual spans ("superstep[i]" resolution — each simulator round is one
/// superstep); everything beyond folds into one aggregated span per phase,
/// so a million-round request produces a fixed-size tree.
class SpanSink final : public trace::Sink {
public:
    static constexpr std::size_t kMaxDetail = 48;

    /// \p t0_ns: the owning request's start stamp (SpanBuilder::t0_ns), so
    /// leg spans share the request-relative timebase.
    explicit SpanSink(std::uint64_t t0_ns) : t0_ns_(t0_ns) {}

    // Charge events: cheap no-ops (see file comment). total() stays 0; the
    // cost mirror is the AggregateSink's job, not ours.
    void access(trace::Addr, double) override {}
    void access_range(std::span<const double>, trace::Addr, trace::Addr) override {}
    void charge(double) override {}
    void block_op(std::span<const double>, double, unsigned,
                  std::initializer_list<trace::AddrRange>) override {}
    void block_transfer(trace::Addr, trace::Addr, std::uint64_t, double,
                        double) override {}
    void messages(std::uint64_t) override {}
    void shard_begin() override {}
    void shard_end() override {}
    void reset_total() override {}

    void phase_begin(trace::Phase phase, unsigned label) override;
    void phase_end(trace::Phase phase) override;

    /// Direct-machine superstep events carry no scope; the time between
    /// consecutive events is superstep i's duration.
    void superstep(unsigned label, std::uint64_t tau, std::size_t h, double comm_arg,
                   double cost) override;

    /// Assemble the leg span: recorded detail spans first, then one
    /// aggregated span per phase for the folded tail.
    Span take(std::string leg_name);

private:
    struct Open {
        trace::Phase phase;
        unsigned label;
        std::uint64_t start_ns;
    };
    struct Aggregate {
        std::uint64_t count = 0;
        std::uint64_t dur_ns = 0;
        std::uint64_t first_start_ns = 0;
    };

    void record(const char* name, unsigned label, std::uint64_t start_ns,
                std::uint64_t dur_ns, unsigned phase_index);

    std::uint64_t t0_ns_;
    std::uint64_t last_superstep_ns_ = 0;  ///< previous superstep event stamp
    std::vector<Open> open_;
    std::vector<Span> detail_;
    // Phases plus one extra slot for direct-machine superstep events.
    Aggregate aggregate_[trace::kPhaseCount + 1] = {};
};

}  // namespace dbsp::telemetry
