#pragma once

/// \file bench.hpp
/// Shared pieces of the perfbench program: run arguments, the result record
/// printed as the final JSON line, benchmark-owned spans, and the small
/// statistics and /proc helpers both workload families use.
///
/// Spans here are the benchmark's own: they bracket calls into the public
/// API of each layer from outside `src/`. No trace::Sink is ever attached
/// to a simulator for timing, because any sink switches the executors onto
/// their per-word traced accessors and so measures a different program.

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "report/json.hpp"

namespace perfbench {

namespace report = dbsp::report;

/// Seed whose offline warm-up pass is pinned by golden.json.
inline constexpr std::uint64_t kGoldenSeed = 1;

/// Most concurrent job streams (offline) or client connections (serve_mix).
inline constexpr std::size_t kMaxStreams = 3;

/// Job streams or connections a workload runs side by side: nproc - 1, so
/// one CPU stays free for the rest of the system (the daemon's acceptor,
/// the telemetry poller), clamped to [1, kMaxStreams]. Running several
/// streams also averages out a slowdown of any one CPU of a shared host.
std::size_t stream_count();

struct Args {
    std::string workload;
    std::uint64_t seed = kGoldenSeed;
    double seconds = 10.0;
    bool trace = false;
    std::string serve_bin;    ///< dbsp_serve executable (serve_mix)
    std::string golden_path;  ///< golden.json (offline workloads)
    std::string out_path;     ///< machine-readable artifact
    std::string work_dir;     ///< private scratch root (sockets)
    bool print_golden = false;  ///< print the warm-up digest and exit
};

struct Metric {
    std::string name;
    std::string unit;
    double value = 0.0;
    std::uint64_t samples = 0;
};

/// Every per-layer metric, in report order. Each workload reports all of
/// them; a layer the workload bypasses did no work there and reads 0.
struct LayerMetricInfo {
    const char* name;
    const char* unit;
};
inline constexpr LayerMetricInfo kLayerMetrics[] = {
    {"algos.build_ms", "ms"},
    {"model.direct_ms", "ms"},
    {"core.smooth_ms", "ms"},
    {"core.hmm_sim_ms", "ms"},
    {"hmm.words", "count"},
    {"hmm.rounds", "count"},
    {"hmm.ns_per_word", "ns"},
    {"core.bt_sim_ms", "ms"},
    {"bt.block_transfers", "count"},
    {"bt.transfer_cells", "count"},
    {"bt.sorts", "count"},
    {"bt.transposes", "count"},
    {"bt.rounds", "count"},
    {"bt.ns_per_transfer", "ns"},
    {"model.cost_table_builds", "count"},
    {"model.cost_table_hit_ratio", "ratio"},
    {"bench.self_ms", "ms"},
    {"bench.job_ms", "ms"},
    {"bench.trace_overhead_pct", "%"},
    {"serve.wait_ms", "ms"},
    {"serve.parse_ms", "ms"},
    {"serve.cache_probe_ms", "ms"},
    {"serve.reply_write_ms", "ms"},
    {"serve.run.dbsp_ms", "ms"},
    {"serve.run.hmm_ms", "ms"},
    {"serve.run.bt_ms", "ms"},
    {"serve.cache_hit_ratio", "ratio"},
    {"serve.cache_evictions", "count"},
    {"serve.miss_p50_ms", "ms"},
    {"serve.hit_p50_ms", "ms"},
    {"serve.locality_p50_ms", "ms"},
    {"serve.job_p99_ms", "ms"},
    {"locality.accesses", "count"},
    {"locality.ns_per_access", "ns"},
    {"util.pool_busy_frac", "ratio"},
};

/// A measured per-layer value and the number of samples behind it.
struct LayerValue {
    double value = 0.0;
    std::uint64_t samples = 0;
};

/// Everything one invocation measured. `end_to_end` comes from the untraced
/// timed window; `per_layer` from the traced replay (--trace 1 only).
struct Result {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> errors;  ///< correctness failures, for stderr
    std::vector<Metric> end_to_end;
    std::vector<Metric> per_layer;
    report::Json details = report::Json::object();  ///< artifact-only facts
    report::Json spans = report::Json::array();     ///< traced-run spans

    bool correct() const { return errors.empty() && failed == 0; }
    void fail(std::string message) { errors.push_back(std::move(message)); }
    void e2e(std::string name, std::string unit, double value, std::uint64_t samples) {
        end_to_end.push_back({std::move(name), std::move(unit), value, samples});
    }
    /// Fill per_layer from \p values in kLayerMetrics order (absent = 0).
    void set_layers(const std::map<std::string, LayerValue>& values);
};

Result run_offline(const Args& args);
Result run_serve_mix(const Args& args);

/// Warm-up digest of an offline workload at kGoldenSeed (--print-golden).
std::string offline_golden_digest(const std::string& workload);

// --- clocks and process counters -----------------------------------------

double now_s();                 ///< steady clock, seconds
std::uint64_t now_ns();         ///< steady clock, nanoseconds
double process_cpu_s();         ///< CPU time of this process, all threads
double self_peak_rss_mb();      ///< VmHWM of this process
double peak_rss_mb(int pid);    ///< VmHWM of \p pid (0 when unreadable)
/// CPU time of \p pid summed over its live threads from
/// /proc/<pid>/task/*/schedstat, in seconds (0 when unreadable).
double schedstat_cpu_s(int pid);

// --- statistics -------------------------------------------------------------

double median(std::vector<double> xs);
/// Nearest-rank quantile, q in [0, 1].
double quantile(std::vector<double> xs, double q);
double mean(const std::vector<double>& xs);

// --- seeding and digests ------------------------------------------------------

/// SplitMix64 finaliser over a pair, for deriving independent stream seeds.
std::uint64_t mix(std::uint64_t a, std::uint64_t b);

/// FNV-1a accumulator for digests of costs and counts.
struct Digest {
    std::uint64_t h = 14695981039346656037ull;
    void add(const void* data, std::size_t n);
    void add_u64(std::uint64_t x) { add(&x, sizeof(x)); }
    void add_double(double x) { add(&x, sizeof(x)); }
    void add_str(const std::string& s) { add(s.data(), s.size() + 1); }
    std::string hex() const;
};

// --- benchmark-owned spans ---------------------------------------------------

/// In-memory span log. begin()/end() nest like a stack on one thread; when
/// disabled every call is a no-op, so the same job code serves the timed and
/// the traced pass.
class Tracer {
public:
    struct Span {
        std::string name;
        std::uint64_t job = 0;
        int parent = -1;  ///< index into spans(), -1 for a root
        std::uint64_t start_ns = 0;
        std::uint64_t end_ns = 0;
        double ms() const { return static_cast<double>(end_ns - start_ns) / 1e6; }
    };

    explicit Tracer(bool enabled) : enabled_(enabled) {}

    void begin(const char* name, std::uint64_t job);
    void end();

    const std::vector<Span>& spans() const { return spans_; }
    /// Self time per span: duration minus the durations of its children.
    std::vector<double> self_ms() const;
    /// Summed self time and span count per span name.
    std::map<std::string, LayerValue> self_by_name() const;
    /// Append every span to \p out, timed in ms from \p t0_ns, with its
    /// parent index shifted to its position in \p out and \p stream noted.
    void append_json(report::Json& out, std::uint64_t t0_ns, std::uint64_t stream) const;

private:
    bool enabled_;
    std::vector<Span> spans_;
    std::vector<int> open_;
};

}  // namespace perfbench
