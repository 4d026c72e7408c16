/// perfbench — the repository benchmark program.
///
///   perfbench --workload hmm_batch|bt_batch|serve_mix --seed N --seconds S
///             --trace 0|1 [--serve-bin PATH] [--golden PATH] [--out PATH]
///             [--work-dir DIR]
///   perfbench --print-golden hmm_batch|bt_batch
///
/// Prints one human-readable line per metric, then, as the last line of
/// stdout, one JSON object {"correct", "attempted", "failed", "metrics"}:
/// the end-to-end metrics with --trace 0, the per-layer metrics of the traced
/// replay with --trace 1. --out writes every metric of both kinds plus the
/// traced spans as one JSON artifact. Exit status is 0 only when every
/// correctness check passed and no job failed; 2 on bad arguments.
///
/// perfbench/run.py builds this binary and dbsp_serve, then runs it; see
/// perfbench/README.md for the workloads and the metric map.

#include <dirent.h>
#include <time.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "bench.hpp"

namespace perfbench {

void Result::set_layers(const std::map<std::string, LayerValue>& values) {
    per_layer.clear();
    for (const LayerMetricInfo& info : kLayerMetrics) {
        const auto it = values.find(info.name);
        const LayerValue v = it == values.end() ? LayerValue{} : it->second;
        per_layer.push_back({info.name, info.unit, v.value, v.samples});
    }
}

// --- clocks and process counters -----------------------------------------

std::uint64_t now_ns() {
    timespec ts{};
    ::clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
           static_cast<std::uint64_t>(ts.tv_nsec);
}

double now_s() { return static_cast<double>(now_ns()) / 1e9; }

double process_cpu_s() {
    timespec ts{};
    ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

namespace {

double vm_hwm_mb(const std::string& status_path) {
    std::FILE* f = std::fopen(status_path.c_str(), "r");
    if (f == nullptr) return 0.0;
    char line[256];
    double kb = 0.0;
    while (std::fgets(line, sizeof(line), f) != nullptr) {
        if (std::strncmp(line, "VmHWM:", 6) == 0) {
            kb = std::strtod(line + 6, nullptr);
            break;
        }
    }
    std::fclose(f);
    return kb / 1024.0;
}

}  // namespace

std::size_t stream_count() {
    const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
    return std::clamp<std::size_t>(nproc - 1, 1, kMaxStreams);
}

double self_peak_rss_mb() { return vm_hwm_mb("/proc/self/status"); }

double peak_rss_mb(int pid) {
    return vm_hwm_mb("/proc/" + std::to_string(pid) + "/status");
}

double schedstat_cpu_s(int pid) {
    const std::string task_dir = "/proc/" + std::to_string(pid) + "/task";
    DIR* d = ::opendir(task_dir.c_str());
    if (d == nullptr) return 0.0;
    unsigned long long total = 0;
    while (const dirent* e = ::readdir(d)) {
        if (e->d_name[0] == '.') continue;
        const std::string path = task_dir + "/" + e->d_name + "/schedstat";
        std::FILE* f = std::fopen(path.c_str(), "r");
        if (f == nullptr) continue;
        unsigned long long ns = 0;
        if (std::fscanf(f, "%llu", &ns) == 1) total += ns;
        std::fclose(f);
    }
    ::closedir(d);
    return static_cast<double>(total) / 1e9;
}

// --- statistics -------------------------------------------------------------

double median(std::vector<double> xs) {
    if (xs.empty()) return 0.0;
    std::sort(xs.begin(), xs.end());
    const std::size_t n = xs.size();
    return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

double quantile(std::vector<double> xs, double q) {
    if (xs.empty()) return 0.0;
    std::sort(xs.begin(), xs.end());
    const auto rank =
        static_cast<std::size_t>(std::ceil(q * static_cast<double>(xs.size())));
    return xs[std::min(rank == 0 ? 0 : rank - 1, xs.size() - 1)];
}

double mean(const std::vector<double>& xs) {
    if (xs.empty()) return 0.0;
    double sum = 0.0;
    for (double x : xs) sum += x;
    return sum / static_cast<double>(xs.size());
}

// --- seeding and digests ------------------------------------------------------

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
    std::uint64_t z = a * 0x9e3779b97f4a7c15ull + b + 0x632be59bd9b4e019ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

void Digest::add(const void* data, std::size_t n) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) h = (h ^ bytes[i]) * 1099511628211ull;
}

std::string Digest::hex() const {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
    return buf;
}

// --- spans ----------------------------------------------------------------------

void Tracer::begin(const char* name, std::uint64_t job) {
    if (!enabled_) return;
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back({name, job, parent, now_ns(), 0});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
}

void Tracer::end() {
    if (!enabled_) return;
    spans_[static_cast<std::size_t>(open_.back())].end_ns = now_ns();
    open_.pop_back();
}

std::vector<double> Tracer::self_ms() const {
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) self[i] = spans_[i].ms();
    for (const Span& s : spans_) {
        if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= s.ms();
    }
    return self;
}

std::map<std::string, LayerValue> Tracer::self_by_name() const {
    std::map<std::string, LayerValue> out;
    const std::vector<double> self = self_ms();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        LayerValue& v = out[spans_[i].name];
        v.value += self[i];
        ++v.samples;
    }
    return out;
}

void Tracer::append_json(report::Json& out, std::uint64_t t0_ns,
                         std::uint64_t stream) const {
    const auto base = static_cast<int>(out.size());
    for (const Span& s : spans_) {
        report::Json j = report::Json::object();
        j.set("name", s.name);
        j.set("job", s.job);
        j.set("stream", stream);
        j.set("parent", s.parent < 0 ? -1 : base + s.parent);
        j.set("start_ms", static_cast<double>(s.start_ns - t0_ns) / 1e6);
        j.set("end_ms", static_cast<double>(s.end_ns - t0_ns) / 1e6);
        out.push_back(std::move(j));
    }
}

}  // namespace perfbench

namespace {

using namespace perfbench;

[[noreturn]] void usage(const char* message) {
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload hmm_batch|bt_batch|serve_mix --seed N\n"
                 "                 --seconds S --trace 0|1 [--serve-bin PATH]\n"
                 "                 [--golden PATH] [--out PATH] [--work-dir DIR]\n"
                 "       perfbench --print-golden hmm_batch|bt_batch\n",
                 message);
    std::exit(2);
}

std::uint64_t parse_u64(const char* flag, const char* text) {
    std::uint64_t n = 0;
    const char* end = text + std::strlen(text);
    const auto [ptr, ec] = std::from_chars(text, end, n, 10);
    if (ec != std::errc{} || ptr != end || text == end) {
        usage((std::string("invalid ") + flag + " \"" + text + "\"").c_str());
    }
    return n;
}

/// Shortest round-trip decimal form: every digit the measurement has.
std::string num(double x) {
    if (!std::isfinite(x)) x = 0.0;
    char buf[64];
    const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), x);
    return ec == std::errc{} ? std::string(buf, ptr) : std::string("0");
}

std::string metrics_json(const std::vector<Metric>& metrics) {
    std::string out = "{";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        if (i > 0) out += ", ";
        out += "\"" + metrics[i].name + "\": {\"value\": " + num(metrics[i].value) +
               ", \"unit\": \"" + metrics[i].unit + "\"}";
    }
    return out + "}";
}

report::Json metrics_artifact(const std::vector<Metric>& metrics) {
    report::Json out = report::Json::array();
    for (const Metric& m : metrics) {
        report::Json j = report::Json::object();
        j.set("name", m.name);
        j.set("unit", m.unit);
        j.set("value", std::isfinite(m.value) ? m.value : 0.0);
        j.set("samples", m.samples);
        out.push_back(std::move(j));
    }
    return out;
}

void print_metrics(const char* kind, const std::vector<Metric>& metrics) {
    for (const Metric& m : metrics) {
        std::printf("%-10s %-26s %14.6g %-6s n=%llu\n", kind, m.name.c_str(), m.value,
                    m.unit.c_str(), static_cast<unsigned long long>(m.samples));
    }
}

}  // namespace

int main(int argc, char** argv) {
    Args args;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char* {
            if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
            return argv[++i];
        };
        if (arg == "--workload") {
            args.workload = next();
            have_workload = true;
        } else if (arg == "--seed") {
            args.seed = parse_u64("--seed", next());
        } else if (arg == "--seconds") {
            const std::uint64_t s = parse_u64("--seconds", next());
            if (s == 0) usage("--seconds must be positive");
            args.seconds = static_cast<double>(s);
        } else if (arg == "--trace") {
            const std::uint64_t t = parse_u64("--trace", next());
            if (t > 1) usage("--trace must be 0 or 1");
            args.trace = t == 1;
        } else if (arg == "--serve-bin") {
            args.serve_bin = next();
        } else if (arg == "--golden") {
            args.golden_path = next();
        } else if (arg == "--out") {
            args.out_path = next();
        } else if (arg == "--work-dir") {
            args.work_dir = next();
        } else if (arg == "--print-golden") {
            args.workload = next();
            args.print_golden = true;
            have_workload = true;
        } else {
            usage(("unknown argument " + arg).c_str());
        }
    }
    if (!have_workload) usage("--workload is required");
    const bool offline = args.workload == "hmm_batch" || args.workload == "bt_batch";
    if (!offline && args.workload != "serve_mix") {
        usage(("unknown workload \"" + args.workload + "\"").c_str());
    }
    if (args.print_golden) {
        if (!offline) usage("--print-golden takes an offline workload");
        std::printf("%s\n", offline_golden_digest(args.workload).c_str());
        return 0;
    }
    if (offline && args.golden_path.empty()) usage("offline workloads need --golden");
    if (!offline && (args.serve_bin.empty() || args.work_dir.empty())) {
        usage("serve_mix needs --serve-bin and --work-dir");
    }

    Result result = offline ? run_offline(args) : run_serve_mix(args);

    for (const std::string& e : result.errors) {
        std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", e.c_str());
    }
    const double failed_frac =
        result.attempted > 0
            ? static_cast<double>(result.failed) / static_cast<double>(result.attempted)
            : 0.0;
    std::printf("workload %s  seed %llu  seconds %g  trace %d\n", args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds,
                args.trace ? 1 : 0);
    print_metrics("end-to-end", result.end_to_end);
    std::printf("%-10s %-26s %14.6g %-6s n=%llu\n", "end-to-end", "failed_frac",
                failed_frac, "1", static_cast<unsigned long long>(result.attempted));
    print_metrics("per-layer", result.per_layer);
    std::printf("checks: %s (%zu failed)\n", result.correct() ? "all pass" : "FAILED",
                result.errors.size());

    if (!args.out_path.empty()) {
        report::Json doc = report::Json::object();
        doc.set("schema", "dbsp-perfbench-v1");
        doc.set("workload", args.workload);
        doc.set("seed", args.seed);
        doc.set("seconds", args.seconds);
        doc.set("trace", args.trace);
        doc.set("correct", result.correct());
        doc.set("attempted", result.attempted);
        doc.set("failed", result.failed);
        doc.set("failed_frac", failed_frac);
        report::Json errors = report::Json::array();
        for (const std::string& e : result.errors) errors.push_back(e);
        doc.set("errors", std::move(errors));
        doc.set("end_to_end", metrics_artifact(result.end_to_end));
        doc.set("per_layer", metrics_artifact(result.per_layer));
        doc.set("details", std::move(result.details));
        doc.set("spans", std::move(result.spans));
        std::string error;
        if (!doc.save_file(args.out_path, &error)) {
            std::fprintf(stderr, "perfbench: cannot write %s: %s\n", args.out_path.c_str(),
                         error.c_str());
            result.fail("artifact not written");
        }
    }

    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                result.correct() ? "true" : "false",
                static_cast<unsigned long long>(result.attempted),
                static_cast<unsigned long long>(result.failed),
                metrics_json(args.trace ? result.per_layer : result.end_to_end).c_str());
    return result.correct() ? 0 : 1;
}
