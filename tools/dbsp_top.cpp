/// dbsp_top — terminal dashboard for a running dbsp_serve daemon.
///
/// Connects to the daemon's Unix socket and drives the op:"watch" stream of
/// "dbsp-telemetry-v1" frames (rolling QPS, p50/p99 latency, cache-hit
/// ratio, Theorem-5/12 bound-slack quantiles, worker-pool occupancy, logger
/// backpressure, /proc vitals), rendering one screen per frame. `--spans`
/// fetches the recent-request span trees instead.
///
/// Usage:
///   dbsp_top --socket PATH [--interval-ms N] [--count N] [--once] [--json]
///            [--spans N] [--version]
///
/// `--once` fetches a single frame and exits — with `--json` it prints the
/// raw frame line, which is what the CI serve-smoke probe consumes.
///
/// Exit status: 0 on success, 1 on connection/protocol failure, 2 on bad
/// flags.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "report/json.hpp"
#include "serve/client.hpp"
#include "cli.hpp"

namespace {

[[noreturn]] void usage(const char* self) {
    std::fprintf(stderr,
                 "usage: %s --socket PATH [--interval-ms N] [--count N] [--once]\n"
                 "          [--json] [--spans N] [--version]\n",
                 self);
    std::exit(2);
}

constexpr const char* kTool = "dbsp_top";
using dbsp::tools::bad_arg;
using dbsp::tools::parse_u64;

void render_window(const char* name, const dbsp::report::Json& w) {
    std::printf("  %-4s %8.1f %9.2f %9.2f %7.1f %8.0f\n", name,
                w["qps"].as_double(), w["p50_ms"].as_double(),
                w["p99_ms"].as_double(), w["cache_hit_ratio"].as_double() * 100.0,
                w["errors"].as_double());
}

/// One frame as a fixed-layout text screen.
void render_frame(const std::string& socket_path, const dbsp::report::Json& f) {
    std::printf("dbsp_top — %s   uptime %.1fs   seq %.0f\n", socket_path.c_str(),
                f["uptime_s"].as_double(), f["seq"].as_double());
    std::printf("  %-4s %8s %9s %9s %7s %8s\n", "win", "qps", "p50 ms", "p99 ms",
                "hit%", "errors");
    render_window("1s", f["windows"]["1s"]);
    render_window("10s", f["windows"]["10s"]);
    render_window("60s", f["windows"]["60s"]);

    const dbsp::report::Json& hmm = f["bound_slack"]["hmm"];
    const dbsp::report::Json& bt = f["bound_slack"]["bt"];
    std::printf("  slack/bound (60s)  hmm p50 %.3f p99 %.3f (n=%.0f)  "
                "bt p50 %.3f p99 %.3f (n=%.0f)\n",
                hmm["p50"].as_double(), hmm["p99"].as_double(),
                hmm["count"].as_double(), bt["p50"].as_double(),
                bt["p99"].as_double(), bt["count"].as_double());

    const dbsp::report::Json& s = f["server"];
    std::printf("  server  req %.0f  runs %.0f (active %.0f)  err %.0f  conn %.0f  "
                "cache %.0f/%.0f hits (%.0f entries)\n",
                s["requests"].as_double(), s["runs"].as_double(),
                s["active_runs"].as_double(), s["errors"].as_double(),
                s["connections"].as_double(), s["cache"]["hits"].as_double(),
                s["cache"]["hits"].as_double() + s["cache"]["misses"].as_double(),
                s["cache"]["entries"].as_double());

    const dbsp::report::Json& pool = f["pool"];
    const dbsp::report::Json& log = f["log"];
    const dbsp::report::Json& proc = f["proc"];
    std::printf("  pool %.0f/%.0f busy   log %s written %.0f dropped %.0f rot %.0f   "
                "proc fds %.0f threads %.0f\n",
                pool["busy"].as_double(), pool["workers"].as_double(),
                log["enabled"].as_bool() ? "on" : "off", log["written"].as_double(),
                log["dropped"].as_double(), log["rotations"].as_double(),
                proc["open_fds"].as_double(), proc["threads"].as_double());

    // Hardware counters since boot (multiplex-corrected). A daemon without
    // PMU access (container, DBSP_NO_PERF) reports the reason instead.
    const dbsp::report::Json& ctr = f["counters"];
    if (ctr["available"].as_bool(false)) {
        const dbsp::report::Json& ev = ctr["events"];
        auto scaled = [&ev](const char* name) {
            return ev[name]["scaled"].as_double(0.0);
        };
        auto pct = [](double misses, double accesses) {
            return accesses > 0.0 ? 100.0 * misses / accesses : 0.0;
        };
        const double cycles = scaled("cycles");
        std::printf("  hw   ipc %.2f   l1d-miss %.2f%%   llc-miss %.2f%%   "
                    "dtlb-miss %.3f%%   cycles %.3g\n",
                    cycles > 0.0 ? scaled("instructions") / cycles : 0.0,
                    pct(scaled("l1d_read_misses"), scaled("l1d_read_accesses")),
                    pct(scaled("llc_misses"), scaled("llc_accesses")),
                    pct(scaled("dtlb_read_misses"), scaled("dtlb_read_accesses")),
                    cycles);
    } else {
        const std::string& reason = ctr["reason"].as_string();
        std::printf("  hw   counters unavailable (%s)\n",
                    reason.empty() ? "no counters section" : reason.c_str());
    }
    std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
    if (dbsp::tools::handle_version_flag(argc, argv, kTool)) return 0;
    std::string socket_path;
    std::uint64_t interval_ms = 1000;
    std::uint64_t count = 0;  // 0 = stream until the daemon goes away
    std::uint64_t spans = 0;
    bool once = false;
    bool json = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char* {
            if (i + 1 >= argc) usage(argv[0]);
            return argv[++i];
        };
        if (arg == "--socket") {
            socket_path = next();
        } else if (arg == "--interval-ms") {
            interval_ms = parse_u64(kTool, "--interval-ms", next());
            if (interval_ms > 60000) {
                bad_arg(kTool, "--interval-ms", "(value)", "at most 60000");
            }
        } else if (arg == "--count") {
            count = parse_u64(kTool, "--count", next());
        } else if (arg == "--once") {
            once = true;
        } else if (arg == "--json") {
            json = true;
        } else if (arg == "--spans") {
            spans = parse_u64(kTool, "--spans", next());
            if (spans == 0 || spans > 1024) {
                bad_arg(kTool, "--spans", "(value)", "a count in [1, 1024]");
            }
        } else {
            usage(argv[0]);
        }
    }
    if (socket_path.empty()) usage(argv[0]);
    if (once) count = 1;

    dbsp::serve::Client client;
    std::string error;
    if (!client.connect(socket_path, &error)) {
        std::fprintf(stderr, "dbsp_top: cannot connect to \"%s\": %s\n",
                     socket_path.c_str(), error.c_str());
        return 1;
    }

    if (spans > 0) {
        dbsp::report::Json req = dbsp::report::Json::object();
        req.set("op", "spans");
        req.set("limit", spans);
        std::string reply;
        if (!client.request(req.dump_compact(), &reply, &error)) {
            std::fprintf(stderr, "dbsp_top: %s\n", error.c_str());
            return 1;
        }
        std::printf("%s\n", reply.c_str());
        return 0;
    }

    // The watch op caps one stream at 3600 frames; an unbounded dashboard
    // session just issues another watch when the stream runs dry.
    const bool clear_screen = !json && ::isatty(STDOUT_FILENO) != 0 && count != 1;
    std::uint64_t shown = 0;
    while (count == 0 || shown < count) {
        const std::uint64_t want =
            count == 0 ? 3600 : std::min<std::uint64_t>(count - shown, 3600);
        dbsp::report::Json req = dbsp::report::Json::object();
        req.set("op", "watch");
        req.set("interval_ms", interval_ms);
        req.set("count", want);
        if (!client.send_line(req.dump_compact(), &error)) {
            std::fprintf(stderr, "dbsp_top: %s\n", error.c_str());
            return 1;
        }
        for (std::uint64_t i = 0; i < want; ++i, ++shown) {
            std::string line;
            if (!client.read_reply(&line, &error)) {
                std::fprintf(stderr, "dbsp_top: %s\n", error.c_str());
                return 1;
            }
            if (json) {
                std::printf("%s\n", line.c_str());
                std::fflush(stdout);
                continue;
            }
            std::string parse_error;
            const auto frame = dbsp::report::Json::parse(line, &parse_error);
            if (!frame.has_value() || !(*frame)["schema"].is_string()) {
                std::fprintf(stderr, "dbsp_top: bad frame: %s\n",
                             parse_error.empty() ? line.c_str() : parse_error.c_str());
                return 1;
            }
            if (clear_screen) std::printf("\033[H\033[2J");
            render_frame(socket_path, *frame);
        }
    }
    return 0;
}
