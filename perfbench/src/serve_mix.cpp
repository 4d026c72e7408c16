/// serve_mix: closed-loop traffic against a spawned dbsp_serve daemon.
///
/// The daemon runs with its default flags and an empty environment (so no
/// DBSP_THREADS / DBSP_BENCH_THREADS: its worker pool has the default size)
/// on a socket in a private directory. C = stream_count() client
/// connections each drive their own seeded request sequence in a closed
/// loop: the next request goes out only after the previous reply arrived.
/// With --trace 1 the remaining connection polls op:"watch" and op:"spans".
///
/// Each connection sends rounds of kRound requests: kFresh fresh specs
/// (cache misses; one of them asks for locality profiling, exact on even
/// rounds and sampled on odd ones) and kRound - kFresh repeats of one of the
/// connection's last kWindow fresh specs (cache hits). No connection starts a
/// round more than kSkew rounds ahead of the slowest one, which bounds how
/// many entries can enter the shared LRU between a spec's miss and its
/// repeat, so every repeat hits whatever the timing and the daemon's cache
/// counters have a closed form.
///
/// Every request line is padded with blanks so that its length modulo C is
/// the connection index. The daemon records that length as `bytes_in`, which
/// lets the traced run join each op:"spans" record to the client request it
/// answers even though the connections interleave.

#include <signal.h>
#include <stdlib.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "check/program_gen.hpp"
#include "check/trace_io.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/runner.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using namespace dbsp;

constexpr std::size_t kRound = 10;  ///< requests per round
constexpr std::size_t kFresh = 6;   ///< fresh specs per round (one profiled)
constexpr std::size_t kWindow = 8;  ///< repeats draw from the last kWindow fresh
constexpr std::uint64_t kCacheEntries = 128;  ///< dbsp_serve default --cache
constexpr std::size_t kSkew = 2;  ///< a connection may start round r + kSkew
                                  ///< only once every connection finished round r
// A repeat of a spec first sent in round r goes out by round r + B, with
// B = ceil(kWindow / kFresh). Until then the LRU can take, ahead of that
// spec, the fresh specs of rounds [r - B, r + B] of its own connection and,
// since kSkew holds every other connection to rounds [r - kSkew + 1,
// r + B + kSkew - 1] meanwhile (each repeating up to B rounds back), of
// 2B + 2 kSkew - 1 rounds of each other connection. While that stays below
// the cache's capacity no repeat can have been evicted.
constexpr std::size_t kRepeatRounds = (kWindow + kFresh - 1) / kFresh;
static_assert(((2 * kRepeatRounds + 1) +
               (kMaxStreams - 1) * (2 * kRepeatRounds + 2 * kSkew - 1)) *
                      kFresh <
                  kCacheEntries,
              "a repeated spec could be evicted before it is sent again");
constexpr int kSetupReps = 9;  ///< daemon spawns per run; setup_s is the median
constexpr double kSampleRate = 0.05;
constexpr double kReadyTimeoutS = 10.0;
constexpr double kExitTimeoutS = 10.0;

enum Kind : int { kHit = 0, kMiss = 1, kLocalityExact = 2, kLocalitySampled = 3 };

// --- request plans -------------------------------------------------------------

struct Fresh {
    std::string line;  ///< the request line, padded to its connection tag
    Kind kind = kMiss;
};

struct Item {
    std::size_t fresh = 0;  ///< index into Plan::fresh
    bool repeat = false;
};

/// One connection's deterministic request sequence, grown a round at a time.
struct Plan {
    std::uint32_t conn = 0;
    std::uint32_t nconn = 1;
    std::uint64_t seed = 0;
    std::vector<Fresh> fresh;
    std::vector<Item> items;

    std::string make_line(std::size_t index, Kind kind) const {
        check::GenConfig cfg;
        // Serving geometry; profiled requests stay small because exact
        // profiling costs ~30x an unprofiled run.
        cfg.v_choices = kind == kMiss ? std::vector<std::uint64_t>{16, 32, 64, 128}
                                      : std::vector<std::uint64_t>{16, 32};
        cfg.max_supersteps = 16;
        const check::ProgramSpec spec = check::generate_spec(cfg, mix(seed, index));
        static const char* const kFunctions[] = {"x^0.5", "x^0.35", "log"};
        report::Json req = report::Json::object();
        req.set("op", "run");
        req.set("spec", check::serialize_spec(spec));
        req.set("f", kFunctions[index % 3]);
        req.set("model", "both");
        if (kind != kMiss) {
            report::Json loc = report::Json::object();
            loc.set("mode", kind == kLocalityExact ? "exact" : "sampled");
            if (kind == kLocalitySampled) loc.set("rate", kSampleRate);
            req.set("locality", std::move(loc));
        }
        std::string line = req.dump_compact();
        const std::size_t pad = (conn + nconn - line.size() % nconn) % nconn;
        line.insert(line.size() - 1, pad, ' ');
        return line;
    }

    void add_round() {
        const std::uint64_t round = items.size() / kRound;
        SplitMix64 rng(mix(seed ^ 0x5eedull, round));
        std::vector<bool> repeat(kRound, false);
        for (std::size_t i = kFresh; i < kRound; ++i) repeat[i] = true;
        for (std::size_t i = repeat.size() - 1; i > 0; --i) {
            const std::size_t j = rng.next_below(i + 1);
            const bool t = repeat[i];
            repeat[i] = repeat[j];
            repeat[j] = t;
        }
        if (fresh.empty() && repeat[0]) {
            // A connection's first request has nothing to repeat yet.
            *std::find(repeat.begin(), repeat.end(), false) = true;
            repeat[0] = false;
        }
        const std::size_t profiled = rng.next_below(kFresh);  // which fresh slot
        std::size_t fresh_in_round = 0;
        for (std::size_t i = 0; i < repeat.size(); ++i) {
            if (repeat[i]) {
                const std::size_t recent = std::min(kWindow, fresh.size());
                items.push_back({fresh.size() - 1 - rng.next_below(recent), true});
                continue;
            }
            Kind kind = kMiss;
            if (fresh_in_round++ == profiled) {
                kind = round % 2 == 0 ? kLocalityExact : kLocalitySampled;
            }
            fresh.push_back({make_line(fresh.size(), kind), kind});
            items.push_back({fresh.size() - 1, false});
        }
    }
};

struct Sent {
    std::uint64_t send_ns = 0;
    std::uint64_t recv_ns = 0;
    bool transport_ok = false;
    std::string reply;
    double ms() const { return static_cast<double>(recv_ns - send_ns) / 1e6; }
};

// --- the daemon ------------------------------------------------------------------

/// A spawned dbsp_serve; a daemon still running when this goes out of scope
/// (an early return on a failed check) is killed and reaped.
struct Daemon {
    pid_t pid = -1;

    Daemon() = default;
    ~Daemon() { kill_hard(); }
    Daemon(const Daemon&) = delete;
    Daemon& operator=(const Daemon&) = delete;

    /// fork + execve with an empty environment; stdout goes to our stderr so
    /// the benchmark's last stdout line stays its result.
    bool spawn(const std::string& bin, const std::string& socket) {
        std::vector<char*> argv = {const_cast<char*>(bin.c_str()),
                                   const_cast<char*>("--socket"),
                                   const_cast<char*>(socket.c_str()), nullptr};
        char* envp[] = {nullptr};
        pid = ::fork();
        if (pid == 0) {
            ::dup2(2, 1);
            ::execve(bin.c_str(), argv.data(), envp);
            ::_exit(127);
        }
        return pid > 0;
    }

    /// Connect and ping until the first pong, or fail after kReadyTimeoutS.
    bool wait_ready(serve::Client* client, const std::string& socket) {
        const double deadline = now_s() + kReadyTimeoutS;
        std::string error, reply;
        while (now_s() < deadline) {
            if (client->connect(socket, &error)) {
                return client->request("{\"op\":\"ping\"}", &reply, &error) &&
                       reply.find("\"pong\":true") != std::string::npos;
            }
            int status = 0;
            if (::waitpid(pid, &status, WNOHANG) == pid) {
                pid = -1;  // died before listening
                return false;
            }
            std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
        return false;
    }

    /// op:"shutdown" over \p client, then reap. True only on exit status 0
    /// within kExitTimeoutS; a hung daemon is killed.
    bool shutdown(serve::Client* client) {
        std::string reply, error;
        if (client->connected()) client->request("{\"op\":\"shutdown\"}", &reply, &error);
        client->close();
        return reap(kExitTimeoutS);
    }

    bool reap(double timeout_s) {
        if (pid <= 0) return false;
        const double deadline = now_s() + timeout_s;
        int status = 0;
        while (true) {
            const pid_t r = ::waitpid(pid, &status, WNOHANG);
            if (r == pid) break;
            if (r < 0 || now_s() > deadline) {
                kill_hard();
                return false;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
        pid = -1;
        return WIFEXITED(status) && WEXITSTATUS(status) == 0;
    }

    void kill_hard() {
        if (pid <= 0) return;
        ::kill(pid, SIGKILL);
        int status = 0;
        ::waitpid(pid, &status, 0);
        pid = -1;
    }
};

/// Private socket directory under the run's work dir, removed on exit.
struct SocketDir {
    std::string dir;
    std::string socket;

    SocketDir() = default;
    SocketDir(const SocketDir&) = delete;
    SocketDir& operator=(const SocketDir&) = delete;

    bool create(const std::string& work_dir) {
        ::mkdir(work_dir.c_str(), 0700);
        std::string templ = work_dir + "/serve-XXXXXX";
        if (::mkdtemp(templ.data()) == nullptr) return false;
        dir = templ;
        socket = dir + "/d.sock";
        return true;
    }
    ~SocketDir() {
        if (dir.empty()) return;
        ::unlink(socket.c_str());
        ::rmdir(dir.c_str());
    }
};

// --- traffic ---------------------------------------------------------------------

/// Holds every connection within kSkew rounds of the slowest one.
class RoundGate {
public:
    explicit RoundGate(std::size_t connections) : done_(connections, 0) {}

    /// Block until a connection may start round \p round.
    void wait_start(std::uint64_t round) {
        if (round < kSkew) return;
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] {
            return *std::min_element(done_.begin(), done_.end()) >= round - kSkew + 1;
        });
    }

    /// Connection \p c has finished \p rounds rounds.
    void finished(std::size_t c, std::uint64_t rounds) { set(c, rounds); }

    /// Connection \p c sends nothing more; it holds nobody back.
    void leave(std::size_t c) { set(c, UINT64_MAX); }

private:
    void set(std::size_t c, std::uint64_t rounds) {
        {
            std::lock_guard<std::mutex> lock(mu_);
            done_[c] = rounds;
        }
        cv_.notify_all();
    }

    std::mutex mu_;
    std::condition_variable cv_;
    std::vector<std::uint64_t> done_;
};

/// Drive every plan over its own connection. With \p deadline_s > 0 each
/// connection sends whole rounds until the deadline (growing its plan);
/// otherwise it replays its plan's items exactly. Either way a RoundGate
/// keeps the connections within kSkew rounds of each other. The caller sets
/// \p running to plans.size() first; each connection decrements it when done.
void drive(std::vector<Plan>& plans, std::vector<std::vector<Sent>>& sent,
           const std::string& socket, double deadline_s, std::atomic<std::uint64_t>& issued,
           std::atomic<int>& running) {
    RoundGate gate(plans.size());
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < plans.size(); ++c) {
        threads.emplace_back([&, c] {
            Plan& plan = plans[c];
            std::vector<Sent>& log = sent[c];
            serve::Client client;
            std::string error;
            bool alive = client.connect(socket, &error);
            for (std::size_t i = 0; alive; ++i) {
                if (i % kRound == 0) {
                    if (i > 0) gate.finished(c, i / kRound);
                    const bool more = i < plan.items.size() ||
                                      (deadline_s > 0.0 && now_s() < deadline_s);
                    if (!more) break;
                    gate.wait_start(i / kRound);
                    if (i == plan.items.size()) plan.add_round();
                }
                Sent s;
                issued.fetch_add(1);
                s.send_ns = now_ns();
                s.transport_ok =
                    client.request(plan.fresh[plan.items[i].fresh].line, &s.reply, &error);
                s.recv_ns = now_ns();
                alive = s.transport_ok;
                log.push_back(std::move(s));
            }
            gate.leave(c);
            if (!alive) {
                // A dead connection fails every request it still owed.
                while (log.size() < plan.items.size()) log.push_back(Sent{});
            }
            running.fetch_sub(1);
        });
    }
    for (std::thread& t : threads) t.join();
}

/// Wait for the traffic threads, killing the daemon if they overrun
/// \p limit_s (a hang then surfaces as transport failures, never as a
/// silently shorter run).
void watchdog(const std::atomic<int>& running, double limit_s, Daemon& daemon,
              Result& result) {
    while (running.load() > 0) {
        if (now_s() > limit_s) {
            result.fail("daemon stopped answering; killed");
            daemon.kill_hard();
            return;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
}

/// In-process serve::run_to_json for every fresh spec of every plan, the
/// reference each daemon reply must match byte for byte.
std::vector<std::vector<std::string>> expected_results(const std::vector<Plan>& plans,
                                                       Result& result) {
    std::vector<std::pair<std::size_t, std::size_t>> work;
    std::vector<std::vector<std::string>> out(plans.size());
    for (std::size_t c = 0; c < plans.size(); ++c) {
        out[c].resize(plans[c].fresh.size());
        for (std::size_t k = 0; k < plans[c].fresh.size(); ++k) work.push_back({c, k});
    }
    std::atomic<std::size_t> next{0};
    std::vector<std::string> errors(work.size());
    const unsigned workers =
        std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
    std::vector<std::thread> threads;
    for (unsigned w = 0; w < workers; ++w) {
        threads.emplace_back([&] {
            for (std::size_t i = next++; i < work.size(); i = next++) {
                const auto [c, k] = work[i];
                serve::Request req;
                if (!serve::parse_request(plans[c].fresh[k].line, 4u << 20, &req,
                                          &errors[i])) {
                    continue;
                }
                req.options.threads = 1;
                try {
                    out[c][k] = serve::run_to_json(req.spec, req.options);
                } catch (const std::exception& e) {
                    errors[i] = e.what();
                }
            }
        });
    }
    for (std::thread& t : threads) t.join();
    for (const std::string& e : errors) {
        if (!e.empty()) result.fail("benchmark request rejected locally: " + e);
    }
    return out;
}

struct Traffic {
    std::vector<std::vector<Sent>> sent;
    double window_s = 0.0;
    double daemon_cpu_s = 0.0;
    double daemon_rss_mb = 0.0;
};

/// Byte-identity of every reply and the daemon's closed-form cache counters.
/// Returns the number of failed requests.
std::uint64_t check_traffic(const std::vector<Plan>& plans, const Traffic& t,
                            const std::vector<std::vector<std::string>>& expected,
                            const report::Json& stats, const char* leg, Result& result) {
    std::uint64_t failed = 0, fresh = 0, repeats = 0;
    for (std::size_t c = 0; c < plans.size(); ++c) {
        for (std::size_t i = 0; i < t.sent[c].size(); ++i) {
            const Item& item = plans[c].items[i];
            (item.repeat ? repeats : fresh) += 1;
            const Sent& s = t.sent[c][i];
            const std::string& want = expected[c][item.fresh];
            if (!s.transport_ok || want.empty() ||
                s.reply != serve::run_reply(want, item.repeat)) {
                ++failed;
                if (failed <= 5) {
                    result.fail(std::string(leg) + ": connection " + std::to_string(c) +
                                " request " + std::to_string(i) +
                                (s.transport_ok ? " reply differs from run_to_json"
                                                : " transport error"));
                }
            }
        }
    }
    const report::Json& cache = stats["stats"]["cache"];
    const double evictions =
        fresh > kCacheEntries ? static_cast<double>(fresh - kCacheEntries) : 0.0;
    if (cache["hits"].as_double(-1) != static_cast<double>(repeats) ||
        cache["misses"].as_double(-1) != static_cast<double>(fresh) ||
        cache["evictions"].as_double(-1) != evictions ||
        stats["stats"]["errors"].as_double(-1) != 0.0) {
        result.fail(std::string(leg) + ": op stats " + stats.dump_compact() +
                    " != closed form hits " + std::to_string(repeats) + " misses " +
                    std::to_string(fresh) + " evictions " +
                    std::to_string(static_cast<std::uint64_t>(evictions)));
    }
    return failed;
}

std::optional<report::Json> ask(serve::Client& client, const char* line) {
    std::string reply, error;
    if (!client.request(line, &reply, &error)) return std::nullopt;
    return report::Json::parse(reply);
}

/// Spawn a ready daemon; false (with a failure recorded) if it never answers.
bool start_daemon(const Args& args, const SocketDir& dir, Daemon& daemon,
                  serve::Client& control, Result& result) {
    if (!daemon.spawn(args.serve_bin, dir.socket) ||
        !daemon.wait_ready(&control, dir.socket)) {
        result.fail("dbsp_serve did not answer ping within " +
                    std::to_string(kReadyTimeoutS) + " s");
        daemon.kill_hard();
        return false;
    }
    return true;
}

/// Stop the daemon after sampling its /proc counters; exit status 0 is
/// required.
void stop_daemon(Daemon& daemon, serve::Client& control, const char* leg, Result& result) {
    if (!daemon.shutdown(&control)) {
        result.fail(std::string(leg) + ": dbsp_serve did not exit cleanly with status 0");
    }
}

// --- traced-run telemetry ----------------------------------------------------------

struct Telemetry {
    std::map<std::uint64_t, report::Json> runs;  ///< op:"run" span records by id
    std::vector<double> busy_frac;               ///< pool.busy / pool.workers per frame
};

/// Fetch the newest \p limit span records; keep the op:"run" ones.
bool poll_spans(serve::Client& client, std::uint64_t limit, Telemetry& tel) {
    const std::string line = "{\"op\":\"spans\",\"limit\":" + std::to_string(limit) + "}";
    const auto doc = ask(client, line.c_str());
    if (!doc.has_value()) return false;
    for (const report::Json& r : (*doc)["spans"].items()) {
        if (r["op"].as_string() != "run") continue;
        tel.runs.emplace(static_cast<std::uint64_t>(r["id"].as_double()), r);
    }
    return true;
}

/// Poll op:"watch" (one frame) and op:"spans" until the traffic threads
/// finish, then drain the ring until every run request has its record.
void poll_telemetry(serve::Client& client, const std::atomic<int>& running,
                    const std::atomic<std::uint64_t>& issued, std::uint64_t expected_runs,
                    std::size_t nconn, double limit_s, Daemon& daemon, Telemetry& tel,
                    Result& result) {
    std::uint64_t last_issued = 0;
    bool ok = true;
    while (ok && running.load() > 0) {
        if (now_s() > limit_s) {
            result.fail("daemon stopped answering; killed");
            daemon.kill_hard();
            return;
        }
        const auto frame = ask(client, "{\"op\":\"watch\",\"interval_ms\":0,\"count\":1}");
        ok = frame.has_value();
        if (ok) {
            const double workers = (*frame)["pool"]["workers"].as_double();
            if (workers > 0) {
                tel.busy_frac.push_back((*frame)["pool"]["busy"].as_double() / workers);
            }
        }
        // Records added since the last poll: requests issued since then, the
        // ones in flight at that time, and this loop's own two requests.
        const std::uint64_t now_issued = issued.load();
        ok = ok && poll_spans(client, std::min<std::uint64_t>(
                                           1024, now_issued - last_issued + nconn + 4),
                              tel);
        last_issued = now_issued;
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    // A record lands in the ring just after its reply is written; drain.
    const double drain_deadline = now_s() + 2.0;
    while (ok && tel.runs.size() < expected_runs && now_s() < drain_deadline) {
        ok = poll_spans(client, 1024, tel);
        if (tel.runs.size() < expected_runs) {
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
    }
    if (!ok) result.fail("telemetry connection failed during the traced run");
}

const report::Json* child(const report::Json& span, const char* name) {
    for (const report::Json& c : span["children"].items()) {
        if (c["name"].as_string() == name) return &c;
    }
    return nullptr;
}

double span_ms(const report::Json& span, const char* name) {
    const report::Json* c = child(span, name);
    return c != nullptr ? (*c)["ms"].as_double() : 0.0;
}

std::uint64_t sum_accesses(const report::Json& result) {
    std::uint64_t n = 0;
    for (const char* leg : {"hmm", "bt"}) {
        n += static_cast<std::uint64_t>(
            result["locality"]["profiles"][leg]["accesses"].as_double());
    }
    return n;
}

double sum(const std::vector<double>& xs) {
    double total = 0.0;
    for (double x : xs) total += x;
    return total;
}

/// \p total_ms spread over \p units, in ns per unit; 0 when nothing counted.
LayerValue ns_per(double total_ms, double units, std::size_t samples) {
    if (units <= 0.0) return {};
    return {total_ms * 1e6 / units, samples};
}

/// Traced-replay aggregates over the joined requests.
struct Joined {
    std::vector<double> rtt, wait, parse, probe, write;  ///< every request
    std::vector<double> dbsp, hmm, bt;                   ///< plain misses' run legs
    double words = 0.0;      ///< HMM words touched by the plain misses
    double transfers = 0.0;  ///< BT block transfers of the plain misses
    double locality_run_ms = 0.0;  ///< run spans of the profiled misses
    double accesses = 0.0;         ///< profile accesses of the profiled misses
};

/// Artifact span of one joined request: the client round trip on the
/// benchmark's clock (ms after \p t0_ns) and, under "daemon", the daemon's
/// own span tree for it as op:"spans" returned it, timed from the moment the
/// daemon read the request.
report::Json request_span(std::uint64_t job, const Sent& s, std::uint64_t t0_ns,
                          const report::Json& root) {
    report::Json j = report::Json::object();
    j.set("name", "serve.request");
    j.set("job", job);
    j.set("parent", -1);
    j.set("start_ms", static_cast<double>(s.send_ns - t0_ns) / 1e6);
    j.set("end_ms", static_cast<double>(s.recv_ns - t0_ns) / 1e6);
    j.set("daemon", root);
    return j;
}

}  // namespace

Result run_serve_mix(const Args& args) {
    Result result;
    const std::size_t nconn = stream_count();

    SocketDir dir;
    if (!dir.create(args.work_dir)) {
        result.fail("cannot create a socket directory under " + args.work_dir);
        return result;
    }

    // Set-up: spawn-to-first-pong, kSetupReps times; the last daemon serves
    // the timed traffic. Its cache is not pre-warmed.
    std::vector<double> setup_s;
    Daemon daemon;
    serve::Client control;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        const double t0 = now_s();
        if (!start_daemon(args, dir, daemon, control, result)) return result;
        setup_s.push_back(now_s() - t0);
        if (rep + 1 < kSetupReps) stop_daemon(daemon, control, "set-up", result);
    }

    std::vector<Plan> plans(nconn);
    for (std::size_t c = 0; c < nconn; ++c) {
        plans[c].conn = static_cast<std::uint32_t>(c);
        plans[c].nconn = static_cast<std::uint32_t>(nconn);
        plans[c].seed = mix(args.seed, c);
    }

    // Timed window, no telemetry polling.
    Traffic timed;
    timed.sent.resize(nconn);
    std::atomic<std::uint64_t> issued{0};
    std::atomic<int> running{0};
    const double cpu0 = schedstat_cpu_s(daemon.pid);
    const double t0 = now_s();
    running.store(static_cast<int>(nconn));
    {
        std::thread traffic([&] {
            drive(plans, timed.sent, dir.socket, t0 + args.seconds, issued, running);
        });
        watchdog(running, t0 + args.seconds + 60.0, daemon, result);
        traffic.join();
    }
    timed.window_s = now_s() - t0;
    timed.daemon_cpu_s = schedstat_cpu_s(daemon.pid) - cpu0;
    timed.daemon_rss_mb = peak_rss_mb(daemon.pid);
    const auto stats = ask(control, "{\"op\":\"stats\"}");
    stop_daemon(daemon, control, "timed run", result);

    const auto expected = expected_results(plans, result);
    result.failed += check_traffic(plans, timed, expected,
                                   stats.value_or(report::Json::object()), "timed run",
                                   result);

    std::vector<double> all_ms, hit_ms, miss_ms, loc_ms;
    for (std::size_t c = 0; c < nconn; ++c) {
        for (std::size_t i = 0; i < timed.sent[c].size(); ++i) {
            const Sent& s = timed.sent[c][i];
            ++result.attempted;
            if (!s.transport_ok) continue;
            const Item& item = plans[c].items[i];
            all_ms.push_back(s.ms());
            if (item.repeat) {
                hit_ms.push_back(s.ms());
            } else if (plans[c].fresh[item.fresh].kind == kMiss) {
                miss_ms.push_back(s.ms());
            } else {
                loc_ms.push_back(s.ms());
            }
        }
    }
    const std::uint64_t ok_requests = result.attempted - result.failed;
    const auto n_all = static_cast<std::uint64_t>(all_ms.size());
    result.e2e("setup_s", "s", median(setup_s), setup_s.size());
    result.e2e("jobs_per_s", "1/s", static_cast<double>(ok_requests) / timed.window_s,
               n_all);
    result.e2e("job_p50_ms", "ms", median(all_ms), n_all);
    result.e2e("cpu_ms_per_job", "ms",
               n_all > 0 ? timed.daemon_cpu_s * 1e3 / static_cast<double>(n_all) : 0.0,
               n_all);
    result.e2e("peak_rss_mb", "MB", timed.daemon_rss_mb, 1);

    const double miss_p50 = median(miss_ms), hit_p50 = median(hit_ms);
    const double loc_p50 = median(loc_ms), p99 = quantile(all_ms, 0.99);
    result.details.set("connections", static_cast<std::uint64_t>(nconn));
    result.details.set("requests", n_all);
    result.details.set("window_s", timed.window_s);
    result.details.set("miss_p50_ms", miss_p50);
    result.details.set("miss_samples", static_cast<std::uint64_t>(miss_ms.size()));
    result.details.set("hit_p50_ms", hit_p50);
    result.details.set("hit_samples", static_cast<std::uint64_t>(hit_ms.size()));
    result.details.set("locality_p50_ms", loc_p50);
    result.details.set("locality_samples", static_cast<std::uint64_t>(loc_ms.size()));
    result.details.set("job_p99_ms", p99);
    {
        Digest stream;  // every connection's first round, which every run sends
        for (const Plan& p : plans) {
            for (std::size_t i = 0; i < kRound && i < p.items.size(); ++i) {
                stream.add_str(p.fresh[p.items[i].fresh].line);
            }
        }
        result.details.set("stream_digest", stream.hex());
    }

    if (!args.trace) return result;

    // Traced replay: the same per-connection request sequences against a
    // fresh daemon, with client spans and telemetry polling.
    Traffic traced;
    traced.sent.resize(nconn);
    Telemetry tel;
    std::uint64_t replay_runs = 0;
    for (const Plan& p : plans) replay_runs += p.items.size();
    if (!start_daemon(args, dir, daemon, control, result)) return result;
    const auto metrics0 = ask(control, "{\"op\":\"metrics\"}");
    issued.store(0);
    const double r0 = now_s();
    running.store(static_cast<int>(nconn));
    {
        std::thread traffic([&] {
            drive(plans, traced.sent, dir.socket, 0.0, issued, running);
        });
        serve::Client tclient;
        std::string error;
        if (!tclient.connect(dir.socket, &error)) {
            result.fail("telemetry connection refused: " + error);
            watchdog(running, r0 + 2 * timed.window_s + 60.0, daemon, result);
        } else {
            poll_telemetry(tclient, running, issued, replay_runs, nconn,
                           r0 + 2 * timed.window_s + 60.0, daemon, tel, result);
        }
        traffic.join();
    }
    const auto replay_stats = ask(control, "{\"op\":\"stats\"}");
    const auto metrics1 = ask(control, "{\"op\":\"metrics\"}");
    stop_daemon(daemon, control, "traced run", result);
    const std::uint64_t replay_failed =
        check_traffic(plans, traced, expected,
                      replay_stats.value_or(report::Json::object()), "traced run", result);
    if (replay_failed > 0) {
        result.fail("traced run: " + std::to_string(replay_failed) + " requests failed");
    }

    // Join daemon records to client requests: bytes_in mod C names the
    // connection, id order is the connection's request order.
    std::vector<std::vector<const report::Json*>> by_conn(nconn);
    for (const auto& [id, rec] : tel.runs) {
        const auto tag = static_cast<std::uint64_t>(rec["bytes_in"].as_double()) % nconn;
        by_conn[tag].push_back(&rec);
    }
    std::uint64_t t0_ns = UINT64_MAX;
    for (const std::vector<Sent>& log : traced.sent) {
        for (const Sent& s : log) t0_ns = std::min(t0_ns, s.send_ns);
    }
    report::Json spans = report::Json::array();
    Joined j;
    bool joined = true;
    for (std::size_t c = 0; c < nconn; ++c) {
        if (by_conn[c].size() != traced.sent[c].size()) {
            joined = false;
            continue;
        }
        for (std::size_t i = 0; i < traced.sent[c].size(); ++i) {
            const Sent& s = traced.sent[c][i];
            const report::Json& rec = *by_conn[c][i];
            const Item& item = plans[c].items[i];
            const Kind kind = item.repeat ? kHit : plans[c].fresh[item.fresh].kind;
            if (rec["cached"].as_bool() != item.repeat || !s.transport_ok) {
                joined = false;
                continue;
            }
            const report::Json& root = rec["spans"];
            j.rtt.push_back(s.ms());
            j.wait.push_back(s.ms() - root["ms"].as_double());
            j.parse.push_back(span_ms(root, "parse"));
            j.probe.push_back(span_ms(root, "cache-probe"));
            j.write.push_back(span_ms(root, "reply-write"));
            spans.push_back(
                request_span((static_cast<std::uint64_t>(c) << 32) | i, s, t0_ns, root));
            if (kind == kHit) continue;
            const report::Json* run = child(root, "run");
            const auto doc = report::Json::parse(expected[c][item.fresh]);
            if (run == nullptr || !doc.has_value()) {
                joined = false;
            } else if (kind == kMiss) {
                j.dbsp.push_back(span_ms(*run, "dbsp"));
                j.hmm.push_back(span_ms(*run, "hmm"));
                j.bt.push_back(span_ms(*run, "bt"));
                j.words += (*doc)["hmm"]["words_touched"].as_double();
                j.transfers += (*doc)["bt"]["block_transfers"].as_double();
            } else {
                j.locality_run_ms += (*run)["ms"].as_double();
                j.accesses += sum_accesses(*doc);
            }
        }
    }
    if (!joined) result.fail("traced run: span records do not join to the client requests");

    // Deterministic counts: every connection's first round, from the replies.
    std::map<std::string, LayerValue> layers;
    auto count = [&](const char* name, double x) {
        layers[name].value += x;
        layers[name].samples += 1;
    };
    for (std::size_t c = 0; c < nconn; ++c) {
        for (std::size_t i = 0; i < kRound && i < plans[c].items.size(); ++i) {
            const Item& item = plans[c].items[i];
            if (item.repeat) continue;
            const auto doc = report::Json::parse(expected[c][item.fresh]);
            if (!doc.has_value()) continue;
            count("hmm.words", (*doc)["hmm"]["words_touched"].as_double());
            count("hmm.rounds", (*doc)["hmm"]["rounds"].as_double());
            count("bt.block_transfers", (*doc)["bt"]["block_transfers"].as_double());
            count("bt.sorts", (*doc)["bt"]["sorts"].as_double());
            count("bt.transposes", (*doc)["bt"]["transposes"].as_double());
            count("bt.rounds", (*doc)["bt"]["rounds"].as_double());
            if (plans[c].fresh[item.fresh].kind != kMiss) {
                count("locality.accesses", static_cast<double>(sum_accesses(*doc)));
            }
        }
    }

    auto avg = [](const std::vector<double>& xs) {
        return LayerValue{mean(xs), static_cast<std::uint64_t>(xs.size())};
    };
    layers["serve.wait_ms"] = avg(j.wait);
    layers["serve.parse_ms"] = avg(j.parse);
    layers["serve.cache_probe_ms"] = avg(j.probe);
    layers["serve.reply_write_ms"] = avg(j.write);
    layers["serve.run.dbsp_ms"] = avg(j.dbsp);
    layers["serve.run.hmm_ms"] = avg(j.hmm);
    layers["serve.run.bt_ms"] = avg(j.bt);
    layers["hmm.ns_per_word"] = ns_per(sum(j.hmm), j.words, j.hmm.size());
    layers["bt.ns_per_transfer"] = ns_per(sum(j.bt), j.transfers, j.bt.size());
    layers["locality.ns_per_access"] = ns_per(j.locality_run_ms, j.accesses, 1);
    const report::Json replay_stats_doc = replay_stats.value_or(report::Json::object());
    const report::Json& cache = replay_stats_doc["stats"]["cache"];
    const double hits = cache["hits"].as_double(), misses = cache["misses"].as_double();
    layers["serve.cache_hit_ratio"] = {hits + misses > 0 ? hits / (hits + misses) : 0.0,
                                       static_cast<std::uint64_t>(hits + misses)};
    layers["serve.cache_evictions"] = {cache["evictions"].as_double(), 1};
    layers["serve.miss_p50_ms"] = {miss_p50, miss_ms.size()};
    layers["serve.hit_p50_ms"] = {hit_p50, hit_ms.size()};
    layers["serve.locality_p50_ms"] = {loc_p50, loc_ms.size()};
    layers["serve.job_p99_ms"] = {p99, n_all};
    layers["util.pool_busy_frac"] = avg(tel.busy_frac);
    layers["bench.job_ms"] = avg(j.rtt);
    layers["bench.trace_overhead_pct"] = {(mean(j.rtt) / mean(all_ms) - 1.0) * 100.0,
                                          j.rtt.size()};
    if (metrics0.has_value() && metrics1.has_value()) {
        auto delta = [&](const char* name) {
            return (*metrics1)["metrics"][name].as_double() -
                   (*metrics0)["metrics"][name].as_double();
        };
        const double builds = delta("cost_table.builds");
        const double avoided = delta("cost_table.hits") + delta("cost_table.slices");
        layers["model.cost_table_builds"] = {builds, 1};
        layers["model.cost_table_hit_ratio"] = {
            builds + avoided > 0 ? avoided / (builds + avoided) : 0.0, 1};
    }
    result.set_layers(layers);
    result.spans = std::move(spans);
    result.details.set("traced_window_s", now_s() - r0);
    result.details.set("watch_frames", static_cast<std::uint64_t>(tel.busy_frac.size()));
    return result;
}

}  // namespace perfbench
