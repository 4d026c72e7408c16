/// Offline workloads: hmm_batch and bt_batch.
///
/// A job is one pass over a fixed program set — E3-style random routing
/// (fill_messages = 8), bitonic sort, matrix multiplication and the
/// recursive FFT — under each of the access functions x^0.5, x^0.35 and
/// log in turn, every program with fresh inputs drawn from (seed, job).
/// Every program runs directly on model::DbspMachine, is smoothed by
/// core::smooth and is simulated by core::HmmSimulator (hmm_batch) or
/// core::BtSimulator (bt_batch; the FFT a second time with
/// rational-permutation delivery). All jobs do the same kinds of work, so
/// a median over jobs never sits between two kinds of job.
/// stream_count() threads run the jobs side by side, each taking the next
/// job index when it finishes one.
///
/// Checks on every run: each simulated final image equals the direct one,
/// the counts of job 0 repeat between the timed and the traced pass, and
/// the warm-up pass — job 0 of the golden seed — digests its charged costs
/// and counts to the value stored in golden.json.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <complex>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "algos/bitonic_sort.hpp"
#include "algos/fft_recursive.hpp"
#include "algos/matmul.hpp"
#include "algos/permutation.hpp"
#include "bench.hpp"
#include "core/bt_simulator.hpp"
#include "core/hmm_simulator.hpp"
#include "core/smoothing.hpp"
#include "model/cost_table_cache.hpp"
#include "model/dbsp_machine.hpp"
#include "util/bits.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using namespace dbsp;

/// Cold set-ups per run; setup_s is their median.
constexpr int kSetupReps = 9;

struct Geometry {
    bool bt = false;
    std::uint64_t v = 0;      ///< routing, bitonic and matmul processors
    std::uint64_t fft_n = 0;  ///< 2^(2^k), as FftRecursiveProgram requires
};

/// bt_batch is kept small (v = 64, FFT n = 16): BT simulations at v = 256
/// or with the n = 256 FFT run up to 1.9x slower whenever the shared host
/// contends for the caches, which changes from run to run
/// (perfbench/README.md, "Steadiness").
Geometry geometry(const std::string& workload) {
    if (workload == "bt_batch") return {true, 64, 16};
    return {false, 1024, 256};
}

constexpr int kFunctions = 3;

model::AccessFunction access_function(int i) {
    switch (i) {
        case 0: return model::AccessFunction::polynomial(0.5);
        case 1: return model::AccessFunction::polynomial(0.35);
        default: return model::AccessFunction::logarithmic();
    }
}

/// Simulator-side counts of one job (sums over its programs).
struct Counts {
    std::uint64_t hmm_words = 0;
    std::uint64_t hmm_rounds = 0;
    std::uint64_t bt_transfers = 0;
    std::uint64_t bt_cells = 0;
    std::uint64_t bt_sorts = 0;
    std::uint64_t bt_transposes = 0;
    std::uint64_t bt_rounds = 0;

    void add(const Counts& o) {
        hmm_words += o.hmm_words;
        hmm_rounds += o.hmm_rounds;
        bt_transfers += o.bt_transfers;
        bt_cells += o.bt_cells;
        bt_sorts += o.bt_sorts;
        bt_transposes += o.bt_transposes;
        bt_rounds += o.bt_rounds;
    }
    bool operator==(const Counts&) const = default;
};

struct JobOutcome {
    Counts counts;
    std::vector<std::string> errors;
};

/// E3-style labels: a descending sweep log v .. 0 with a random label after
/// every other step.
std::vector<unsigned> routing_labels(std::uint64_t v, SplitMix64& rng) {
    std::vector<unsigned> labels;
    const unsigned log_v = ilog2(v);
    for (unsigned l = 0; l <= log_v; ++l) {
        labels.push_back(log_v - l);
        if (l % 2 == 0) labels.push_back(static_cast<unsigned>(rng.next_below(log_v + 1)));
    }
    return labels;
}

using ProgramPtr = std::unique_ptr<model::Program>;

/// Build \p copies identical instances of program \p kind from inputs drawn
/// from \p rng: one for the direct run, one per simulation.
std::vector<ProgramPtr> build_program(int kind, const Geometry& g, SplitMix64& rng,
                                      int copies) {
    std::vector<ProgramPtr> out;
    switch (kind) {
        case 0: {
            const std::vector<unsigned> labels = routing_labels(g.v, rng);
            const std::uint64_t seed = rng.next();
            for (int i = 0; i < copies; ++i) {
                out.push_back(std::make_unique<algo::RandomRoutingProgram>(
                    g.v, labels, seed, /*local_ops=*/0, /*fill_messages=*/8));
            }
            break;
        }
        case 1: {
            std::vector<model::Word> keys(g.v);
            for (auto& k : keys) k = rng.next();
            for (int i = 0; i < copies; ++i) {
                out.push_back(std::make_unique<algo::BitonicSortProgram>(keys));
            }
            break;
        }
        case 2: {
            std::vector<model::Word> a(g.v), b(g.v);
            for (auto& x : a) x = rng.next();
            for (auto& x : b) x = rng.next();
            for (int i = 0; i < copies; ++i) {
                out.push_back(std::make_unique<algo::MatMulProgram>(a, b));
            }
            break;
        }
        default: {
            std::vector<std::complex<double>> x(g.fft_n);
            for (auto& c : x) c = {rng.next_double() - 0.5, rng.next_double() - 0.5};
            for (int i = 0; i < copies; ++i) {
                out.push_back(std::make_unique<algo::FftRecursiveProgram>(x));
            }
            break;
        }
    }
    return out;
}

constexpr const char* kProgramNames[] = {"routing", "bitonic", "matmul", "fft"};

/// Executor equivalence: every processor's user data matches the direct run.
template <typename SimResult>
bool same_image(const model::DbspResult& direct, const SimResult& sim, std::uint64_t v) {
    for (model::ProcId p = 0; p < v; ++p) {
        if (direct.data_of(p) != sim.data_of(p)) return false;
    }
    return true;
}

/// One job. Layer calls are bracketed by benchmark spans (no-ops when
/// \p tracer is disabled); image checks run inside the job span but outside
/// every layer span, so they land in bench.self_ms. \p digest, when given,
/// folds in every final image, charged cost and count.
JobOutcome run_job(const Geometry& g, std::uint64_t seed, std::uint64_t job,
                   Tracer& tracer, Digest* digest) {
    JobOutcome out;
    SplitMix64 rng(mix(seed, job));
    tracer.begin("bench.job", job);
    for (int i = 0; i < kFunctions * 4; ++i) {
        const model::AccessFunction f = access_function(i / 4);
        const int kind = i % 4;
        const bool rational = g.bt && kind == 3;
        tracer.begin("algos.build", job);
        std::vector<ProgramPtr> progs = build_program(kind, g, rng, rational ? 3 : 2);
        tracer.end();
        const std::uint64_t v = progs[0]->num_processors();
        const std::size_t mu = progs[0]->context_words();

        tracer.begin("model.direct", job);
        const model::DbspResult direct = model::DbspMachine(f).run(*progs[0]);
        tracer.end();

        const std::string where =
            std::string(kProgramNames[kind]) + " job " + std::to_string(job) + " (" +
            f.name() + ")";
        if (digest != nullptr) {
            digest->add_str(kProgramNames[kind]);
            digest->add_str(f.key());
            digest->add_double(direct.time);
            for (model::ProcId p = 0; p < v; ++p) {
                const std::vector<model::Word> data = direct.data_of(p);
                digest->add(data.data(), data.size() * sizeof(model::Word));
            }
        }
        Counts c;
        if (!g.bt) {
            tracer.begin("core.smooth", job);
            auto smoothed = core::smooth(*progs[1], core::hmm_label_set(f, mu, v));
            tracer.end();
            tracer.begin("core.hmm_sim", job);
            const core::HmmSimResult res = core::HmmSimulator(f).simulate(*smoothed);
            tracer.end();
            c.hmm_words = res.words_touched;
            c.hmm_rounds = res.rounds;
            if (digest != nullptr) digest->add_double(res.hmm_cost);
            if (!same_image(direct, res, v)) {
                out.errors.push_back("hmm image differs: " + where);
            }
        } else {
            for (int leg = 0; leg < (rational ? 2 : 1); ++leg) {
                tracer.begin("core.smooth", job);
                auto smoothed = core::smooth(*progs[1 + leg], core::bt_label_set(f, mu, v));
                tracer.end();
                core::BtSimulator::Options options;
                options.use_rational_permutations = leg == 1;
                tracer.begin("core.bt_sim", job);
                const core::BtSimResult res =
                    core::BtSimulator(f, options).simulate(*smoothed);
                tracer.end();
                c.bt_transfers += res.block_transfers;
                c.bt_cells += static_cast<std::uint64_t>(res.transfer_volume);
                c.bt_sorts += res.sort_invocations;
                c.bt_transposes += res.transpose_invocations;
                c.bt_rounds += res.rounds;
                if (digest != nullptr) digest->add_double(res.bt_cost);
                if (!same_image(direct, res, v)) {
                    out.errors.push_back(std::string("bt image differs") +
                                         (leg == 1 ? " (rational): " : ": ") + where);
                }
            }
        }
        if (digest != nullptr) {
            for (std::uint64_t x : {c.hmm_words, c.hmm_rounds, c.bt_transfers, c.bt_cells,
                                    c.bt_sorts, c.bt_transposes, c.bt_rounds}) {
                digest->add_u64(x);
            }
        }
        out.counts.add(c);
    }
    tracer.end();
    return out;
}

/// The warm-up pass: job 0 of the golden seed, which fills CostTableCache
/// for every (program, access function) the jobs use.
std::vector<std::string> warm_up(const Geometry& g, Digest* digest) {
    Tracer off(false);
    return run_job(g, kGoldenSeed, 0, off, digest).errors;
}

/// One finished job.
struct Done {
    std::uint64_t job = 0;
    double ms = 0.0;
    JobOutcome outcome;
    std::string digest;  ///< digest of its images, costs and counts (job 0 only)
};

/// Run jobs 0, 1, 2, ... on \p tracers.size() threads, thread t spanning its
/// jobs with tracers[t]. With \p deadline_s > 0 the threads take jobs until
/// the deadline has passed and job 0 is taken; otherwise they
/// take jobs 0 .. \p limit - 1. Every job taken runs to the end, so the jobs
/// done are 0 .. n-1; they are returned in job order.
std::vector<Done> run_streams(const Geometry& g, std::uint64_t seed, double deadline_s,
                              std::uint64_t limit, std::vector<Tracer>& tracers) {
    std::atomic<std::uint64_t> next{0};
    std::vector<std::vector<Done>> done(tracers.size());
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < tracers.size(); ++t) {
        threads.emplace_back([&, t] {
            while (deadline_s <= 0.0 || now_s() < deadline_s || next.load() == 0) {
                const std::uint64_t job = next++;
                if (deadline_s <= 0.0 && job >= limit) break;
                Done d;
                d.job = job;
                Digest digest;
                const std::uint64_t j0 = now_ns();
                d.outcome =
                    run_job(g, seed, job, tracers[t], job == 0 ? &digest : nullptr);
                d.ms = static_cast<double>(now_ns() - j0) / 1e6;
                if (job == 0) d.digest = digest.hex();
                done[t].push_back(std::move(d));
            }
        });
    }
    for (std::thread& t : threads) t.join();
    std::vector<Done> all;
    for (std::vector<Done>& d : done) std::move(d.begin(), d.end(), std::back_inserter(all));
    std::sort(all.begin(), all.end(),
              [](const Done& a, const Done& b) { return a.job < b.job; });
    return all;
}

std::map<std::string, LayerValue> count_layers(const Counts& c) {
    auto count = [](std::uint64_t x) {
        return LayerValue{static_cast<double>(x), 1};
    };
    return {
        {"hmm.words", count(c.hmm_words)},
        {"hmm.rounds", count(c.hmm_rounds)},
        {"bt.block_transfers", count(c.bt_transfers)},
        {"bt.transfer_cells", count(c.bt_cells)},
        {"bt.sorts", count(c.bt_sorts)},
        {"bt.transposes", count(c.bt_transposes)},
        {"bt.rounds", count(c.bt_rounds)},
    };
}

}  // namespace

std::string offline_golden_digest(const std::string& workload) {
    Digest digest;
    warm_up(geometry(workload), &digest);
    return digest.hex();
}

Result run_offline(const Args& args) {
    Result result;
    const Geometry g = geometry(args.workload);

    std::string golden;
    if (const auto doc = report::Json::load_file(args.golden_path)) {
        golden = (*doc)[args.workload].as_string();
    }
    if (golden.empty()) {
        result.fail("no golden digest for " + args.workload + " in " + args.golden_path);
    }

    // Set-up: kSetupReps cold warm-up passes (CostTableCache cleared before
    // each), every one checked against the golden digest. Cost-table counts
    // come from the first, fully cold pass.
    std::vector<double> setup_s;
    model::CostTableCache& cache = model::CostTableCache::global();
    std::uint64_t table_builds = 0;
    std::uint64_t table_avoided = 0;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        cache.clear();
        const auto before = cache.stats();
        Digest digest;
        const double t0 = now_s();
        const std::vector<std::string> errors = warm_up(g, &digest);
        setup_s.push_back(now_s() - t0);
        if (rep == 0) {
            const auto after = cache.stats();
            table_builds = after.builds - before.builds;
            table_avoided = after.builds_avoided() - before.builds_avoided();
        }
        for (const std::string& e : errors) result.fail("warm-up: " + e);
        if (!golden.empty() && digest.hex() != golden) {
            result.fail("warm-up digest " + digest.hex() + " != golden " + golden);
        }
    }

    // Timed window, tracing off: whole jobs until --seconds have passed.
    const std::size_t streams = stream_count();
    std::vector<Tracer> off(streams, Tracer(false));
    const double cpu0 = process_cpu_s();
    const double t0 = now_s();
    const std::vector<Done> timed = run_streams(g, args.seed, t0 + args.seconds, 0, off);
    const double elapsed = now_s() - t0;
    const double cpu_s = process_cpu_s() - cpu0;

    std::vector<double> job_ms;
    std::uint64_t jobs_ok = 0;
    for (const Done& d : timed) {
        job_ms.push_back(d.ms);
        ++result.attempted;
        if (d.outcome.errors.empty()) {
            ++jobs_ok;
        } else {
            ++result.failed;
            for (const std::string& e : d.outcome.errors) result.fail(e);
        }
    }
    const auto jobs = static_cast<std::uint64_t>(job_ms.size());
    const Counts& first_job = timed.front().outcome.counts;  // job 0 always runs

    result.e2e("setup_s", "s", median(setup_s), setup_s.size());
    result.e2e("jobs_per_s", "1/s", static_cast<double>(jobs_ok) / elapsed, jobs);
    result.e2e("job_p50_ms", "ms", median(job_ms), jobs);
    result.e2e("cpu_ms_per_job", "ms", cpu_s * 1e3 / static_cast<double>(jobs), jobs);
    result.e2e("peak_rss_mb", "MB", self_peak_rss_mb(), 1);

    result.details.set("streams", static_cast<std::uint64_t>(streams));
    result.details.set("jobs", jobs);
    result.details.set("stream_digest", timed.front().digest);
    result.details.set("window_s", elapsed);
    result.details.set("job_mean_ms", mean(job_ms));
    result.details.set("cost_table_builds", table_builds);
    result.details.set("cost_table_builds_avoided", table_avoided);

    if (!args.trace) return result;

    // Traced replay of exactly the timed jobs, on as many streams.
    std::vector<Tracer> tracers(streams, Tracer(true));
    Counts traced_total;
    const std::vector<Done> replay = run_streams(g, args.seed, 0.0, jobs, tracers);
    for (const Done& d : replay) {
        for (const std::string& e : d.outcome.errors) result.fail("traced replay: " + e);
        traced_total.add(d.outcome.counts);
    }
    if (!(replay.front().outcome.counts == first_job)) {
        result.fail("job 0 counts differ between the timed and traced pass");
    }

    std::map<std::string, LayerValue> self;
    double job_total_ms = 0.0;
    std::uint64_t trace_t0 = UINT64_MAX;
    for (const Tracer& tracer : tracers) {
        for (const auto& [name, v] : tracer.self_by_name()) {
            self[name].value += v.value;
            self[name].samples += v.samples;
        }
        for (const Tracer::Span& s : tracer.spans()) {
            if (s.parent < 0) job_total_ms += s.ms();
            trace_t0 = std::min(trace_t0, s.start_ns);
        }
    }
    const double n = static_cast<double>(jobs);
    auto per_job = [&](const char* span) {
        const auto it = self.find(span);
        if (it == self.end()) return LayerValue{};
        return LayerValue{it->second.value / n, it->second.samples};
    };
    std::map<std::string, LayerValue> layers = count_layers(first_job);
    layers["algos.build_ms"] = per_job("algos.build");
    layers["model.direct_ms"] = per_job("model.direct");
    layers["core.smooth_ms"] = per_job("core.smooth");
    layers["core.hmm_sim_ms"] = per_job("core.hmm_sim");
    layers["core.bt_sim_ms"] = per_job("core.bt_sim");
    layers["bench.self_ms"] = per_job("bench.job");

    const double traced_job_ms = job_total_ms / n;
    layers["bench.job_ms"] = {traced_job_ms, jobs};
    layers["bench.trace_overhead_pct"] = {(traced_job_ms / mean(job_ms) - 1.0) * 100.0,
                                          jobs};
    if (traced_total.hmm_words > 0) {
        layers["hmm.ns_per_word"] = {self.at("core.hmm_sim").value * 1e6 /
                                         static_cast<double>(traced_total.hmm_words),
                                     jobs};
    }
    if (traced_total.bt_transfers > 0) {
        layers["bt.ns_per_transfer"] = {self.at("core.bt_sim").value * 1e6 /
                                            static_cast<double>(traced_total.bt_transfers),
                                        jobs};
    }
    layers["model.cost_table_builds"] = {static_cast<double>(table_builds), 1};
    layers["model.cost_table_hit_ratio"] = {
        table_builds + table_avoided > 0
            ? static_cast<double>(table_avoided) /
                  static_cast<double>(table_builds + table_avoided)
            : 0.0,
        1};
    result.set_layers(layers);

    // The named layer spans plus bench.self_ms add up to the job span.
    double parts_ms = 0.0;
    for (const char* name : {"algos.build_ms", "model.direct_ms", "core.smooth_ms",
                             "core.hmm_sim_ms", "core.bt_sim_ms", "bench.self_ms"}) {
        parts_ms += layers[name].value;
    }
    result.details.set("layer_sum_ms", parts_ms);
    if (std::abs(parts_ms - traced_job_ms) > 1e-6 * std::max(1.0, traced_job_ms)) {
        result.fail("layer self times do not add up to the job span");
    }
    for (std::size_t t = 0; t < streams; ++t) tracers[t].append_json(result.spans, trace_t0, t);
    return result;
}

}  // namespace perfbench
