#include "util/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "report/metrics.hpp"

namespace dbsp::util {

std::optional<std::size_t> parse_thread_count(std::string_view value) {
    std::size_t n = 0;
    const char* end = value.data() + value.size();
    const auto [ptr, ec] = std::from_chars(value.data(), end, n, 10);
    if (ec != std::errc{} || ptr != end || n == 0) return std::nullopt;
    return n;
}

std::size_t default_threads() {
    static std::once_flag warned;
    if (const char* env = std::getenv("DBSP_BENCH_THREADS")) {
        if (const auto n = parse_thread_count(env)) return *n;
        std::call_once(warned, [env] {
            std::fprintf(stderr,
                         "dbsp: warning: ignoring DBSP_BENCH_THREADS=\"%s\" (expected a "
                         "positive integer); using hardware concurrency\n",
                         env);
        });
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

namespace {

/// Set while a thread is running pool work (workers permanently, callers for
/// the duration of their own job). Nested parallel_for calls from inside a
/// job run inline instead of re-entering the pool, so nesting never
/// oversubscribes.
thread_local bool t_in_parallel_region = false;

/// Lazily grown pool of persistent workers. One job runs at a time
/// (serialized by job_mutex_); the caller participates, and exactly
/// min(threads - 1, pool size) workers join it via the slot counter, so an
/// explicit `threads = k` uses k participants even on a wide machine —
/// scaling measurements stay honest.
class Pool {
public:
    static Pool& instance() {
        static Pool pool;
        return pool;
    }

    PoolStats stats() {
        std::lock_guard<std::mutex> lock(mutex_);
        return {workers_.size(), busy_};
    }

    void run(std::size_t n, void* ctx, detail::IndexFn fn, std::size_t threads) {
        std::lock_guard<std::mutex> job(job_mutex_);
        ensure_workers(threads - 1);
        {
            std::lock_guard<std::mutex> lock(mutex_);
            n_ = n;
            ctx_ = ctx;
            fn_ = fn;
            error_ = nullptr;
            next_.store(0, std::memory_order_relaxed);
            const std::size_t helpers = std::min(threads - 1, workers_.size());
            slots_.store(static_cast<long>(helpers), std::memory_order_relaxed);
            ++epoch_;
        }
        work_cv_.notify_all();

        const bool was_inside = t_in_parallel_region;
        t_in_parallel_region = true;
        drain();
        t_in_parallel_region = was_inside;

        {
            std::unique_lock<std::mutex> lock(mutex_);
            done_cv_.wait(lock, [&] { return busy_ == 0; });
            // Workers that wake late for this epoch must find no free slot.
            slots_.store(0, std::memory_order_relaxed);
        }
        if (error_) std::rethrow_exception(error_);
    }

private:
    Pool() = default;

    ~Pool() {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            stop_ = true;
        }
        work_cv_.notify_all();
        for (auto& worker : workers_) worker.join();
    }

    void ensure_workers(std::size_t want) {
        std::lock_guard<std::mutex> lock(mutex_);
        while (workers_.size() < want) {
            workers_.emplace_back([this] { worker_loop(); });
        }
    }

    void worker_loop() {
        t_in_parallel_region = true;
        std::unique_lock<std::mutex> lock(mutex_);
        std::uint64_t seen = 0;
        while (true) {
            work_cv_.wait(lock, [&] { return stop_ || epoch_ != seen; });
            if (stop_) return;
            seen = epoch_;
            if (slots_.fetch_sub(1, std::memory_order_acquire) <= 0) continue;
            ++busy_;
            lock.unlock();
            drain();
            lock.lock();
            if (--busy_ == 0) done_cv_.notify_all();
        }
    }

    /// Claim and run indices until the job's counter is exhausted. Captures
    /// the first exception; later indices still run so the job always drains.
    void drain() {
        while (true) {
            const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
            if (i >= n_) return;
            try {
                fn_(ctx_, i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(error_mutex_);
                if (!error_) error_ = std::current_exception();
            }
        }
    }

    std::mutex job_mutex_;  ///< serializes top-level jobs

    std::mutex mutex_;  ///< guards epoch_/busy_/stop_/workers_ + job fields
    std::condition_variable work_cv_;
    std::condition_variable done_cv_;
    std::vector<std::thread> workers_;
    std::uint64_t epoch_ = 0;
    std::size_t busy_ = 0;
    bool stop_ = false;

    // Current job (written under mutex_ before the epoch bump publishes it).
    std::size_t n_ = 0;
    void* ctx_ = nullptr;
    detail::IndexFn fn_ = nullptr;
    std::atomic<std::size_t> next_{0};
    std::atomic<long> slots_{0};
    std::mutex error_mutex_;
    std::exception_ptr error_;
};

}  // namespace

PoolStats pool_stats() { return Pool::instance().stats(); }

namespace detail {

void parallel_for_impl(std::size_t n, void* ctx, IndexFn fn, std::size_t threads) {
    if (n == 0) return;
    if (threads == 0) threads = default_threads();
    if (threads > n) threads = n;

    // Utilization telemetry, once per call (never per task).
    static auto& metric_calls = report::metric_counter("parallel.for_calls");
    static auto& metric_tasks = report::metric_counter("parallel.tasks");
    static auto& metric_workers = report::metric_histogram("parallel.workers");
    metric_calls.add();
    metric_tasks.add(n);
    metric_workers.observe(threads);

    if (threads <= 1 || t_in_parallel_region) {
        for (std::size_t i = 0; i < n; ++i) fn(ctx, i);
        return;
    }
    Pool::instance().run(n, ctx, fn, threads);
}

}  // namespace detail

}  // namespace dbsp::util
