#pragma once

/// \file dbsp_machine.hpp
/// Direct executor and cost model for D-BSP(v, mu, g(x)) programs (Section 2).
/// Runs a program superstep-by-superstep on flat per-processor contexts,
/// validates the communication discipline, and computes the exact model cost
///
///     T = sum_s ( tau_s + h_s * g(mu * v / 2^{i_s}) )
///
/// where tau_s is the maximum per-processor local work in superstep s and h_s
/// the degree of the superstep's h-relation (max messages sent or received by
/// any processor). The functional result (final contexts) is the reference
/// against which every simulator is tested.

#include <vector>

#include "model/access_function.hpp"
#include "model/cluster_tree.hpp"
#include "model/program.hpp"
#include "model/types.hpp"
#include "trace/sink.hpp"

namespace dbsp::model {

/// Per-superstep execution record.
struct SuperstepStats {
    unsigned label = 0;          ///< i_s
    std::uint64_t tau = 0;       ///< max local ops over processors
    std::size_t h = 0;           ///< h-relation degree
    double comm_arg = 0.0;       ///< mu * v / 2^{i_s}, the g() argument
    double cost = 0.0;           ///< tau + h * g(comm_arg), with tau >= 1
};

/// Result of executing a program to completion.
struct DbspResult {
    double time = 0.0;                        ///< total D-BSP time
    std::vector<SuperstepStats> supersteps;   ///< one record per superstep
    std::vector<std::vector<Word>> contexts;  ///< final mu-word contexts
    std::size_t data_words = 0;               ///< D, for extracting user data

    /// User data words of processor p (excludes message-buffer words, whose
    /// final contents are also identical across executors but are not part of
    /// the program's observable output).
    std::vector<Word> data_of(ProcId p) const;

    /// Total communication component sum_s h_s * g(...).
    double communication_time() const;
    /// Total computation component sum_s tau_s.
    double computation_time() const;
};

/// The executor. Stateless apart from the bandwidth function; run() may be
/// called repeatedly and concurrently on distinct machines.
class DbspMachine {
public:
    explicit DbspMachine(AccessFunction g) : g_(std::move(g)) {}

    /// Execute \p program to completion.
    DbspResult run(Program& program) const;

    /// Build the initial mu-word contexts for \p program (zeroed buffers,
    /// init()-filled data words). Shared with the simulators so every executor
    /// starts from the identical memory image.
    static std::vector<std::vector<Word>> initial_contexts(const Program& program);

    const AccessFunction& bandwidth() const { return g_; }

    /// Attach (or detach, with nullptr) a charge-trace sink: run() then emits
    /// one superstep event per executed superstep — charged exactly
    /// max(tau, 1) + h * g(comm_arg), the same double added to result.time —
    /// and one messages event per delivery, and resets the sink's running
    /// total on entry so total() mirrors that run's time bit for bit. The
    /// sink is not owned and must outlive run().
    void set_trace(trace::Sink* sink) { trace_ = sink; }
    trace::Sink* trace() const { return trace_; }

private:
    AccessFunction g_;
    trace::Sink* trace_ = nullptr;  ///< not owned; nullptr = tracing off
};

}  // namespace dbsp::model
