#pragma once

/// \file naive_hmm_simulator.hpp
/// Baseline: the "trivial" superstep-by-superstep simulation of a D-BSP
/// program on the f(x)-HMM, with every processor context pinned at its home
/// block for the whole run. Each superstep touches all v contexts in place,
/// paying f() at full-memory depth: Theta(v mu f(mu v)) per superstep instead
/// of the cluster-local f(mu |C|) the paper's scheme achieves. This is the
/// comparison baseline in Experiments E3/E9/E10 (the Section 5.3 discussion
/// calls its BT analogue the "trivial step-by-step simulation").

#include "core/hmm_simulator.hpp"

namespace dbsp::core {

class NaiveHmmSimulator {
public:
    struct Options {
        /// Charge-trace sink (not owned; must outlive simulate()). Same
        /// contract as HmmSimulator::Options::trace: the sink's total()
        /// equals HmmSimResult::hmm_cost bit for bit, and per-word events
        /// exist only on the traced accessor instantiation, so a run with no
        /// sink pays nothing. Used by bench_e14 to profile the flat
        /// baseline's address stream.
        trace::Sink* trace = nullptr;
    };

    explicit NaiveHmmSimulator(model::AccessFunction f)
        : NaiveHmmSimulator(std::move(f), Options{}) {}
    NaiveHmmSimulator(model::AccessFunction f, Options options)
        : f_(std::move(f)), options_(options) {}

    HmmSimResult simulate(model::Program& program) const;

private:
    model::AccessFunction f_;
    Options options_{};
};

}  // namespace dbsp::core
