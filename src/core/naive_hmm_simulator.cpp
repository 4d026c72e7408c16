#include "core/naive_hmm_simulator.hpp"

#include <algorithm>

#include "core/shard_access.hpp"
#include "model/superstep_exec.hpp"
#include "util/contracts.hpp"

namespace dbsp::core {

namespace {

using model::ProcId;

}  // namespace

HmmSimResult NaiveHmmSimulator::simulate(model::Program& program) const {
    const std::uint64_t v = program.num_processors();
    const model::ClusterTree tree(v);
    const model::ContextLayout layout = program.layout();
    const std::size_t mu = layout.context_words();
    const model::StepIndex steps = program.num_supersteps();
    DBSP_REQUIRE(steps > 0);

    hmm::Machine machine(f_, static_cast<std::uint64_t>(mu) * v);
    trace::Sink* const sink = options_.trace;
    machine.set_trace(sink);
    // The machine is fresh (cost 0); a reused sink must restart its mirror.
    if (sink != nullptr) sink->reset_total();
    {
        const auto init = model::DbspMachine::initial_contexts(program);
        auto raw = machine.raw();
        for (ProcId p = 0; p < v; ++p) {
            std::copy(init[p].begin(), init[p].end(),
                      raw.begin() + static_cast<std::ptrdiff_t>(p * mu));
        }
    }

    // Pinned layout: processor p lives at block p forever, so delivery and
    // step execution both charge at the physical address (vbase == pbase),
    // and both fold their charges in 64-processor blocks.
    HmmSimResult result;
    result.data_words = program.data_words();
    model::DeliveryScratch scratch;
    const auto run = [&](auto& contexts) {
        for (model::StepIndex s = 0; s < steps; ++s) {
            ++result.rounds;
            for (ProcId lo = 0; lo < v; lo += model::kFoldBlockProcs) {
                contexts.begin_block();
                for (ProcId p = lo; p < std::min(v, lo + model::kFoldBlockProcs); ++p) {
                    const model::StepOutcome out =
                        model::run_processor_step(program, layout, tree, s, p, contexts.at(p));
                    contexts.charge(static_cast<double>(out.ops));  // unit op costs
                }
                contexts.end_block();
            }
            model::deliver_messages(layout, 0, v, contexts, program.proc_id_base(), &scratch);
        }
    };
    if (sink != nullptr) {
        HmmShardSource<true> contexts(machine, mu, nullptr);
        run(contexts);
    } else {
        HmmShardSource<false> contexts(machine, mu, nullptr);
        run(contexts);
    }

    result.hmm_cost = machine.cost();
    result.words_touched = machine.words_touched();
    result.contexts.resize(v);
    const auto raw = machine.raw();
    for (ProcId p = 0; p < v; ++p) {
        result.contexts[p].assign(raw.begin() + static_cast<std::ptrdiff_t>(p * mu),
                                  raw.begin() + static_cast<std::ptrdiff_t>((p + 1) * mu));
    }
    return result;
}

}  // namespace dbsp::core
