#include "model/superstep_exec.hpp"

#include <algorithm>

#include "report/metrics.hpp"
#include "util/contracts.hpp"

namespace dbsp::model {

std::size_t deliver_messages(const ContextLayout& layout, ProcId first, std::uint64_t count,
                             AccessorSource& contexts, ProcId id_base,
                             DeliveryScratch* scratch) {
    DeliveryScratch local;
    DeliveryScratch& sc = scratch ? *scratch : local;
    const std::uint64_t nblocks = (count + kFoldBlockProcs - 1) / kFoldBlockProcs;

    // Phase 1: collect messages from the senders' outgoing buffers, in
    // ascending sender order, and reset the outgoing counts. The intermediate
    // vector is executor bookkeeping only; every word it carries has been
    // charged on read and will be charged again on write, exactly as if the
    // message moved directly between buffers.
    std::vector<Message>& pending = sc.pending;
    pending.clear();
    for (std::uint64_t b = 0; b < nblocks; ++b) {
        const ProcId lo = first + b * kFoldBlockProcs;
        const ProcId hi = std::min<ProcId>(first + count, lo + kFoldBlockProcs);
        contexts.begin_block();
        for (ProcId p = lo; p < hi; ++p) {
            ContextAccessor& acc = contexts.at(p);
            const auto sent = static_cast<std::size_t>(acc.get(layout.out_count_offset()));
            DBSP_ASSERT(sent <= layout.max_messages);
            // One range read covers the whole outgoing record block: the
            // records are contiguous, and the fused per-cell charge loop walks
            // them in ascending address order.
            sc.words.resize(ContextLayout::kRecordWords * sent);
            acc.get_range(layout.out_record_offset(0), sc.words);
            for (std::size_t k = 0; k < sent; ++k) {
                const Word* rec = sc.words.data() + ContextLayout::kRecordWords * k;
                Message m;
                m.src = id_base + p;  // inboxes carry global source ids
                m.dest = rec[0];
                m.payload0 = rec[1];
                m.payload1 = rec[2];
                DBSP_ASSERT(m.dest >= first && m.dest < first + count);
                pending.push_back(m);
            }
            if (sent > 0) {
                acc.set(layout.out_count_offset(), 0);
            }
        }
        contexts.end_block();
    }

    // Batch-granularity telemetry: one update per delivery call, independent
    // of how many messages moved.
    static auto& metric_delivered = report::metric_counter("model.messages_delivered");
    static auto& metric_batch = report::metric_histogram("model.delivery_batch");
    metric_delivered.add(pending.size());
    metric_batch.observe(pending.size());

    // Phase 2: bucket the canonical sequence by destination block (a stable
    // counting sort, so each inbox still receives its messages in (src,
    // send-order) — the order the sort-based BT delivery reproduces with tag
    // keys) and append block by block.
    const auto block_of = [first](const Message& m) {
        return static_cast<std::size_t>((m.dest - first) / kFoldBlockProcs);
    };
    sc.block_end.assign(nblocks, 0);
    for (const Message& m : pending) ++sc.block_end[block_of(m)];
    std::size_t offset = 0;
    for (std::size_t& end : sc.block_end) {
        offset += end;
        end = offset - end;  // start of the block; the fill advances it to its end
    }
    sc.by_block.resize(pending.size());
    for (const Message& m : pending) sc.by_block[sc.block_end[block_of(m)]++] = m;

    std::size_t max_received = 0;
    sc.received.assign(count, 0);
    std::size_t begin = 0;
    for (std::uint64_t b = 0; b < nblocks; ++b) {
        contexts.begin_block();
        for (std::size_t i = begin; i < sc.block_end[b]; ++i) {
            const Message& m = sc.by_block[i];
            ContextAccessor& acc = contexts.at(m.dest);
            auto in_count = static_cast<std::size_t>(acc.get(layout.in_count_offset()));
            DBSP_REQUIRE(in_count < layout.max_messages);
            const std::size_t off = layout.in_record_offset(in_count);
            const Word rec[ContextLayout::kRecordWords] = {m.src, m.payload0, m.payload1};
            acc.set_range(off, rec);
            acc.set(layout.in_count_offset(), in_count + 1);
            max_received = std::max(max_received, ++sc.received[m.dest - first]);
        }
        contexts.end_block();
        begin = sc.block_end[b];
    }
    return max_received;
}

}  // namespace dbsp::model
