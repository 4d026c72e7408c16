#include "bt/sort.hpp"

#include <algorithm>

#include "bt/primitives.hpp"
#include "util/contracts.hpp"

namespace dbsp::bt {

namespace {

/// Merge the sorted runs [a, a+la) and [b, b+lb) (word lengths, both multiples
/// of r) into dst through the three lane towers of one stage window.
void merge_runs(Machine& m, Addr a, std::uint64_t la, Addr b, std::uint64_t lb, Addr dst,
                std::uint64_t r, const StageTower (&lanes)[3]) {
    // Three cooperating streams share one depth-interleaved staging tower,
    // so all their innermost buffers sit at the top of the stage window.
    StagedReader ra(m, a, la, lanes[0]);
    StagedReader rb(m, b, lb, lanes[1]);
    StagedWriter out(m, dst, la + lb, lanes[2]);

    auto take = [&](StagedReader& src) {
        out.push_from(src, r);
        src.advance(r);
    };

    while (!ra.done() && !rb.done()) {
        const Word ka0 = ra.peek(0);
        const Word kb0 = rb.peek(0);
        m.charge(1.0);  // key comparison
        bool a_first;
        if (ka0 != kb0) {
            a_first = ka0 < kb0;
        } else {
            const Word ka1 = ra.peek(1);
            const Word kb1 = rb.peek(1);
            m.charge(1.0);
            a_first = ka1 <= kb1;  // <=: stability, run A precedes run B
        }
        take(a_first ? ra : rb);
    }
    while (!ra.done()) take(ra);
    while (!rb.done()) take(rb);
    out.flush();
}

}  // namespace

void merge_sort_records(Machine& m, Addr base, std::uint64_t n_records,
                        std::uint64_t record_words, Addr scratch, Addr stage,
                        std::uint64_t stage_words) {
    const std::uint64_t r = record_words;
    DBSP_REQUIRE(r >= 2);  // need (key0, key1)
    DBSP_REQUIRE(stage_words >= 3 * r);
    if (n_records <= 1) return;
    const std::uint64_t total = n_records * r;
    DBSP_REQUIRE(base + total <= m.capacity());
    DBSP_REQUIRE(scratch + total <= m.capacity());

    // Staging chunk: a multiple of the record size, sized like f(deepest cell
    // the sort touches) so per-chunk transfer cost amortizes to O(1)/cell.
    const Addr deepest = std::max(base, scratch) + total - 1;
    std::uint64_t chunk = chunk_words(m, deepest, stage_words / 3);
    chunk = std::max<std::uint64_t>(chunk - chunk % r, r);

    // Every merge of this sort streams through the same window, so the lane
    // towers are built once.
    const StageTower lanes[3] = {
        StageTower(m, stage, chunk, /*align=*/r, /*lane=*/0, /*lanes=*/3),
        StageTower(m, stage, chunk, /*align=*/r, /*lane=*/1, /*lanes=*/3),
        StageTower(m, stage, chunk, /*align=*/r, /*lane=*/2, /*lanes=*/3),
    };

    Addr src = base;
    Addr dst = scratch;
    for (std::uint64_t width = 1; width < n_records; width *= 2) {
        for (std::uint64_t lo = 0; lo < n_records; lo += 2 * width) {
            const std::uint64_t mid = std::min(lo + width, n_records);
            const std::uint64_t hi = std::min(lo + 2 * width, n_records);
            const std::uint64_t la = (mid - lo) * r;
            const std::uint64_t lb = (hi - mid) * r;
            if (lb == 0) {
                // Odd tail: copy through unchanged.
                m.block_copy(src + lo * r, dst + lo * r, la);
                continue;
            }
            merge_runs(m, src + lo * r, la, src + mid * r, lb, dst + lo * r, r, lanes);
        }
        std::swap(src, dst);
    }
    if (src != base) {
        m.block_copy(src, base, total);
    }
}

}  // namespace dbsp::bt
