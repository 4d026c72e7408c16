#pragma once

/// \file reuse_distance.hpp
/// The reuse-distance engine. For every reference it reports
///  * the LRU stack distance: the number of *distinct* addresses touched
///    since the previous reference to the same address (infinite on first
///    touch) — under LRU inclusion, a reference hits in any memory of
///    capacity C iff its distance is < C;
///  * the reuse time: the number of references since that previous
///    reference — the quantity the Denning working-set recurrence averages.
///
/// The LRU stack (Bennett–Kruskal). Every live address owns one *position*,
/// handed out in time order, so the stack is the set of live positions read
/// from the top down and the distance of an address is the number of live
/// positions above its own: live − rank(pos). The live set is a bitmap of
/// positions plus a Fenwick tree over its per-64-bit-word popcounts, so a
/// rank, a move to the top or a whole bulk op's worth of fresh positions
/// costs O(log n) per word. When the position space fills, the live
/// positions are renumbered densely in order through a position → address
/// owner array; the space doubles only when more than half of it would be
/// live, so memory stays O(distinct addresses). Each address also keeps the
/// clock of its last reference, which gives the reuse time.
///
/// Two operating modes (Mode):
///  * kExact — every reference is measured. record() costs O(log n);
///    record_range() batches a bulk access of b contiguous words: the op
///    reserves its b positions up front (so no renumbering happens mid-op),
///    and the displaced positions of a strictly-ascending warm run are
///    certified stranger-free by one rank difference and cleared word by
///    word, with the stack distance of the whole run in closed form (below).
///  * kSampled — SHARDS-style fixed-rate spatial sampling (Waldspurger et
///    al.): a reference is measured iff splitmix(addr) < rate * 2^64, so
///    every address is consistently in or out of the sample and the sampled
///    stack distances are unbiased estimates of distance * rate. Stack state
///    exists only for sampled addresses; the clock still advances for every
///    reference, so reuse *times* stay exact. rate = 1.0 degenerates to
///    bit-identical exact behavior.
///
/// Closed-form batched distance. Process a bulk op of b cells at offsets
/// o = 0..b-1, each touched `touches` times (clock c0 + o*touches + 1 ..
/// c0 + (o+1)*touches); defer setting all new positions live to the end of
/// the op. For a maximal warm segment of k cells whose previous positions
/// strictly ascend (any gaps — order suffices) and whose span
/// [p_0, p_{k-1}] holds no stranger live position (exactly k live), cell
/// j's per-word query would see `above` stranger positions beyond p_{k-1},
/// the k-1-j not-yet-displaced segment positions above p_j, and done+j
/// already-moved cells of this op — so d_j = above + (k-1-j) + (done+j) =
/// above + k - 1 + done, constant across the segment. A segment that fails
/// the no-stranger check pays per-cell queries with the same `+ done + j`
/// pending-insert correction — so batched and per-word event streams are
/// bit-identical by construction (a fuzz-oracle invariant).

#include <algorithm>
#include <bit>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "model/types.hpp"

namespace dbsp::locality {

using model::Addr;

class ReuseDistanceProfiler {
public:
    enum class Mode { kExact, kSampled };

    struct Event {
        bool cold;               ///< first touch: distance and time are infinite
        std::uint64_t distance;  ///< LRU stack distance (0 = consecutive reuse)
        std::uint64_t time;      ///< references since the previous touch (>= 1)
        bool sampled = true;     ///< false: skipped by the sampling filter
                                 ///< (only the reference count is meaningful)
    };

    ReuseDistanceProfiler() = default;
    ReuseDistanceProfiler(Mode mode, double sample_rate) {
        if (mode == Mode::kSampled && sample_rate < 1.0) {
            sample_all_ = false;
            // rate * 2^64, exact for every representable rate < 1.
            threshold_ = static_cast<std::uint64_t>(sample_rate * 18446744073709551616.0);
        }
    }

    /// Record one reference to \p x and return its reuse event.
    Event record(Addr x) {
        const std::uint64_t now = ++clock_;
        if (!sample_all_ && !address_sampled(x)) return Event{false, 0, 0, false};
        ++sampled_;
        return touch(x, now, now);
    }

    /// Record `touches` consecutive references to each cell of [begin, end)
    /// in ascending order — the linearization of one bulk machine op. Every
    /// measured reuse event is delivered to fold(event, repeat) in stream
    /// order; `repeat` > 1 compresses a run of identical consecutive events
    /// (same distance, same time). Folding each event `repeat` times yields
    /// exactly the per-word record() stream.
    template <typename Fold>
    void record_range(Addr begin, Addr end, unsigned touches, Fold&& fold) {
        if (begin >= end || touches == 0) return;
        if (!sample_all_) {
            record_range_sampled(begin, end, touches, fold);
            return;
        }
        if (end <= kDirectLimit) {
            grow_direct(end);
            record_range_exact(DirectSlots{slots_.data()}, begin, end, touches, fold);
        } else {
            record_range_exact(AnySlots{this}, begin, end, touches, fold);
        }
    }

    std::uint64_t accesses() const { return clock_; }
    std::uint64_t sampled_accesses() const { return sampled_; }
    /// Every measured address stays on the stack, so this is its size.
    std::uint64_t distinct_addresses() const { return live_; }

private:
    /// Addresses below this are direct-mapped in a flat vector (machines back
    /// their address spaces with flat arrays, so this covers every simulated
    /// machine up to 64M words); rarer, larger addresses go through a hash
    /// map. The vector grows lazily to the touched high-water mark.
    static constexpr Addr kDirectLimit = Addr{1} << 26;

    /// Below this length the closed-form span check (two ranks) is not worth
    /// it; a per-cell erase (one rank) wins.
    static constexpr std::uint64_t kMinClosedRun = 2;

    /// Smallest position space; a multiple of 64 like every later size.
    static constexpr std::size_t kMinPositions = 4096;

    struct Slot {
        std::uint64_t stamp = 0;  ///< clock of the last reference; 0 = never
        std::uint64_t pos = 0;    ///< live position (meaningful once stamped)
    };

    static bool address_sampled_hash(Addr x, std::uint64_t threshold) {
        // SplitMix64 finalizer over the address: the SHARDS spatial filter.
        std::uint64_t z = x + 0x9e3779b97f4a7c15ull;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return (z ^ (z >> 31)) < threshold;
    }
    /// Memoized SHARDS filter: one bit per direct-mapped address, built
    /// lazily as the touched address space grows. Bulk scans test 64
    /// addresses per word load (and skip all 64 on a zero word, the common
    /// case at low rates); far addresses hash directly.
    bool address_sampled(Addr x) {
        if (x < kDirectLimit) {
            grow_bits(x + 1);
            return (sample_bits_[x >> 6] >> (x & 63)) & 1;
        }
        return address_sampled_hash(x, threshold_);
    }

    void grow_bits(Addr end) {
        const std::size_t words = (static_cast<std::size_t>(end) + 63) / 64;
        if (sample_bits_.size() >= words) return;
        std::size_t cap = sample_bits_.empty() ? 16 : sample_bits_.size();
        while (cap < words) cap *= 2;
        const std::size_t old = sample_bits_.size();
        sample_bits_.resize(cap, 0);
        for (std::size_t w = old; w < cap; ++w) {
            std::uint64_t bits = 0;
            for (unsigned b = 0; b < 64; ++b) {
                if (address_sampled_hash((static_cast<Addr>(w) << 6) | b, threshold_)) {
                    bits |= std::uint64_t{1} << b;
                }
            }
            sample_bits_[w] = bits;
        }
    }

    void grow_direct(Addr end) {
        if (slots_.size() < end) {
            std::size_t cap = slots_.empty() ? 1024 : slots_.size();
            while (cap < end) cap *= 2;
            slots_.resize(cap);
        }
    }

    Slot* slot(Addr x) {
        if (x < kDirectLimit) {
            grow_direct(x + 1);
            return &slots_[x];
        }
        return &far_[x];  // value-initialized (never touched)
    }

    struct DirectSlots {
        Slot* base;
        Slot& at(Addr x) const { return base[x]; }
    };
    struct AnySlots {
        ReuseDistanceProfiler* self;
        Slot& at(Addr x) const { return *self->slot(x); }
    };

    /// Live positions <= p.
    std::uint64_t rank(std::uint64_t p) const {
        std::size_t w = p >> 6;
        const std::uint64_t through_p = ~std::uint64_t{0} >> (63 - (p & 63));
        std::uint64_t r = std::popcount(live_bits_[w] & through_p);
        for (; w != 0; w &= w - 1) r += fenwick_[w];
        return r;
    }
    /// Add \p delta (mod 2^64, so "minus n" wraps) to word \p w's count.
    void fenwick_add(std::size_t w, std::uint64_t delta) {
        for (std::size_t i = w + 1; i < fenwick_.size(); i += i & (~i + 1)) {
            fenwick_[i] += delta;
        }
    }
    /// Drop live position \p p; returns the live positions above it.
    std::uint64_t erase(std::uint64_t p) {
        const std::uint64_t above = live_ - rank(p);
        live_bits_[p >> 6] &= ~(std::uint64_t{1} << (p & 63));
        fenwick_add(p >> 6, ~std::uint64_t{0});
        --live_;
        return above;
    }
    /// Hand \p x the next position, live at the top of the stack.
    std::uint64_t push(Addr x) {
        reserve(1);
        const std::uint64_t p = next_pos_++;
        owner_[p] = x;
        live_bits_[p >> 6] |= std::uint64_t{1} << (p & 63);
        fenwick_add(p >> 6, 1);
        ++live_;
        return p;
    }
    /// Make the positions [next_pos_, next_pos_ + n) free to hand out.
    void reserve(std::uint64_t n) {
        if (next_pos_ + n > owner_.size()) renumber(n);
    }
    /// Renumber the live positions densely, in order, from 0; double the
    /// position space while more than half of it would be live after \p n
    /// more positions are handed out.
    void renumber(std::uint64_t n) {
        std::uint64_t q = 0;
        for (std::size_t w = 0; w < live_bits_.size(); ++w) {
            for (std::uint64_t m = live_bits_[w]; m != 0; m &= m - 1) {
                const Addr a = owner_[(w << 6) | std::countr_zero(m)];
                owner_[q] = a;
                (a < kDirectLimit ? slots_[a] : far_.find(a)->second).pos = q++;
            }
        }
        std::size_t cap = std::max(owner_.size(), kMinPositions);
        while (2 * (live_ + n) > cap) cap *= 2;
        owner_.resize(cap);
        live_bits_.assign(cap / 64, 0);
        fenwick_.assign(cap / 64 + 1, 0);
        set_live(0, live_);
        next_pos_ = live_;
    }
    /// Set the (dead) positions [p, p + n) live, word by word; does not
    /// touch live_.
    void set_live(std::uint64_t p, std::uint64_t n) {
        while (n != 0) {
            const unsigned lo = p & 63;
            const std::uint64_t k = std::min<std::uint64_t>(64 - lo, n);
            live_bits_[p >> 6] |= (~std::uint64_t{0} >> (64 - k)) << lo;  // k in [1, 64]
            fenwick_add(p >> 6, k);
            p += k;
            n -= k;
        }
    }
    /// The closed-form check: if exactly the n positions of prevs_[0 .. n)
    /// (ascending) are live in their span, drop them, one Fenwick update per
    /// word, and return true; otherwise change nothing and return false.
    /// Either way *above receives the live positions beyond the span.
    bool erase_span_exact(std::uint64_t n, std::uint64_t* above) {
        const std::uint64_t lo = prevs_[0].pos;
        const std::uint64_t r_hi = rank(prevs_[n - 1].pos);
        *above = live_ - r_hi;
        if (r_hi - (lo == 0 ? 0 : rank(lo - 1)) != n) return false;
        std::size_t w = lo >> 6;
        std::uint64_t in_word = 0;
        for (std::uint64_t j = 0; j < n; ++j) {
            const std::uint64_t p = prevs_[j].pos;
            if ((p >> 6) != w) {
                fenwick_add(w, 0 - in_word);
                w = p >> 6;
                in_word = 0;
            }
            live_bits_[w] &= ~(std::uint64_t{1} << (p & 63));
            ++in_word;
        }
        fenwick_add(w, 0 - in_word);
        live_ -= n;
        return true;
    }

    /// Measure a cell referenced at clocks first..last (first == last for a
    /// single reference; the reuse time is taken at the first) and move it
    /// to the top of the stack.
    Event touch(Addr x, std::uint64_t first, std::uint64_t last) {
        Slot* s = slot(x);
        const std::uint64_t prev = s->stamp;
        s->stamp = last;
        if (prev == 0) {
            s->pos = push(x);
            return Event{true, 0, 0};
        }
        Event e{false, 0, first - prev};
        // The newest position is already the top of the stack: distance 0,
        // nothing moves.
        if (s->pos + 1 != next_pos_) {
            e.distance = erase(s->pos);
            s->pos = push(x);
        }
        return e;
    }

    template <typename Slots, typename Fold>
    void record_range_exact(Slots slots, Addr begin, Addr end, unsigned touches,
                            Fold&& fold) {
        const std::uint64_t b = end - begin;
        const std::uint64_t t = touches;
        const std::uint64_t c0 = clock_;
        reserve(b);
        const std::uint64_t base = next_pos_;
        // Cell at offset o: first touch at c0 + o*t + 1, final at c0 + (o+1)*t,
        // new position base + o (set live after the scan).
        const auto stamp = [&](Slot& s, Addr at) {
            s.stamp = c0 + (at - begin + 1) * t;
            s.pos = base + (at - begin);
        };
        std::uint64_t done = 0;  // cells processed; their new positions are pending
        Addr x = begin;
        while (x < end) {
            Slot& first = slots.at(x);
            if (first.stamp == 0) {
                // Cold run: every cell a first touch, extra touches distance 0.
                const Addr seg = x;
                do {
                    stamp(slots.at(x), x);
                    ++x;
                } while (x < end && slots.at(x).stamp == 0);
                const std::uint64_t k = x - seg;
                if (t == 1) {
                    fold(Event{true, 0, 0}, k);
                } else {
                    for (std::uint64_t j = 0; j < k; ++j) {
                        fold(Event{true, 0, 0}, 1);
                        fold(Event{false, 0, 1}, t - 1);
                    }
                }
                done += k;
                continue;
            }
            // Warm run: maximal segment whose previous positions strictly
            // ascend (any gaps — the closed form needs order and a
            // stranger-free span, not uniform stride). The previous slots are
            // saved to a scratch buffer because the scan overwrites them.
            const Addr seg = x;
            const std::uint64_t o0 = x - begin;
            prevs_.clear();
            prevs_.push_back(first);
            stamp(first, x);
            ++x;
            while (x < end) {
                Slot& s = slots.at(x);
                if (s.stamp == 0 || s.pos <= prevs_.back().pos) break;
                prevs_.push_back(s);
                stamp(s, x);
                ++x;
            }
            const std::uint64_t k = x - seg;
            std::uint64_t above = 0;
            if (k >= kMinClosedRun && erase_span_exact(k, &above)) {
                // Every cell shares the closed-form distance d. Equal
                // consecutive (d, time) events compress into one fold — the
                // norm when the previous references came from one earlier
                // bulk op over these cells.
                const std::uint64_t d = above + k - 1 + done;
                if (t == 1) {
                    std::uint64_t run_time = c0 + o0 + 1 - prevs_[0].stamp;
                    std::uint64_t run_n = 1;
                    for (std::uint64_t j = 1; j < k; ++j) {
                        const std::uint64_t time = c0 + o0 + j + 1 - prevs_[j].stamp;
                        if (time == run_time) {
                            ++run_n;
                        } else {
                            fold(Event{false, d, run_time}, run_n);
                            run_time = time;
                            run_n = 1;
                        }
                    }
                    fold(Event{false, d, run_time}, run_n);
                } else {
                    for (std::uint64_t j = 0; j < k; ++j) {
                        fold(Event{false, d, c0 + (o0 + j) * t + 1 - prevs_[j].stamp}, 1);
                        fold(Event{false, 0, 1}, t - 1);
                    }
                }
            } else {
                // Stranger positions interleave the span (or the run is too
                // short): per-cell queries, with the pending-insert
                // correction.
                for (std::uint64_t j = 0; j < k; ++j) {
                    const Slot& p = prevs_[j];
                    const std::uint64_t d = erase(p.pos) + done + j;
                    fold(Event{false, d, c0 + (o0 + j) * t + 1 - p.stamp}, 1);
                    if (t > 1) fold(Event{false, 0, 1}, t - 1);
                }
            }
            done += k;
        }
        for (std::uint64_t o = 0; o < b; ++o) owner_[base + o] = begin + o;
        set_live(base, b);
        next_pos_ = base + b;
        live_ += b;
        clock_ = c0 + b * t;
        sampled_ += b * t;
    }

    template <typename Fold>
    void record_range_sampled(Addr begin, Addr end, unsigned touches, Fold&& fold) {
        const std::uint64_t t = touches;
        const std::uint64_t c0 = clock_;
        std::uint64_t skipped = 0;  // coalesced unsampled references
        // Measure one sampled cell; clocks c0 + (x-begin)*t + 1 .. + t.
        const auto measure = [&](Addr x) {
            if (skipped != 0) {
                fold(Event{false, 0, 0, false}, skipped);
                skipped = 0;
            }
            sampled_ += t;
            const std::uint64_t base = c0 + (x - begin) * t;
            fold(touch(x, base + 1, base + t), 1);
            if (t > 1) fold(Event{false, 0, 1}, t - 1);
        };
        if (end <= kDirectLimit) {
            grow_bits(end);
            Addr x = begin;
            while (x < end) {
                const Addr chunk = x >> 6;
                const Addr chunk_end = std::min<Addr>(end, (chunk + 1) << 6);
                std::uint64_t bits = sample_bits_[chunk];
                bits &= ~std::uint64_t{0} << (x & 63);
                if ((chunk_end & 63) != 0) {
                    bits &= (std::uint64_t{1} << (chunk_end & 63)) - 1;
                }
                if (bits == 0) {  // the common case at low rates
                    skipped += (chunk_end - x) * t;
                    x = chunk_end;
                    continue;
                }
                Addr next = x;
                while (bits != 0) {
                    const Addr sx = (chunk << 6) | static_cast<Addr>(std::countr_zero(bits));
                    bits &= bits - 1;
                    skipped += (sx - next) * t;
                    measure(sx);
                    next = sx + 1;
                }
                skipped += (chunk_end - next) * t;
                x = chunk_end;
            }
        } else {
            for (Addr x = begin; x < end; ++x) {
                if (address_sampled(x)) {
                    measure(x);
                } else {
                    skipped += t;
                }
            }
        }
        if (skipped != 0) fold(Event{false, 0, 0, false}, skipped);
        clock_ = c0 + (end - begin) * t;
    }

    std::vector<Slot> slots_;                ///< addresses < kDirectLimit
    std::unordered_map<Addr, Slot> far_;     ///< addresses >= kDirectLimit
    std::vector<Addr> owner_;                ///< position -> address
    std::vector<std::uint64_t> live_bits_;   ///< one bit per live position
    std::vector<std::uint64_t> fenwick_;     ///< over live_bits_ word popcounts
    std::vector<Slot> prevs_;                ///< warm-segment scan scratch
    std::vector<std::uint64_t> sample_bits_; ///< memoized filter, 1 bit/address
    std::uint64_t next_pos_ = 0;  ///< next position to hand out
    std::uint64_t live_ = 0;      ///< live positions (set bits)
    std::uint64_t clock_ = 0;
    std::uint64_t sampled_ = 0;
    std::uint64_t threshold_ = 0;
    bool sample_all_ = true;
};

}  // namespace dbsp::locality
