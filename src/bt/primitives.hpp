#pragma once

/// \file primitives.hpp
/// Building blocks for BT algorithms. The recurring pattern of efficient BT
/// code (per [ACS87] and Section 5 of the paper) is *chunked staging*: data is
/// moved to the top of memory in blocks of size Theta(f(n)) — so the per-chunk
/// transfer cost f(n) + c is O(1) amortized per cell — and processed there,
/// recursively re-staging when even top-of-chunk access costs matter.
///
/// This file provides:
///  * touch_region — the touching problem (Fact 2), Theta(n f*(n));
///  * StagedReader / StagedWriter — sequential charged streams over deep
///    regions that stage chunks at the top via block transfer (the machinery
///    behind the BT merge sort and the simulator's context rewrites). Both
///    build the full touching-recursion tower inside their stage window:
///    level k+1 is a Theta(f(size of level k))-sized buffer, down to O(1),
///    so the per-word access cost is O(f*(n))-amortized — this is what makes
///    Theorem 12's f-independence hold in the measurements, not just in the
///    asymptotics.

#include <array>
#include <optional>
#include <vector>

#include "bt/machine.hpp"
#include "util/contracts.hpp"

namespace dbsp::bt {

/// Largest power of two <= x; requires x >= 1.
std::uint64_t pow2_at_most(std::uint64_t x);

/// Staging chunk size for a region ending at address \p deepest: the largest
/// power of two <= min(f(deepest), cap), and >= 1.
std::uint64_t chunk_words(const Machine& m, Addr deepest, std::uint64_t cap);

/// Touch every cell of [base, base+n): the Fact 2 touching problem. Chunks
/// are staged at [c, 2c) with recursion staging strictly below, so the caller
/// must keep [0, base) free; cost is Theta(n f*(n)) for (2,c)-uniform f.
/// Returns the XOR of all touched words (forces real reads).
Word touch_region(Machine& m, Addr base, std::uint64_t n);

/// The staging tower shared by StagedReader and StagedWriter: buffer levels
/// inside the window [stage, stage + lanes*chunk), outermost (largest) level
/// first. Level k+1 has size ~f(level k's size), rounded to the record
/// alignment, ending when a level is small enough that elementwise access to
/// it is cheap.
///
/// When several streams cooperate (e.g. the two inputs and the output of a
/// merge), each takes one of \p lanes lanes over a shared window: the levels
/// of all lanes are interleaved depth-wise, so every stream's innermost
/// buffer sits at the very top of the window — the whole point of the tower
/// is that the cheapest addresses serve the per-word traffic of *all*
/// streams.
///
/// A tower depends only on its arguments and the machine's access function,
/// so a caller that opens many streams over the same window (the merge
/// sort: three per merge) builds the lane towers once and passes them to
/// the streams' tower constructors.
struct StageTower {
    /// Each inner level is at most a quarter of its parent and at least 8
    /// words, so even a 2^64-word chunk yields at most 31 levels.
    static constexpr std::size_t kMaxLevels = 32;

    StageTower(const Machine& m, Addr stage, std::uint64_t chunk, std::uint64_t align,
               std::uint64_t lane, std::uint64_t lanes);

    struct Level {
        Addr addr;
        std::uint64_t capacity;
    };
    std::vector<Level> levels;  ///< [0] = outermost, back() = innermost
    Addr stage;                 ///< first word of the whole stage window
    std::uint64_t window;       ///< lanes * chunk: the window of all lanes
};

/// Sequential reader over the \p len words at [begin, begin+len). Data
/// cascades through the staging tower in [stage, stage+chunk) (a multiple of
/// \p align) via block transfers; reads are served from the innermost level.
/// The stage window must be disjoint from the source region.
class StagedReader {
public:
    /// Builds and owns its tower.
    StagedReader(Machine& m, Addr begin, std::uint64_t len, Addr stage,
                 std::uint64_t chunk, std::uint64_t align = 1, std::uint64_t lane = 0,
                 std::uint64_t lanes = 1);
    /// Streams through a prebuilt \p tower, which must outlive the reader;
    /// the same checks against the tower's whole window apply.
    StagedReader(Machine& m, Addr begin, std::uint64_t len, const StageTower& tower);

    StagedReader(const StagedReader&) = delete;
    StagedReader& operator=(const StagedReader&) = delete;

    /// Words not yet consumed.
    std::uint64_t remaining() const { return len_ - pos_; }
    bool done() const { return pos_ == len_; }

    /// Charged read of the word at (current position + offset); requires the
    /// addressed word to lie within the innermost staged window, which holds
    /// whenever offset < align and advance() moves in align units.
    Word peek(std::uint64_t offset = 0) {
        const std::uint64_t at = pos_ + offset;
        DBSP_REQUIRE(at < len_);
        if (at >= inner_hi_) [[unlikely]] restage();
        DBSP_ASSERT(at >= inner_lo_);
        return m_.read(inner_addr_ + (at - inner_lo_));
    }

    /// Consume \p words words.
    void advance(std::uint64_t words) {
        DBSP_REQUIRE(pos_ + words <= len_);
        pos_ += words;
    }

private:
    friend class StagedWriter;  // push_from reads the staged window directly

    void init(Addr begin, std::uint64_t len);
    /// The innermost window is used up: refill every exhausted level, from
    /// the outermost in, starting at the consumption point.
    void restage();
    void refill(std::size_t level);

    Machine& m_;
    std::optional<StageTower> owned_;  ///< set by the building constructor
    const StageTower* tower_ = nullptr;
    Addr begin_ = 0;
    std::uint64_t len_ = 0;
    std::uint64_t pos_ = 0;  ///< consumed words
    std::size_t inner_ = 0;  ///< index of the innermost level
    /// The innermost level's staged window, mirrored from lo_/hi_: its
    /// region offsets [inner_lo_, inner_hi_) sit at inner_addr_.
    Addr inner_addr_ = 0;
    std::uint64_t inner_lo_ = 0, inner_hi_ = 0;
    /// Staged region-offset windows per level. init() zeroes the entries of
    /// the levels in use; the rest are never read. (Zeroing all kMaxLevels
    /// per stream measurably slows the merge sort, whose merges are mostly
    /// a few records long.)
    std::array<std::uint64_t, StageTower::kMaxLevels> lo_, hi_;
};

/// Sequential writer over the \p len words at [begin, begin+len); words are
/// accumulated in the innermost tower level and flushed outwards with block
/// transfers. Mirrors StagedReader's layout.
class StagedWriter {
public:
    /// Builds and owns its tower.
    StagedWriter(Machine& m, Addr begin, std::uint64_t len, Addr stage,
                 std::uint64_t chunk, std::uint64_t align = 1, std::uint64_t lane = 0,
                 std::uint64_t lanes = 1);
    /// Streams through a prebuilt \p tower, which must outlive the writer.
    StagedWriter(Machine& m, Addr begin, std::uint64_t len, const StageTower& tower);
    ~StagedWriter();

    StagedWriter(const StagedWriter&) = delete;
    StagedWriter& operator=(const StagedWriter&) = delete;

    /// Append one word; requires fewer than len words pushed so far.
    void push(Word w) {
        DBSP_REQUIRE(count_ < len_);
        m_.write(inner_addr_ + fill_[inner_], w);
        ++count_;
        if (++fill_[inner_] == inner_cap_) [[unlikely]] spill(inner_);
    }

    /// Append the \p n words at \p rd's consumption point without consuming
    /// them: bit-identical to `for t < n: push(rd.peek(t))` in charges,
    /// memory and trace events. The words are copied in pieces of at most
    /// the free inner capacity, spilling exactly where push() would; like
    /// peek(t), all n words must lie in rd's innermost window once it is
    /// restaged at the consumption point (true for n <= rd's align).
    void push_from(StagedReader& rd, std::uint64_t n);

    /// Flush all buffered words to the destination. Also called by the
    /// destructor; idempotent.
    void flush();

    /// Words pushed so far.
    std::uint64_t written() const { return count_; }

private:
    void init(Addr begin, std::uint64_t len);
    void spill(std::size_t level);  ///< move level's contents one step out

    Machine& m_;
    std::optional<StageTower> owned_;  ///< set by the building constructor
    const StageTower* tower_ = nullptr;
    Addr begin_ = 0;
    std::uint64_t len_ = 0;
    std::uint64_t count_ = 0;    ///< words pushed
    std::uint64_t written_ = 0;  ///< words already at the destination
    std::size_t inner_ = 0;      ///< index of the innermost level
    Addr inner_addr_ = 0;        ///< the innermost level's buffer
    std::uint64_t inner_cap_ = 0;
    /// Buffered words per level; as with StagedReader's windows, init()
    /// zeroes only the levels in use.
    std::array<std::uint64_t, StageTower::kMaxLevels> fill_;
};

}  // namespace dbsp::bt
