#include "bt/primitives.hpp"

#include <algorithm>
#include <cmath>

#include "util/contracts.hpp"

namespace dbsp::bt {

std::uint64_t pow2_at_most(std::uint64_t x) {
    DBSP_REQUIRE(x >= 1);
    std::uint64_t p = 1;
    while (p * 2 <= x) p *= 2;
    return p;
}

std::uint64_t chunk_words(const Machine& m, Addr deepest, std::uint64_t cap) {
    DBSP_REQUIRE(cap >= 1);
    const double f = m.function()(deepest);
    const auto f_floor = static_cast<std::uint64_t>(std::max(1.0, std::floor(f)));
    return pow2_at_most(std::min(f_floor, cap));
}

Word touch_region(Machine& m, Addr base, std::uint64_t n) {
    if (n == 0) return 0;
    DBSP_REQUIRE(base + n <= m.capacity());
    // Candidate staging chunk: balance the per-chunk transfer cost f(end)
    // against the chunk length, bounded by half the problem and by the free
    // space above `base` (the stage lives at [c, 2c)).
    const std::uint64_t c =
        (base >= 4 && n >= 2) ? chunk_words(m, base + n - 1, std::min(n / 2, base / 2)) : 0;
    if (c < 8 || n <= 32) {
        // Direct reads. Reached either at the top of the recursion tower
        // (where f is tiny, so each read is cheap) or for trivially small
        // inputs.
        Word acc = 0;
        for (std::uint64_t i = 0; i < n; ++i) acc ^= m.read(base + i);
        return acc;
    }
    Word acc = 0;
    for (std::uint64_t off = 0; off < n; off += c) {
        const std::uint64_t len = std::min(c, n - off);
        m.block_copy(base + off, c, len);
        acc ^= touch_region(m, c, len);  // recursion stages strictly below c
    }
    return acc;
}

StageTower::StageTower(const Machine& m, Addr stage, std::uint64_t chunk,
                       std::uint64_t align, std::uint64_t lane, std::uint64_t lanes)
    : stage(stage), window(lanes * chunk) {
    DBSP_REQUIRE(align >= 1);
    DBSP_REQUIRE(chunk >= align && chunk % align == 0);
    DBSP_REQUIRE(lanes >= 1 && lane < lanes);
    // Raw level sizes: s_{k+1} ~ f(s_k), aligned, until levels stop paying
    // for themselves. Sizes are a function of (chunk, align, lanes) only, so
    // all lanes compute identical layouts.
    std::vector<std::uint64_t> sizes{chunk};
    while (true) {
        std::uint64_t nxt = chunk_words(m, stage + lanes * sizes.back(), sizes.back() / 4);
        nxt -= nxt % align;
        if (nxt < align || nxt < 8 || 4 * nxt > sizes.back()) break;
        sizes.push_back(nxt);
    }
    DBSP_ASSERT(sizes.size() <= kMaxLevels);
    // Inner levels keep their size; the outermost absorbs the remainder so
    // each lane's tower occupies exactly chunk words.
    std::uint64_t inner_total = 0;
    for (std::size_t k = 1; k < sizes.size(); ++k) inner_total += sizes[k];
    DBSP_ASSERT(inner_total < chunk);
    levels.resize(sizes.size());
    for (std::size_t k = 0; k < sizes.size(); ++k) {
        levels[k].capacity = (k == 0) ? chunk - inner_total : sizes[k];
    }
    // Depth-interleaved layout: all lanes' level-(K-1) buffers first, then
    // all level-(K-2) buffers, ..., outermost last.
    Addr at = stage;
    for (std::size_t k = sizes.size(); k-- > 0;) {
        levels[k].addr = at + lane * levels[k].capacity;
        at += lanes * levels[k].capacity;
    }
}

StagedReader::StagedReader(Machine& m, Addr begin, std::uint64_t len, Addr stage,
                           std::uint64_t chunk, std::uint64_t align, std::uint64_t lane,
                           std::uint64_t lanes)
    : m_(m), owned_(std::in_place, m, stage, chunk, align, lane, lanes), tower_(&*owned_) {
    init(begin, len);
}

StagedReader::StagedReader(Machine& m, Addr begin, std::uint64_t len,
                           const StageTower& tower)
    : m_(m), tower_(&tower) {
    init(begin, len);
}

void StagedReader::init(Addr begin, std::uint64_t len) {
    begin_ = begin;
    len_ = len;
    DBSP_REQUIRE(begin_ + len_ <= m_.capacity());
    DBSP_REQUIRE(tower_->stage + tower_->window <= m_.capacity());
    DBSP_REQUIRE(tower_->stage + tower_->window <= begin_ || begin_ + len_ <= tower_->stage);
    inner_ = tower_->levels.size() - 1;
    std::fill_n(lo_.begin(), inner_ + 1, 0);
    std::fill_n(hi_.begin(), inner_ + 1, 0);
    inner_addr_ = tower_->levels[inner_].addr;
}

void StagedReader::refill(std::size_t level) {
    DBSP_ASSERT(pos_ < len_);
    const auto& levels = tower_->levels;
    lo_[level] = pos_;
    const std::uint64_t parent_hi = (level == 0) ? len_ : hi_[level - 1];
    hi_[level] = std::min(pos_ + levels[level].capacity, parent_hi);
    const Addr src =
        (level == 0) ? begin_ + pos_ : levels[level - 1].addr + (pos_ - lo_[level - 1]);
    m_.block_copy(src, levels[level].addr, hi_[level] - lo_[level]);
}

void StagedReader::restage() {
    // A record never straddles windows when every capacity is a multiple of
    // the record size and advance() moves in whole records, so a miss always
    // lands exactly at the consumption point.
    DBSP_ASSERT(pos_ >= inner_hi_);
    for (std::size_t k = 0; k <= inner_; ++k) {
        if (pos_ >= hi_[k]) refill(k);
    }
    inner_lo_ = lo_[inner_];
    inner_hi_ = hi_[inner_];
}

StagedWriter::StagedWriter(Machine& m, Addr begin, std::uint64_t len, Addr stage,
                           std::uint64_t chunk, std::uint64_t align, std::uint64_t lane,
                           std::uint64_t lanes)
    : m_(m), owned_(std::in_place, m, stage, chunk, align, lane, lanes), tower_(&*owned_) {
    init(begin, len);
}

StagedWriter::StagedWriter(Machine& m, Addr begin, std::uint64_t len,
                           const StageTower& tower)
    : m_(m), tower_(&tower) {
    init(begin, len);
}

void StagedWriter::init(Addr begin, std::uint64_t len) {
    begin_ = begin;
    len_ = len;
    DBSP_REQUIRE(begin_ + len_ <= m_.capacity());
    DBSP_REQUIRE(tower_->stage + tower_->window <= m_.capacity());
    DBSP_REQUIRE(tower_->stage + tower_->window <= begin_ || begin_ + len_ <= tower_->stage);
    inner_ = tower_->levels.size() - 1;
    std::fill_n(fill_.begin(), inner_ + 1, 0);
    inner_addr_ = tower_->levels[inner_].addr;
    inner_cap_ = tower_->levels[inner_].capacity;
}

StagedWriter::~StagedWriter() { flush(); }

void StagedWriter::push_from(StagedReader& rd, std::uint64_t n) {
    if (n == 0) return;
    // The checks push(rd.peek(t)) makes word by word. Only peek(0) can
    // restage the reader; every later word must already be staged.
    DBSP_REQUIRE(rd.pos_ + n <= rd.len_);
    DBSP_REQUIRE(count_ + n <= len_);
    if (rd.pos_ >= rd.inner_hi_) rd.restage();
    DBSP_ASSERT(rd.pos_ >= rd.inner_lo_ && rd.pos_ + n <= rd.inner_hi_);
    Addr src = rd.inner_addr_ + (rd.pos_ - rd.inner_lo_);
    while (n > 0) {
        const std::uint64_t piece = std::min(n, inner_cap_ - fill_[inner_]);
        m_.copy_words(src, inner_addr_ + fill_[inner_], piece);
        src += piece;
        n -= piece;
        count_ += piece;
        if ((fill_[inner_] += piece) == inner_cap_) spill(inner_);
    }
}

void StagedWriter::spill(std::size_t level) {
    if (fill_[level] == 0) return;
    const auto& levels = tower_->levels;
    if (level == 0) {
        m_.block_copy(levels[0].addr, begin_ + written_, fill_[0]);
        written_ += fill_[0];
        fill_[0] = 0;
        return;
    }
    const std::size_t parent = level - 1;
    if (levels[parent].capacity - fill_[parent] < fill_[level]) {
        spill(parent);
    }
    m_.block_copy(levels[level].addr, levels[parent].addr + fill_[parent], fill_[level]);
    fill_[parent] += fill_[level];
    fill_[level] = 0;
}

void StagedWriter::flush() {
    for (std::size_t k = inner_ + 1; k-- > 0;) spill(k);
}

}  // namespace dbsp::bt
