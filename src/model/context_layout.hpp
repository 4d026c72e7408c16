#pragma once

/// \file context_layout.hpp
/// Fixed word layout of a D-BSP processor context. The paper requires message
/// buffers to be part of each processor's local memory ("buffers for incoming
/// and outgoing messages are provided as part of the processor's local
/// memory"), which also caps the relation degree at h <= mu. The layout is:
///
///   [0, D)                         user data words
///   [D]                            outgoing message count
///   [D+1, D+1+3B)                  outgoing records: (dest, payload0, payload1)
///   [D+1+3B, D+1+6B)               incoming records: (src, payload0, payload1)
///   [D+1+6B]                       incoming message count
///
/// so the context size is mu = D + 2 + 6B words. The incoming count sits
/// *after* the incoming records so that a context image can be produced as a
/// single sequential stream (the BT simulator rebuilds contexts from sorted
/// records in one forward pass). Both the direct D-BSP machine and the HMM/BT
/// simulators operate on this exact layout, which is what makes bit-for-bit
/// functional equivalence between them testable.

#include <algorithm>
#include <span>

#include "util/contracts.hpp"

#include "model/types.hpp"

namespace dbsp::model {

struct ContextLayout {
    std::size_t data_words = 0;    ///< D: user-visible words.
    std::size_t max_messages = 0;  ///< B: per-superstep buffer capacity per direction.

    static constexpr std::size_t kRecordWords = 3;

    constexpr std::size_t out_count_offset() const { return data_words; }
    constexpr std::size_t out_records_offset() const { return data_words + 1; }
    constexpr std::size_t in_records_offset() const {
        return data_words + 1 + kRecordWords * max_messages;
    }
    constexpr std::size_t in_count_offset() const {
        return in_records_offset() + kRecordWords * max_messages;
    }

    /// Total context size mu in words.
    constexpr std::size_t context_words() const {
        return data_words + 2 + 2 * kRecordWords * max_messages;
    }

    constexpr std::size_t out_record_offset(std::size_t k) const {
        return out_records_offset() + kRecordWords * k;
    }
    constexpr std::size_t in_record_offset(std::size_t k) const {
        return in_records_offset() + kRecordWords * k;
    }
};

/// Abstract, cost-instrumented word storage for one processor context.
/// The direct machine backs it with a plain array; the HMM/BT simulators back
/// it with machine memory so every access is charged the model's cost.
class ContextAccessor {
public:
    virtual ~ContextAccessor() = default;
    virtual Word get(std::size_t index) const = 0;
    virtual void set(std::size_t index, Word value) = 0;

    /// Bulk read of the contiguous index range [index, index + out.size())
    /// into \p out: one virtual call and, on charged accessors, a fused
    /// per-cell charge loop for the whole range (cost bit-identical to a
    /// get() loop, memcpy-able data movement).
    virtual void get_range(std::size_t index, std::span<Word> out) const = 0;

    /// Bulk write of \p values onto [index, index + values.size()).
    virtual void set_range(std::size_t index, std::span<const Word> values) = 0;
};

/// Plain in-memory accessor over a caller-owned span of mu words.
class FlatContextAccessor final : public ContextAccessor {
public:
    FlatContextAccessor(Word* base, std::size_t size) : base_(base), size_(size) {}
    Word get(std::size_t index) const override {
        DBSP_REQUIRE(index < size_);
        return base_[index];
    }
    void set(std::size_t index, Word value) override {
        DBSP_REQUIRE(index < size_);
        base_[index] = value;
    }
    void get_range(std::size_t index, std::span<Word> out) const override {
        DBSP_REQUIRE(index + out.size() <= size_);
        std::copy_n(base_ + index, out.size(), out.begin());
    }
    void set_range(std::size_t index, std::span<const Word> values) override {
        DBSP_REQUIRE(index + values.size() <= size_);
        std::copy_n(values.begin(), values.size(), base_ + index);
    }

    /// Repoint this accessor at another context (accessor sources reuse one
    /// object across processors instead of constructing per call).
    void rebind(Word* base, std::size_t size) {
        base_ = base;
        size_ = size;
    }

private:
    Word* base_;
    std::size_t size_;
};

}  // namespace dbsp::model
