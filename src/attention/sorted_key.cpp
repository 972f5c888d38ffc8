#include "attention/sorted_key.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <utility>

#include "util/logging.hpp"

namespace a3 {

namespace {

/**
 * The one definition of the sorted-key order: the float's bits mapped
 * so that unsigned comparison follows value order. -0 folds onto +0 by
 * an explicit bit test (a `+ 0.0f` may be dropped under fast-math), so
 * the two zeros tie and keep row order. A NaN lands past the infinity
 * of its sign.
 */
std::uint32_t
orderKey(float value)
{
    std::uint32_t bits = std::bit_cast<std::uint32_t>(value);
    if (bits == 0x80000000u)
        bits = 0;
    return (bits & 0x80000000u) != 0 ? ~bits : bits | 0x80000000u;
}

/** An entry's place in the sorted-key order: (orderKey, rowId), which
 *  is unique because row ids are. */
std::uint64_t
entryOrder(const SortedKeyEntry &e)
{
    return std::uint64_t{orderKey(e.val)} << 32 | e.rowId;
}

constexpr unsigned kDigitBits = 11;
constexpr std::uint32_t kDigitMask = (1u << kDigitBits) - 1;
/** 11 + 11 + 10 bits cover the 32-bit order key. */
constexpr unsigned kPasses = 3;

}  // namespace

SortedKey
SortedKey::build(const Matrix &key)
{
    SortedKey sk;
    sk.rows_ = key.rows();
    sk.cols_ = key.cols();
    sk.columns_.reserve(sk.cols_);
    // Stable LSD radix sort of (val, rowId) entries on the order key.
    // Entries start in row order, so ties keep their row order.
    std::vector<SortedKeyEntry> scratch(sk.rows_);
    std::array<std::array<std::uint32_t, kDigitMask + 1>, kPasses>
        offsets;
    for (std::size_t c = 0; c < sk.cols_; ++c) {
        for (auto &counts : offsets)
            counts.fill(0);
        for (std::size_t r = 0; r < sk.rows_; ++r) {
            const float v = key(r, c);
            scratch[r] = {v, static_cast<std::uint32_t>(r)};
            const std::uint32_t k = orderKey(v);
            for (unsigned p = 0; p < kPasses; ++p)
                ++offsets[p][(k >> (p * kDigitBits)) & kDigitMask];
        }
        for (auto &counts : offsets) {
            std::uint32_t sum = 0;
            for (auto &count : counts)
                sum += std::exchange(count, sum);
        }
        // An odd pass count ends in the column: scratch -> column ->
        // scratch -> column.
        auto &column = sk.columns_.emplace_back(sk.rows_);
        SortedKeyEntry *src = scratch.data();
        SortedKeyEntry *dst = column.data();
        for (unsigned p = 0; p < kPasses; ++p) {
            auto &next = offsets[p];
            const unsigned shift = p * kDigitBits;
            for (std::size_t i = 0; i < sk.rows_; ++i) {
                const SortedKeyEntry e = src[i];
                const std::uint32_t digit =
                    (orderKey(e.val) >> shift) & kDigitMask;
                dst[next[digit]++] = e;
            }
            std::swap(src, dst);
        }
    }
    return sk;
}

void
SortedKey::append(const Matrix &newRows, std::uint32_t firstRowId)
{
    a3Assert(newRows.cols() == cols_,
             "sorted-key append width mismatch: ", newRows.cols(),
             " vs ", cols_);
    a3Assert(firstRowId == rows_,
             "sorted-key append must continue the row ids: got ",
             firstRowId, ", expected ", rows_);
    const std::size_t k = newRows.rows();
    if (k == 0)
        return;
    // build()'s order is the unique entry order, and every new row id
    // is above every old one. So the sorted tail merges in from the
    // back, and an old entry moves past a new one only when its order
    // key is greater; ties keep the old entry first.
    std::vector<SortedKeyEntry> tail(k);
    for (std::size_t c = 0; c < cols_; ++c) {
        for (std::size_t i = 0; i < k; ++i) {
            tail[i] = {newRows(i, c),
                       firstRowId + static_cast<std::uint32_t>(i)};
        }
        std::sort(tail.begin(), tail.end(),
                  [](const SortedKeyEntry &a, const SortedKeyEntry &b) {
                      return entryOrder(a) < entryOrder(b);
                  });
        auto &column = columns_[c];
        std::size_t old = column.size();
        std::size_t write = old + k;
        column.reserve(write);  // exactly: resize() alone may double
        column.resize(write);
        for (std::size_t j = k; j > 0; --j) {
            const SortedKeyEntry &next = tail[j - 1];
            const std::uint32_t nextKey = orderKey(next.val);
            while (old > 0 && orderKey(column[old - 1].val) > nextKey)
                column[--write] = column[--old];
            column[--write] = next;
        }
    }
    rows_ += k;
}

const SortedKeyEntry &
SortedKey::at(std::size_t pos, std::size_t col) const
{
    a3Assert(col < cols_, "sorted-key column out of range");
    a3Assert(pos < rows_, "sorted-key position out of range");
    return columns_[col][pos];
}

std::size_t
SortedKey::storageBytes() const
{
    // One float value plus one 32-bit row id per entry, as in Figure 8.
    return rows_ * cols_ * (sizeof(float) + sizeof(std::uint32_t));
}

const std::vector<SortedKeyEntry> &
SortedKey::columnEntries(std::size_t col) const
{
    a3Assert(col < cols_, "sorted-key column out of range");
    return columns_[col];
}

std::optional<SortedKey>
SortedKey::fromColumns(const Matrix &key,
                       std::vector<std::vector<SortedKeyEntry>> columns)
{
    const std::size_t rows = key.rows();
    const std::size_t cols = key.cols();
    if (columns.size() != cols)
        return std::nullopt;
    // In range, bit-equal to the key, and strictly ascending in the
    // entry order: the row ids are then a permutation in the unique
    // order build() gives.
    for (std::size_t c = 0; c < cols; ++c) {
        const auto &column = columns[c];
        if (column.size() != rows)
            return std::nullopt;
        std::uint64_t previous = 0;
        for (std::size_t i = 0; i < rows; ++i) {
            const SortedKeyEntry &e = column[i];
            const std::uint64_t order = entryOrder(e);
            if (e.rowId >= rows ||
                std::bit_cast<std::uint32_t>(e.val) !=
                    std::bit_cast<std::uint32_t>(key(e.rowId, c)) ||
                (i > 0 && order <= previous))
                return std::nullopt;
            previous = order;
        }
    }
    SortedKey sk;
    sk.rows_ = rows;
    sk.cols_ = cols;
    sk.columns_ = std::move(columns);
    return sk;
}

std::size_t
SortedKey::capacityBytes() const
{
    std::size_t bytes = 0;
    for (const auto &column : columns_)
        bytes += column.capacity() * sizeof(SortedKeyEntry);
    return bytes;
}

std::size_t
SortedKey::compact()
{
    std::size_t reclaimed = 0;
    for (auto &column : columns_) {
        const std::size_t before = column.capacity();
        column.shrink_to_fit();
        reclaimed +=
            (before - column.capacity()) * sizeof(SortedKeyEntry);
    }
    return reclaimed;
}

}  // namespace a3
