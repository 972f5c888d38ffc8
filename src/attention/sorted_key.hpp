/**
 * @file
 * Pre-sorted key matrix (Section IV-C preprocessing).
 *
 * Each column of the key matrix is sorted ascending by value, and every
 * entry carries the row index it came from in the original matrix —
 * exactly the (val, rowID) pair layout of the paper's sortedKey SRAM
 * (Figure 8). Preprocessing happens at comprehension time (off the
 * query critical path), or is amortized over many queries for
 * self-attention models like BERT.
 */

#ifndef A3_ATTENTION_SORTED_KEY_HPP
#define A3_ATTENTION_SORTED_KEY_HPP

#include <cstdint>
#include <optional>
#include <vector>

#include "tensor/matrix.hpp"

namespace a3 {

/** One word of the sorted-key SRAM: a key value plus its origin row. */
struct SortedKeyEntry
{
    float val = 0.0f;
    std::uint32_t rowId = 0;
};

/** Column-sorted view of a key matrix. */
class SortedKey
{
  public:
    SortedKey() = default;

    /**
     * Sort every column of `key` ascending in the sorted-key order:
     * value order with -0 equal to +0, a NaN placed past the infinity
     * of its sign bit, and ties kept in original row order (which pins
     * down the pop order of the greedy search). For finite inputs
     * that is the (val, rowId) order of Figure 8. Cost: a stable LSD
     * radix sort per column, so d columns x 3 linear passes over n
     * entries (11-bit digits of a 32-bit order key), no comparisons.
     */
    static SortedKey build(const Matrix &key);

    /**
     * Insert k new rows — rows firstRowId .. firstRowId + k - 1 of the
     * grown task — into every column's sorted order. Bit-identical to
     * rebuilding from the concatenated key matrix, NaN included: the
     * tail is sorted and merged under the same order key, so each
     * column costs one O(k log k) sort plus one O(n + k) merge
     * instead of build()'s three passes over all n + k entries.
     * `firstRowId` must equal rows().
     */
    void append(const Matrix &newRows, std::uint32_t firstRowId);

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }

    /**
     * Entry at sorted position `pos` (0 = smallest) of column `col`.
     */
    const SortedKeyEntry &at(std::size_t pos, std::size_t col) const;

    /** Size in bytes of the modeled SRAM (value + row id per entry). */
    std::size_t storageBytes() const;

    /** Full sorted order of column `col` (serialization access). */
    const std::vector<SortedKeyEntry> &
    columnEntries(std::size_t col) const;

    /**
     * Adopt pre-sorted columns verbatim — the spill-restore path,
     * which skips the build() sort. Returns nullopt unless every
     * column is exactly what build(key) would produce: `key.rows()`
     * entries, row ids in range, values bit-equal to key(rowId, col),
     * and strictly ascending in the sorted-key order. The check is
     * one linear pass per column.
     */
    static std::optional<SortedKey>
    fromColumns(const Matrix &key,
                std::vector<std::vector<SortedKeyEntry>> columns);

    /** Bytes the columns have reserved (> storageBytes() after
     *  append() growth). */
    std::size_t capacityBytes() const;

    /**
     * Release slack capacity left behind by append() growth; returns
     * the bytes reclaimed. The sorted orders are untouched — the
     * merged order is already exactly build()'s order (append()'s
     * contract), so compaction never changes a query result.
     */
    std::size_t compact();

  private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    /** Column-major: columns_[col][pos], ascending by val. */
    std::vector<std::vector<SortedKeyEntry>> columns_;
};

}  // namespace a3

#endif  // A3_ATTENTION_SORTED_KEY_HPP
