/**
 * @file
 * Tests for the pre-sorted key matrix (Section IV-C preprocessing).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <set>
#include <vector>

#include "attention/sorted_key.hpp"
#include "util/random.hpp"

namespace a3 {
namespace {

Matrix
randomMatrix(Rng &rng, std::size_t n, std::size_t d)
{
    Matrix m(n, d);
    for (std::size_t r = 0; r < n; ++r)
        for (std::size_t c = 0; c < d; ++c)
            m(r, c) = static_cast<float>(rng.normal());
    return m;
}

/**
 * Comparison-sort reference for finite and infinite keys: a stable
 * sort on the float value, so -0 ties +0 and ties keep row order.
 */
std::vector<SortedKeyEntry>
referenceColumn(const Matrix &key, std::size_t c)
{
    std::vector<SortedKeyEntry> column;
    for (std::size_t r = 0; r < key.rows(); ++r)
        column.push_back({key(r, c), static_cast<std::uint32_t>(r)});
    std::stable_sort(
        column.begin(), column.end(),
        [](const SortedKeyEntry &a, const SortedKeyEntry &b) {
            return a.val < b.val;
        });
    return column;
}

void
expectBuildMatchesReference(const Matrix &key)
{
    const SortedKey sk = SortedKey::build(key);
    ASSERT_EQ(sk.rows(), key.rows());
    ASSERT_EQ(sk.cols(), key.cols());
    for (std::size_t c = 0; c < key.cols(); ++c) {
        const std::vector<SortedKeyEntry> want =
            referenceColumn(key, c);
        const std::vector<SortedKeyEntry> &got = sk.columnEntries(c);
        ASSERT_EQ(got.size(), want.size());
        EXPECT_EQ(std::memcmp(got.data(), want.data(),
                              got.size() * sizeof(SortedKeyEntry)),
                  0)
            << "col " << c << " of " << key.rows() << " x "
            << key.cols();
    }
}

TEST(SortedKey, ColumnsAscending)
{
    Rng rng(900);
    const Matrix key = randomMatrix(rng, 50, 16);
    const SortedKey sk = SortedKey::build(key);
    for (std::size_t c = 0; c < 16; ++c) {
        for (std::size_t p = 1; p < 50; ++p)
            EXPECT_LE(sk.at(p - 1, c).val, sk.at(p, c).val);
    }
}

TEST(SortedKey, EntriesArePermutationOfColumn)
{
    Rng rng(901);
    const Matrix key = randomMatrix(rng, 30, 8);
    const SortedKey sk = SortedKey::build(key);
    for (std::size_t c = 0; c < 8; ++c) {
        std::multiset<float> original;
        std::multiset<float> sorted;
        std::set<std::uint32_t> rowIds;
        for (std::size_t r = 0; r < 30; ++r) {
            original.insert(key(r, c));
            sorted.insert(sk.at(r, c).val);
            rowIds.insert(sk.at(r, c).rowId);
        }
        EXPECT_EQ(original, sorted);
        EXPECT_EQ(rowIds.size(), 30u);  // every row id exactly once
    }
}

TEST(SortedKey, RowIdsPointBackToOriginalValues)
{
    Rng rng(902);
    const Matrix key = randomMatrix(rng, 20, 4);
    const SortedKey sk = SortedKey::build(key);
    for (std::size_t c = 0; c < 4; ++c) {
        for (std::size_t p = 0; p < 20; ++p) {
            const SortedKeyEntry &e = sk.at(p, c);
            EXPECT_EQ(key(e.rowId, c), e.val);
        }
    }
}

TEST(SortedKey, StableTieOrder)
{
    const Matrix key =
        Matrix::fromRows({{1.0f}, {0.0f}, {1.0f}, {0.0f}});
    const SortedKey sk = SortedKey::build(key);
    // Ties keep original row order: zeros (rows 1, 3) then ones (0, 2).
    EXPECT_EQ(sk.at(0, 0).rowId, 1u);
    EXPECT_EQ(sk.at(1, 0).rowId, 3u);
    EXPECT_EQ(sk.at(2, 0).rowId, 0u);
    EXPECT_EQ(sk.at(3, 0).rowId, 2u);
}

TEST(SortedKey, MatchesComparisonSortReference)
{
    Rng rng(904);
    // Random shapes, including n = 1 and sizes past one 11-bit digit.
    for (int trial = 0; trial < 24; ++trial) {
        const std::int64_t maxRows = trial < 20 ? 300 : 5000;
        const auto n = static_cast<std::size_t>(
            trial == 0 ? 1 : rng.uniformInt(1, maxRows));
        const auto d = static_cast<std::size_t>(rng.uniformInt(1, 9));
        Matrix key = randomMatrix(rng, n, d);
        // Spread the exponents, subnormals included, so every digit of
        // the order key varies.
        for (auto &v : key.data()) {
            v *= static_cast<float>(
                std::exp2(rng.uniformInt(-140, 100)));
        }
        expectBuildMatchesReference(key);
    }

    // Heavy duplicates: ties are decided by row id alone.
    const float few[] = {-1.0f, 0.0f, 0.5f, 1.0f};
    Matrix dups(257, 3);
    for (auto &v : dups.data())
        v = few[rng.uniformInt(0, 3)];
    expectBuildMatchesReference(dups);

    // Signed zeros, subnormals, extremes and infinities.
    const float inf = std::numeric_limits<float>::infinity();
    const float tiny = std::numeric_limits<float>::denorm_min();
    const float special[] = {
        0.0f, -0.0f, tiny, -tiny, 1e-40f, -1e-40f,
        std::numeric_limits<float>::min(),
        -std::numeric_limits<float>::min(),
        std::numeric_limits<float>::max(),
        -std::numeric_limits<float>::max(), inf, -inf, 1.0f, -1.0f};
    constexpr std::size_t kSpecials = std::size(special);
    Matrix edges(3 * kSpecials, 4);
    for (std::size_t r = 0; r < edges.rows(); ++r) {
        edges(r, 0) = special[r % kSpecials];
        edges(r, 1) = special[(r * 7) % kSpecials];
        edges(r, 2) = special[rng.uniformInt(0, kSpecials - 1)];
        edges(r, 3) = rng.bernoulli(0.5)
                          ? special[rng.uniformInt(0, kSpecials - 1)]
                          : static_cast<float>(rng.normal());
    }
    expectBuildMatchesReference(edges);
}

TEST(SortedKey, SignedZerosTieAndNaNSortsBySignBit)
{
    const float inf = std::numeric_limits<float>::infinity();
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const Matrix key = Matrix::fromRows({{nan},
                                         {1.0f},
                                         {-inf},
                                         {std::copysign(nan, -1.0f)},
                                         {inf},
                                         {0.0f},
                                         {-0.0f}});
    const SortedKey sk = SortedKey::build(key);
    const std::uint32_t want[] = {3, 2, 5, 6, 1, 4, 0};
    for (std::size_t p = 0; p < 7; ++p) {
        const SortedKeyEntry &e = sk.at(p, 0);
        EXPECT_EQ(e.rowId, want[p]) << "pos " << p;
        // The stored value keeps its bits: -0 stays -0, NaN stays NaN.
        EXPECT_EQ(
            std::memcmp(&e.val, &key.data()[e.rowId], sizeof(float)), 0)
            << "pos " << p;
    }
}

TEST(SortedKey, StorageBytesMatchFigure8Layout)
{
    Rng rng(903);
    const Matrix key = randomMatrix(rng, 10, 6);
    const SortedKey sk = SortedKey::build(key);
    EXPECT_EQ(sk.storageBytes(), 10u * 6u * 8u);
    EXPECT_EQ(sk.rows(), 10u);
    EXPECT_EQ(sk.cols(), 6u);
}

}  // namespace
}  // namespace a3
