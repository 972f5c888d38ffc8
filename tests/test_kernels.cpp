/**
 * @file
 * Tests for the SIMD kernel layer (kernels/kernels.hpp) and the
 * zero-allocation steady-state contract of AttentionBackend::runInto().
 *
 *  - Order-preserving kernels (axpy, maxReduce, expSumInPlace, scale,
 *    divideBy, gatherWeightedSum) must match the scalar table bit for
 *    bit on every available ISA, across sizes that exercise every
 *    vector-width tail.
 *  - Reassociating kernels (dot, gatherDot) must match within 1e-6
 *    relative tolerance and be run-to-run deterministic per table.
 *  - A3_FORCE_SCALAR_KERNELS pins selectKernels() to the scalar table.
 *  - Steady-state runInto() on every backend performs zero heap
 *    allocations, verified by a counting global operator new.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <new>
#include <thread>
#include <vector>

#include "attention/backend.hpp"
#include "attention/reference.hpp"
#include "engine/engine.hpp"
#include "fixed/packed.hpp"
#include "kernels/kernels.hpp"
#include "kernels/scratch.hpp"
#include "serving/sharded_backend.hpp"
#include "util/random.hpp"

// ---------------------------------------------------------------------
// Counting allocator hook: every path through the global operator new
// bumps one relaxed atomic. The zero-allocation tests measure deltas
// around steady-state runInto() calls; all other tests are unaffected
// beyond one extra increment per allocation.
// ---------------------------------------------------------------------

namespace {

std::atomic<std::size_t> g_newCalls{0};

std::size_t
allocationCount()
{
    return g_newCalls.load(std::memory_order_relaxed);
}

void *
countedAlloc(std::size_t size)
{
    g_newCalls.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size != 0 ? size : 1))
        return p;
    throw std::bad_alloc();
}

}  // namespace

void *
operator new(std::size_t size)
{
    return countedAlloc(size);
}

void *
operator new[](std::size_t size)
{
    return countedAlloc(size);
}

// The nothrow pair must be replaced alongside the throwing forms:
// std::inplace_merge / std::stable_sort temporary buffers allocate
// through operator new(size, nothrow), and a half-replaced set would
// pair the default nothrow new with our free() — an alloc/dealloc
// mismatch under ASan.
void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    g_newCalls.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(size != 0 ? size : 1);
}

void *
operator new[](std::size_t size, const std::nothrow_t &) noexcept
{
    g_newCalls.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(size != 0 ? size : 1);
}

void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace a3 {
namespace {

/** Sizes hitting sub-vector, exact-vector, and tail cases for 4/8/16. */
const std::size_t kSizes[] = {1,  2,  3,  4,  5,  7,  8,   9,   15, 16,
                              17, 31, 32, 33, 63, 64, 65, 100, 257};

std::vector<float>
randomVec(Rng &rng, std::size_t n)
{
    std::vector<float> v(n);
    for (auto &x : v)
        x = static_cast<float>(rng.normal());
    return v;
}

/** A row-major (rows x dims) matrix buffer plus a gather index list. */
struct GatherCase
{
    std::vector<float> mat;
    std::vector<std::uint32_t> rows;
    std::size_t dims = 0;
};

GatherCase
makeGatherCase(Rng &rng, std::size_t matRows, std::size_t dims,
               std::size_t count)
{
    GatherCase c;
    c.dims = dims;
    c.mat = randomVec(rng, matRows * dims);
    c.rows.resize(count);
    for (auto &r : c.rows) {
        r = static_cast<std::uint32_t>(
            rng.uniformInt(0, static_cast<int>(matRows) - 1));
    }
    return c;
}

TEST(KernelDispatch, ScalarTableComplete)
{
    const Kernels &k = scalarKernels();
    EXPECT_EQ(k.isa, KernelIsa::Scalar);
    EXPECT_NE(k.dot, nullptr);
    EXPECT_NE(k.axpy, nullptr);
    EXPECT_NE(k.maxReduce, nullptr);
    EXPECT_NE(k.expSumInPlace, nullptr);
    EXPECT_NE(k.scale, nullptr);
    EXPECT_NE(k.divideBy, nullptr);
    EXPECT_NE(k.gatherDot, nullptr);
    EXPECT_NE(k.gatherWeightedSum, nullptr);
}

TEST(KernelDispatch, EveryAvailableTableComplete)
{
    for (KernelIsa isa : availableKernelIsas()) {
        const Kernels &k = kernelsFor(isa);
        EXPECT_EQ(k.isa, isa) << kernelIsaName(isa);
        EXPECT_NE(k.dot, nullptr) << kernelIsaName(isa);
        EXPECT_NE(k.gatherWeightedSum, nullptr) << kernelIsaName(isa);
    }
}

TEST(KernelDispatch, ForceScalarEnvRespected)
{
    const char *old = std::getenv("A3_FORCE_SCALAR_KERNELS");
    const std::string saved = old != nullptr ? old : "";

    ::setenv("A3_FORCE_SCALAR_KERNELS", "1", 1);
    EXPECT_EQ(selectKernels().isa, KernelIsa::Scalar);
    ::setenv("A3_FORCE_SCALAR_KERNELS", "yes", 1);
    EXPECT_EQ(selectKernels().isa, KernelIsa::Scalar);

    // "0" and unset mean "do not force": the widest table wins.
    ::setenv("A3_FORCE_SCALAR_KERNELS", "0", 1);
    const KernelIsa unforced = selectKernels().isa;
    ::unsetenv("A3_FORCE_SCALAR_KERNELS");
    EXPECT_EQ(selectKernels().isa, unforced);
    EXPECT_EQ(unforced, availableKernelIsas().back());

    if (old != nullptr)
        ::setenv("A3_FORCE_SCALAR_KERNELS", saved.c_str(), 1);
}

TEST(KernelDispatch, ActiveTableOverride)
{
    const Kernels &original = activeKernels();
    setActiveKernels(scalarKernels());
    EXPECT_EQ(activeKernels().isa, KernelIsa::Scalar);
    setActiveKernels(original);
    EXPECT_EQ(activeKernels().isa, original.isa);
}

TEST(KernelEquivalence, OrderPreservingOpsBitExact)
{
    const Kernels &scalar = scalarKernels();
    for (KernelIsa isa : availableKernelIsas()) {
        const Kernels &simd = kernelsFor(isa);
        Rng rng(1234);
        for (std::size_t n : kSizes) {
            SCOPED_TRACE(std::string(kernelIsaName(isa)) + " n=" +
                         std::to_string(n));
            const std::vector<float> x = randomVec(rng, n);
            const float a = static_cast<float>(rng.normal());

            // axpy
            std::vector<float> yS = randomVec(rng, n);
            std::vector<float> yV = yS;
            scalar.axpy(a, x.data(), yS.data(), n);
            simd.axpy(a, x.data(), yV.data(), n);
            EXPECT_EQ(yS, yV);

            // maxReduce
            EXPECT_EQ(scalar.maxReduce(x.data(), n),
                      simd.maxReduce(x.data(), n));

            const float maxVal = scalar.maxReduce(x.data(), n);
            std::vector<float> eS = x;
            const float sumS =
                scalar.expSumInPlace(eS.data(), n, maxVal);

            // scale and divideBy
            std::vector<float> sS = x;
            std::vector<float> sV = x;
            scalar.scale(sS.data(), n, a);
            simd.scale(sV.data(), n, a);
            EXPECT_EQ(sS, sV);
            std::vector<float> dS = x;
            std::vector<float> dV = x;
            scalar.divideBy(dS.data(), n, sumS);
            simd.divideBy(dV.data(), n, sumS);
            EXPECT_EQ(dS, dV);
        }

        // gatherWeightedSum across dim tails
        for (std::size_t dims : {1u, 3u, 7u, 8u, 13u, 16u, 64u}) {
            SCOPED_TRACE(std::string(kernelIsaName(isa)) + " dims=" +
                         std::to_string(dims));
            const GatherCase c = makeGatherCase(rng, 40, dims, 25);
            const std::vector<float> w = randomVec(rng, c.rows.size());
            std::vector<float> outS(dims, 0.0f);
            std::vector<float> outV(dims, 0.0f);
            scalar.gatherWeightedSum(c.mat.data(), dims, c.rows.data(),
                                     c.rows.size(), w.data(),
                                     outS.data());
            simd.gatherWeightedSum(c.mat.data(), dims, c.rows.data(),
                                   c.rows.size(), w.data(),
                                   outV.data());
            EXPECT_EQ(outS, outV);
        }
    }
}

TEST(KernelEquivalence, ExpSumWithinRelativeTolerance)
{
    // expSumInPlace is tolerance-class: SIMD tables may substitute a
    // polynomial exp. Check every element and the sum against a
    // double-precision libm reference.
    for (KernelIsa isa : availableKernelIsas()) {
        const Kernels &k = kernelsFor(isa);
        Rng rng(4321);
        for (std::size_t n : kSizes) {
            SCOPED_TRACE(std::string(kernelIsaName(isa)) + " n=" +
                         std::to_string(n));
            std::vector<float> v = randomVec(rng, n);
            // Softmax-shaped inputs: shift so the max maps to 0 and
            // everything else is negative, including deep underflow.
            const float maxVal =
                scalarKernels().maxReduce(v.data(), n);
            v[0] = maxVal - 50.0f;  // ~2e-22 after exp
            std::vector<float> e = v;
            const float sum = k.expSumInPlace(e.data(), n, maxVal);

            double exactSum = 0.0;
            for (std::size_t i = 0; i < n; ++i) {
                // Subtract in float first — that is the operation every
                // kernel performs — so the tolerance measures only the
                // exp approximation itself.
                const float shifted = v[i] - maxVal;
                const double exact =
                    std::exp(static_cast<double>(shifted));
                exactSum += exact;
                const double tol = 1e-6 * (std::fabs(exact) + 1e-30);
                EXPECT_NEAR(static_cast<double>(e[i]), exact, tol)
                    << "element " << i;
            }
            EXPECT_NEAR(static_cast<double>(sum), exactSum,
                        1e-6 * (exactSum + 1e-30));
        }
    }
}

TEST(KernelEquivalence, DotWithinRelativeTolerance)
{
    const Kernels &scalar = scalarKernels();
    for (KernelIsa isa : availableKernelIsas()) {
        const Kernels &simd = kernelsFor(isa);
        Rng rng(5678);
        for (std::size_t n : kSizes) {
            SCOPED_TRACE(std::string(kernelIsaName(isa)) + " n=" +
                         std::to_string(n));
            const std::vector<float> a = randomVec(rng, n);
            const std::vector<float> b = randomVec(rng, n);

            // Double-precision ground truth bounds both variants.
            double exact = 0.0;
            for (std::size_t i = 0; i < n; ++i)
                exact += static_cast<double>(a[i]) *
                         static_cast<double>(b[i]);

            const float ds = scalar.dot(a.data(), b.data(), n);
            const float dv = simd.dot(a.data(), b.data(), n);
            // Tolerance scales with the accumulated magnitude, not the
            // (possibly cancelled) final value.
            double magnitude = 0.0;
            for (std::size_t i = 0; i < n; ++i)
                magnitude += std::fabs(static_cast<double>(a[i]) *
                                       static_cast<double>(b[i]));
            const double tol = 1e-6 * (magnitude + 1.0);
            EXPECT_NEAR(ds, exact, tol);
            EXPECT_NEAR(dv, exact, tol);
            EXPECT_NEAR(ds, dv, tol);
        }

        // gatherDot agrees with per-row dot of the same table.
        Rng rng2(91);
        const GatherCase c = makeGatherCase(rng2, 30, 64, 20);
        const std::vector<float> q = randomVec(rng2, 64);
        std::vector<float> out(c.rows.size(), 0.0f);
        simd.gatherDot(c.mat.data(), c.dims, c.rows.data(),
                       c.rows.size(), q.data(), out.data());
        for (std::size_t i = 0; i < c.rows.size(); ++i) {
            EXPECT_EQ(out[i], simd.dot(c.mat.data() + c.rows[i] * c.dims,
                                       q.data(), c.dims))
                << kernelIsaName(isa) << " row " << i;
        }
    }
}

// ---------------------------------------------------------------------
// Packed integer kernels: exact on every table (integer addition is
// associative), so agreement is EXPECT_EQ, not a tolerance.
// ---------------------------------------------------------------------

std::vector<std::int8_t>
randomI8(Rng &rng, std::size_t n, int magnitude)
{
    std::vector<std::int8_t> v(n);
    for (auto &x : v)
        x = static_cast<std::int8_t>(
            rng.uniformInt(-magnitude, magnitude));
    return v;
}

/** Pack int4 lanes (values in [-7, 7]) into the nibble layout. */
std::vector<std::uint8_t>
packI4(const std::vector<std::int8_t> &lanes)
{
    std::vector<std::uint8_t> packed((lanes.size() + 1) / 2);
    for (std::size_t i = 0; i < lanes.size(); i += 2) {
        const std::int8_t hi =
            i + 1 < lanes.size() ? lanes[i + 1] : std::int8_t{0};
        packed[i / 2] = packNibblePair(lanes[i], hi);
    }
    return packed;
}

TEST(PackedKernels, EveryAvailableTableComplete)
{
    for (KernelIsa isa : availableKernelIsas()) {
        const Kernels &k = kernelsFor(isa);
        EXPECT_NE(k.dotI8, nullptr) << kernelIsaName(isa);
        EXPECT_NE(k.gatherDotI8, nullptr) << kernelIsaName(isa);
        EXPECT_NE(k.dotI4, nullptr) << kernelIsaName(isa);
        EXPECT_NE(k.gatherDotI4, nullptr) << kernelIsaName(isa);
        EXPECT_NE(k.axpyI8, nullptr) << kernelIsaName(isa);
        EXPECT_NE(k.axpyI4, nullptr) << kernelIsaName(isa);
    }
}

TEST(PackedKernels, DotI8MatchesWideReferenceOnEveryIsa)
{
    for (KernelIsa isa : availableKernelIsas()) {
        const Kernels &k = kernelsFor(isa);
        Rng rng(8101);
        for (std::size_t n : kSizes) {
            SCOPED_TRACE(std::string(kernelIsaName(isa)) + " n=" +
                         std::to_string(n));
            // Full symmetric range: -128 is excluded by the storage
            // contract, -127..127 must all work.
            const std::vector<std::int8_t> a = randomI8(rng, n, 127);
            const std::vector<std::int8_t> b = randomI8(rng, n, 127);
            std::int64_t exact = 0;
            for (std::size_t i = 0; i < n; ++i)
                exact += static_cast<std::int64_t>(a[i]) * b[i];
            EXPECT_EQ(k.dotI8(a.data(), b.data(), n), exact);
        }
    }
}

TEST(PackedKernels, DotI4MatchesWideReferenceOnEveryIsa)
{
    for (KernelIsa isa : availableKernelIsas()) {
        const Kernels &k = kernelsFor(isa);
        Rng rng(8102);
        for (std::size_t n : kSizes) {
            SCOPED_TRACE(std::string(kernelIsaName(isa)) + " n=" +
                         std::to_string(n));
            // Odd n exercises the trailing low-nibble lane.
            const std::vector<std::int8_t> lanes = randomI8(rng, n, 7);
            const std::vector<std::uint8_t> packed = packI4(lanes);
            const std::vector<std::int8_t> q = randomI8(rng, n, 127);
            std::int64_t exact = 0;
            for (std::size_t i = 0; i < n; ++i)
                exact += static_cast<std::int64_t>(lanes[i]) * q[i];
            EXPECT_EQ(k.dotI4(packed.data(), q.data(), n), exact);
        }
    }
}

TEST(PackedKernels, NibbleHelpersRoundTripEveryLane)
{
    for (int lo = -8; lo <= 7; ++lo) {
        for (int hi = -8; hi <= 7; ++hi) {
            const std::uint8_t byte =
                packNibblePair(static_cast<std::int8_t>(lo),
                               static_cast<std::int8_t>(hi));
            EXPECT_EQ(unpackNibbleLow(byte), lo);
            EXPECT_EQ(unpackNibbleHigh(byte), hi);
        }
    }
}

TEST(PackedKernels, GatherVariantsMatchPerRowDots)
{
    Rng rng(8103);
    for (KernelIsa isa : availableKernelIsas()) {
        const Kernels &k = kernelsFor(isa);
        // Odd dims exercise nibble row alignment (each row starts on
        // its own byte; the pad nibble must not leak into neighbors).
        for (std::size_t dims : {1u, 3u, 7u, 16u, 33u, 64u, 65u}) {
            SCOPED_TRACE(std::string(kernelIsaName(isa)) + " dims=" +
                         std::to_string(dims));
            const std::size_t matRows = 24;
            const std::size_t count = 17;
            const std::vector<std::int8_t> mat8 =
                randomI8(rng, matRows * dims, 127);
            const std::vector<std::int8_t> lanes4 =
                randomI8(rng, matRows * dims, 7);
            // Pack row by row so each row is byte-aligned.
            std::vector<std::uint8_t> mat4;
            const std::size_t rowBytes = (dims + 1) / 2;
            for (std::size_t r = 0; r < matRows; ++r) {
                const std::vector<std::int8_t> row(
                    lanes4.begin() + r * dims,
                    lanes4.begin() + (r + 1) * dims);
                const std::vector<std::uint8_t> packedRow = packI4(row);
                mat4.insert(mat4.end(), packedRow.begin(),
                            packedRow.end());
            }
            ASSERT_EQ(mat4.size(), matRows * rowBytes);
            const std::vector<std::int8_t> q = randomI8(rng, dims, 127);
            // Repeated rows included: gathers may revisit a row.
            std::vector<std::uint32_t> rows(count);
            for (auto &r : rows)
                r = static_cast<std::uint32_t>(rng.uniformInt(
                    0, static_cast<int>(matRows) - 1));
            rows[count - 1] = rows[0];

            std::vector<std::int32_t> out8(count);
            std::vector<std::int32_t> out4(count);
            k.gatherDotI8(mat8.data(), dims, rows.data(), count,
                          q.data(), out8.data());
            k.gatherDotI4(mat4.data(), dims, rows.data(), count,
                          q.data(), out4.data());
            for (std::size_t i = 0; i < count; ++i) {
                EXPECT_EQ(out8[i], k.dotI8(mat8.data() + rows[i] * dims,
                                           q.data(), dims))
                    << "row " << i;
                EXPECT_EQ(out4[i],
                          k.dotI4(mat4.data() + rows[i] * rowBytes,
                                  q.data(), dims))
                    << "row " << i;
            }
        }
    }
}

TEST(PackedKernels, AxpyMatchesWideReferenceOnEveryIsa)
{
    const std::int64_t weights[] = {0, 1, -1, 4095, -4095, (1 << 24) - 1,
                                    -((1 << 24) - 1)};
    for (KernelIsa isa : availableKernelIsas()) {
        const Kernels &k = kernelsFor(isa);
        Rng rng(8104);
        for (std::size_t n : kSizes) {
            for (const std::int64_t w : weights) {
                SCOPED_TRACE(std::string(kernelIsaName(isa)) + " n=" +
                             std::to_string(n) + " w=" +
                             std::to_string(w));
                const std::vector<std::int8_t> x8 =
                    randomI8(rng, n, 127);
                const std::vector<std::int8_t> lanes4 =
                    randomI8(rng, n, 7);
                const std::vector<std::uint8_t> x4 = packI4(lanes4);
                std::vector<std::int64_t> seed(n);
                for (auto &y : seed)
                    y = static_cast<std::int64_t>(
                            rng.uniformInt(-1000000, 1000000))
                        << 8;

                std::vector<std::int64_t> got8 = seed;
                std::vector<std::int64_t> want8 = seed;
                k.axpyI8(w, x8.data(), got8.data(), n);
                for (std::size_t i = 0; i < n; ++i)
                    want8[i] += w * static_cast<std::int64_t>(x8[i]);
                EXPECT_EQ(got8, want8);

                std::vector<std::int64_t> got4 = seed;
                std::vector<std::int64_t> want4 = seed;
                k.axpyI4(w, x4.data(), got4.data(), n);
                for (std::size_t i = 0; i < n; ++i)
                    want4[i] += w * static_cast<std::int64_t>(lanes4[i]);
                EXPECT_EQ(got4, want4);
            }
        }
    }
}

TEST(PackedKernels, AllIsasBitIdenticalToScalar)
{
    const Kernels &scalar = scalarKernels();
    Rng rng(8105);
    const std::size_t n = 257;
    const std::vector<std::int8_t> a = randomI8(rng, n, 127);
    const std::vector<std::int8_t> b = randomI8(rng, n, 127);
    const std::vector<std::int8_t> lanes = randomI8(rng, n, 7);
    const std::vector<std::uint8_t> packed = packI4(lanes);
    for (KernelIsa isa : availableKernelIsas()) {
        const Kernels &k = kernelsFor(isa);
        SCOPED_TRACE(kernelIsaName(isa));
        EXPECT_EQ(k.dotI8(a.data(), b.data(), n),
                  scalar.dotI8(a.data(), b.data(), n));
        EXPECT_EQ(k.dotI4(packed.data(), b.data(), n),
                  scalar.dotI4(packed.data(), b.data(), n));
    }
}

TEST(KernelDeterminism, RunToRunIdenticalPerTable)
{
    for (KernelIsa isa : availableKernelIsas()) {
        const Kernels &k = kernelsFor(isa);
        Rng rng(24601);
        const std::vector<float> a = randomVec(rng, 257);
        const std::vector<float> b = randomVec(rng, 257);
        const float first = k.dot(a.data(), b.data(), a.size());
        for (int repeat = 0; repeat < 10; ++repeat) {
            EXPECT_EQ(first, k.dot(a.data(), b.data(), a.size()))
                << kernelIsaName(isa);
        }
    }
}

/** The scalar kernel path reproduces the historic softmax loop. */
TEST(KernelEquivalence, ScalarSoftmaxMatchesHistoricLoop)
{
    const Kernels &original = activeKernels();
    setActiveKernels(scalarKernels());
    Rng rng(777);
    for (std::size_t n : {1u, 5u, 17u, 320u}) {
        const std::vector<float> input = randomVec(rng, n);
        // The exact pre-kernel-layer implementation.
        float maxVal = -std::numeric_limits<float>::infinity();
        for (float v : input)
            maxVal = std::max(maxVal, v);
        std::vector<float> expected(n);
        float sum = 0.0f;
        for (std::size_t i = 0; i < n; ++i) {
            expected[i] = std::exp(input[i] - maxVal);
            sum += expected[i];
        }
        for (auto &v : expected)
            v /= sum;

        EXPECT_EQ(softmax(input), expected) << "n=" << n;
    }
    setActiveKernels(original);
}

// ---------------------------------------------------------------------
// Zero-allocation steady state
// ---------------------------------------------------------------------

struct TestTask
{
    Matrix key;
    Matrix value;
    std::vector<Vector> queries;
};

TestTask
makeTask(std::uint64_t seed, std::size_t n, std::size_t d,
         std::size_t queryCount)
{
    Rng rng(seed);
    TestTask t;
    t.key = Matrix(n, d);
    t.value = Matrix(n, d);
    for (std::size_t r = 0; r < n; ++r) {
        for (std::size_t c = 0; c < d; ++c) {
            t.key(r, c) = static_cast<float>(rng.normal());
            t.value(r, c) = static_cast<float>(rng.normal());
        }
    }
    t.queries.resize(queryCount);
    for (auto &q : t.queries) {
        q.resize(d);
        for (auto &x : q)
            x = static_cast<float>(rng.normal());
    }
    return t;
}

TEST(ZeroAllocation, SteadyStateRunIntoEveryBackend)
{
    const TestTask t = makeTask(4242, 48, 16, 4);
    for (EngineKind kind :
         {EngineKind::ExactFloat, EngineKind::ApproxFloat,
          EngineKind::ExactQuantized, EngineKind::ApproxQuantized}) {
        SCOPED_TRACE(engineKindName(kind));
        EngineConfig cfg;
        cfg.kind = kind;
        const auto backend = makeBackend(cfg, t.key, t.value);

        AttentionResult out;
        // Warm-up: grows the thread-local Scratch and out's buffers to
        // task size.
        for (int pass = 0; pass < 3; ++pass)
            for (const Vector &q : t.queries)
                backend->runInto(q, out);

        const std::size_t before = allocationCount();
        for (int pass = 0; pass < 10; ++pass)
            for (const Vector &q : t.queries)
                backend->runInto(q, out);
        const std::size_t after = allocationCount();
        EXPECT_EQ(after - before, 0u)
            << (after - before) << " allocations in steady state";
    }
}

/**
 * Allocations over ten steady-state engine passes of `groups`. Warm-up
 * passes size the result slots and the engine's reused buffers. The
 * pool hands work to whichever lane asks first, so a lane can sit out
 * every warm-up pass and grow its thread-local Scratch inside the
 * measured window. A rendezvous therefore holds each lane until all
 * have claimed one item, so every lane runs every query's path once
 * here (the wait is bounded, never a hang).
 */
std::size_t
steadyStateEngineAllocations(
    const AttentionEngine &engine,
    const std::vector<AttentionRequestGroup> &groups)
{
    std::vector<std::vector<AttentionResult>> results;
    for (int pass = 0; pass < 3; ++pass)
        engine.runGroupsInto(groups, results);
    const std::size_t lanes = engine.threads();
    std::atomic<std::size_t> arrived{0};
    engine.pool().parallelFor(lanes, [&](std::size_t) {
        arrived.fetch_add(1);
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(5);
        while (arrived.load() < lanes &&
               std::chrono::steady_clock::now() < deadline)
            std::this_thread::yield();
        AttentionResult warm;
        for (const AttentionRequestGroup &group : groups)
            for (const Vector &q : group.queries)
                group.backend->runInto(q, warm, group.detail);
    });

    const std::size_t before = allocationCount();
    for (int pass = 0; pass < 10; ++pass)
        engine.runGroupsInto(groups, results);
    const std::size_t after = allocationCount();
    EXPECT_EQ(results.size(), groups.size());
    return after - before;
}

TEST(ZeroAllocation, SteadyStateEngineBatch)
{
    const TestTask t = makeTask(555, 48, 16, 8);
    const AttentionEngine engine(2);

    // One plain backend's batch: every query is a single work unit.
    EngineConfig cfg;
    cfg.kind = EngineKind::ApproxFloat;
    const auto backend = makeBackend(cfg, t.key, t.value);
    std::vector<AttentionRequestGroup> plain(1);
    plain[0].backend = backend.get();
    plain[0].queries = t.queries;
    EXPECT_EQ(steadyStateEngineAllocations(engine, plain), 0u);

    // The same queries on a 3-shard backend at Output: each query is
    // three unit partials merged by the lane that finishes last, all
    // in the engine's reused partial slots.
    for (EngineKind kind :
         {EngineKind::ExactFloat, EngineKind::ApproxFloat,
          EngineKind::ExactQuantized, EngineKind::ApproxQuantized}) {
        SCOPED_TRACE(engineKindName(kind));
        EngineConfig shardCfg;
        shardCfg.kind = kind;
        const ShardedBackend sharded(shardCfg, t.key, t.value,
                                     ShardedConfig{16});
        ASSERT_EQ(sharded.shardCount(), 3u);
        std::vector<AttentionRequestGroup> group(1);
        group[0].backend = &sharded;
        group[0].queries = t.queries;
        group[0].detail = ResultDetail::Output;
        EXPECT_EQ(steadyStateEngineAllocations(engine, group), 0u);
    }
}

TEST(ZeroAllocation, SteadyStateOutputQueriesOnShardedBackend)
{
    // Output detail on a multi-shard backend: d-length shard
    // partials and a merge that never touches length-n arrays.
    const TestTask t = makeTask(777, 48, 16, 4);
    for (EngineKind kind :
         {EngineKind::ExactFloat, EngineKind::ApproxFloat,
          EngineKind::ExactQuantized, EngineKind::ApproxQuantized}) {
        SCOPED_TRACE(engineKindName(kind));
        EngineConfig cfg;
        cfg.kind = kind;
        const ShardedBackend backend(cfg, t.key, t.value,
                                     ShardedConfig{16});
        ASSERT_EQ(backend.shardCount(), 3u);

        AttentionResult out;
        for (int pass = 0; pass < 3; ++pass)
            for (const Vector &q : t.queries)
                backend.runInto(q, out, ResultDetail::Output);

        const std::size_t before = allocationCount();
        for (int pass = 0; pass < 10; ++pass)
            for (const Vector &q : t.queries)
                backend.runInto(q, out, ResultDetail::Output);
        const std::size_t after = allocationCount();
        EXPECT_EQ(after - before, 0u)
            << (after - before) << " allocations in steady state";
        EXPECT_TRUE(out.weights.empty());
    }
}

/** Reusing one dirty result object across backends must not leak
 *  state between runs: every field is rewritten. */
TEST(ZeroAllocation, ReusedResultMatchesFreshResult)
{
    const TestTask t = makeTask(99, 32, 8, 3);
    EngineConfig approxCfg;
    approxCfg.kind = EngineKind::ApproxFloat;
    EngineConfig exactCfg;
    exactCfg.kind = EngineKind::ExactFloat;
    const auto approx = makeBackend(approxCfg, t.key, t.value);
    const auto exact = makeBackend(exactCfg, t.key, t.value);

    AttentionResult reused;
    for (const Vector &q : t.queries) {
        // Dirty the reused object with a different backend's result
        // before every comparison.
        exact->runInto(q, reused);
        approx->runInto(q, reused);
        const AttentionResult fresh = approx->run(q);
        EXPECT_EQ(reused.output, fresh.output);
        EXPECT_EQ(reused.weights, fresh.weights);
        EXPECT_EQ(reused.scores, fresh.scores);
        EXPECT_EQ(reused.candidates, fresh.candidates);
        EXPECT_EQ(reused.kept, fresh.kept);
        EXPECT_EQ(reused.iterations, fresh.iterations);
    }
}

/** SIMD and scalar end-to-end attention agree within tolerance. */
TEST(KernelEquivalence, EndToEndSimdMatchesScalarWithinTolerance)
{
    const Kernels &best = selectKernels();
    if (best.isa == KernelIsa::Scalar)
        GTEST_SKIP() << "no SIMD table available on this host";

    const TestTask t = makeTask(31337, 64, 32, 8);
    const auto backend = [&](const Kernels &k) {
        setActiveKernels(k);
        EngineConfig cfg;
        cfg.kind = EngineKind::ApproxFloat;
        const auto b = makeBackend(cfg, t.key, t.value);
        std::vector<AttentionResult> results;
        results.reserve(t.queries.size());
        for (const Vector &q : t.queries)
            results.push_back(b->run(q));
        return results;
    };
    const auto scalarResults = backend(scalarKernels());
    const auto simdResults = backend(best);
    setActiveKernels(selectKernels());

    for (std::size_t i = 0; i < t.queries.size(); ++i) {
        SCOPED_TRACE("query " + std::to_string(i));
        ASSERT_EQ(scalarResults[i].output.size(),
                  simdResults[i].output.size());
        for (std::size_t j = 0; j < scalarResults[i].output.size();
             ++j) {
            EXPECT_NEAR(scalarResults[i].output[j],
                        simdResults[i].output[j], 1e-5f);
        }
        for (std::size_t r = 0; r < scalarResults[i].weights.size();
             ++r) {
            EXPECT_NEAR(scalarResults[i].weights[r],
                        simdResults[i].weights[r], 1e-5f);
        }
    }
}

}  // namespace
}  // namespace a3
