/**
 * @file
 * AttentionEngine throughput sweep: queries/sec for batch sizes
 * {1, 16, 128} x thread counts {1, hardware_concurrency} x kernel
 * variants {scalar, widest SIMD} x backends {reference, approx,
 * quantized in each K/V lane layout}, against one preprocessed
 * 320 x 64 task (the BERT shape of Section VI-A). The kernel-variant
 * column turns the SIMD layer's speedup into a reported number:
 * compare rows that differ only in "kernels", or read the precomputed
 * speedup_vs_scalar field.
 *
 * The quantized rows sweep the packed K/V layouts (word32 foil at the
 * paper-default i=4/f=4, int8 at i=3/f=4, int4 at i=1/f=2) and report
 * the memory side of the story: bytes_per_query is the bound task
 * footprint every query streams through, qps_per_gb divides
 * throughput by that footprint (the serving-density figure of merit),
 * and speedup_vs_word32 / bytes_ratio_vs_word32 compare each packed
 * row against the word32 row with the same kernels/threads/batch.
 *
 * Emits a JSON array on stdout (one object per configuration, timing
 * aggregated with util/stats' RunningStat); pass a path argument to
 * also dump the same rows as CSV via util/csv.
 *
 * Usage: engine_throughput [out.csv] [--repeats R] [--batch N]
 *   --batch N restricts the sweep to one batch size (CI smoke runs).
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "attention/approx_attention.hpp"
#include "attention/backend.hpp"
#include "attention/quantized.hpp"
#include "bench_common.hpp"
#include "engine/engine.hpp"
#include "fixed/packed.hpp"
#include "kernels/kernels.hpp"
#include "util/csv.hpp"
#include "util/logging.hpp"
#include "util/random.hpp"
#include "util/stats.hpp"

namespace {

using namespace a3;

struct SweepRow
{
    std::string backend;
    /** K/V storage layout: "float32", "word32", "int8", or "int4". */
    std::string kvFormat;
    std::string kernels;
    std::size_t batch = 0;
    std::size_t threads = 0;
    double queriesPerSecond = 0.0;
    double meanBatchSeconds = 0.0;
    double stddevBatchSeconds = 0.0;
    std::size_t repeats = 0;
    /** SIMD-vs-scalar throughput ratio; 1.0 on the scalar rows. */
    double speedupVsScalar = 1.0;
    /** Bound task footprint (memoryBytes) each query streams over. */
    std::size_t bytesPerQuery = 0;
    /** Serving density: queries/sec per GiB of bound task state. */
    double qpsPerGb = 0.0;
    /** Packed-vs-word32 ratios; 1.0 outside the packed rows. */
    double speedupVsWord32 = 1.0;
    double bytesRatioVsWord32 = 1.0;
};

double
now()
{
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(
               clock::now().time_since_epoch())
        .count();
}

/** Time one request group (built by the caller, outside the timed
 *  loop) through the engine's batch path. */
SweepRow
measure(const AttentionEngine &engine,
        const std::vector<AttentionRequestGroup> &batch,
        const std::string &kvFormat, std::size_t repeats)
{
    const AttentionBackend &backend = *batch.front().backend;
    const std::vector<Vector> &queries = batch.front().queries;
    // Warm-up pass: pulls the task into cache, spins the pool up, and
    // grows every lane's Scratch arena and the result slots to task
    // size.
    std::vector<std::vector<AttentionResult>> results;
    engine.runGroupsInto(batch, results);

    RunningStat batchSeconds;
    for (std::size_t r = 0; r < repeats; ++r) {
        const double start = now();
        engine.runGroupsInto(batch, results);
        batchSeconds.add(now() - start);
        if (results.front().size() != queries.size())
            fatal("engine dropped results");
    }

    SweepRow row;
    row.backend = backend.name();
    row.kvFormat = kvFormat;
    row.kernels = kernelIsaName(activeKernels().isa);
    row.batch = queries.size();
    row.threads = engine.threads();
    row.meanBatchSeconds = batchSeconds.mean();
    row.stddevBatchSeconds = batchSeconds.stddev();
    // Best-of-repeats throughput: robust against scheduler noise.
    row.queriesPerSecond =
        static_cast<double>(queries.size()) / batchSeconds.min();
    row.repeats = batchSeconds.count();
    row.bytesPerQuery = backend.memoryBytes();
    row.qpsPerGb = row.queriesPerSecond /
                   (static_cast<double>(row.bytesPerQuery) /
                    (1024.0 * 1024.0 * 1024.0));
    return row;
}

}  // namespace

int
main(int argc, char **argv)
{
    std::string csvPath;
    std::size_t repeats = 40;
    std::size_t onlyBatch = 0;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--repeats") == 0) {
            if (i + 1 >= argc)
                fatal("--repeats needs a value");
            const long parsed = std::atol(argv[++i]);
            if (parsed <= 0)
                fatal("--repeats must be a positive integer, got \"",
                      argv[i], "\"");
            repeats = static_cast<std::size_t>(parsed);
        } else if (std::strcmp(argv[i], "--batch") == 0) {
            if (i + 1 >= argc)
                fatal("--batch needs a value");
            const long parsed = std::atol(argv[++i]);
            if (parsed <= 0 || parsed > 128)
                fatal("--batch must lie in [1, 128], got \"", argv[i],
                      "\"");
            onlyBatch = static_cast<std::size_t>(parsed);
        } else {
            csvPath = argv[i];
        }
    }

    // BERT shape: n = 320 rows, d = 64, conservative approximation.
    Rng rng(bench::benchSeed);
    const std::size_t n = 320;
    const std::size_t d = 64;
    Matrix key(n, d);
    Matrix value(n, d);
    for (std::size_t r = 0; r < n; ++r) {
        for (std::size_t c = 0; c < d; ++c) {
            key(r, c) = static_cast<float>(rng.normal());
            value(r, c) = static_cast<float>(rng.normal());
        }
    }
    // reference = the pure float scoring path (dot + softmax +
    // weighted sum, no selection); approx = the paper's software flow;
    // the quantized trio differs only in K/V lane layout so the packed
    // columns compare like against like. The word32 foil keeps the
    // paper-default i=4/f=4; the packed rows use the widest formats
    // their lanes hold losslessly (Auto resolution).
    const ReferenceAttention reference(key, value);
    const ApproxAttention approx(key, value,
                                 ApproxConfig::conservative());
    const QuantizedAttention quantWord32(key, value, 4, 4,
                                         PackedKvFormat::Word32);
    const QuantizedAttention quantInt8(key, value, 3, 4);
    const QuantizedAttention quantInt4(key, value, 1, 2);
    a3Assert(quantInt8.packedFormat() == PackedKvFormat::Int8 &&
                 quantInt4.packedFormat() == PackedKvFormat::Int4,
             "Auto did not resolve to the expected packed lanes");

    struct BackendEntry
    {
        const AttentionBackend *backend;
        const char *kvFormat;
    };
    const std::vector<BackendEntry> backends{
        {&reference, "float32"},
        {&approx, "float32"},
        {&quantWord32, "word32"},
        {&quantInt8, "int8"},
        {&quantInt4, "int4"}};

    std::vector<Vector> pool(128);
    for (auto &q : pool) {
        q.resize(d);
        for (auto &x : q)
            x = static_cast<float>(rng.normal());
    }

    const std::size_t hw = std::max<std::size_t>(
        1, std::thread::hardware_concurrency());
    std::vector<std::size_t> threadCounts{1};
    if (hw > 1)
        threadCounts.push_back(hw);

    std::vector<std::size_t> batches{1, 16, 128};
    if (onlyBatch != 0)
        batches = {onlyBatch};

    // Scalar first, then the widest SIMD table the host supports (the
    // variants coincide when there is none — or when
    // A3_FORCE_SCALAR_KERNELS is set — and the sweep has one column).
    std::vector<const Kernels *> variants{&scalarKernels()};
    const Kernels &best = selectKernels();
    if (best.isa != KernelIsa::Scalar)
        variants.push_back(&best);

    std::vector<SweepRow> rows;
    for (const Kernels *variant : variants) {
        setActiveKernels(*variant);
        for (const BackendEntry &entry : backends) {
            for (std::size_t threads : threadCounts) {
                const AttentionEngine engine(threads);
                for (std::size_t batch : batches) {
                    std::vector<AttentionRequestGroup> group(1);
                    group[0].backend = entry.backend;
                    group[0].queries.assign(
                        pool.begin(),
                        pool.begin() + static_cast<long>(batch));
                    rows.push_back(measure(engine, group,
                                           entry.kvFormat, repeats));
                }
            }
        }
    }
    setActiveKernels(selectKernels());

    // Fill in speedup_vs_scalar on the SIMD rows from the matching
    // scalar row (same backend/layout/threads/batch), and the
    // packed-vs-word32 ratios on the int8/int4 rows from the word32
    // foil measured with the same kernels/threads/batch.
    for (SweepRow &row : rows) {
        if (row.kernels != "scalar") {
            for (const SweepRow &base : rows) {
                if (base.kernels == "scalar" &&
                    base.backend == row.backend &&
                    base.kvFormat == row.kvFormat &&
                    base.threads == row.threads &&
                    base.batch == row.batch &&
                    base.queriesPerSecond > 0.0) {
                    row.speedupVsScalar =
                        row.queriesPerSecond / base.queriesPerSecond;
                    break;
                }
            }
        }
        if (row.kvFormat != "int8" && row.kvFormat != "int4")
            continue;
        for (const SweepRow &base : rows) {
            if (base.kvFormat == "word32" &&
                base.kernels == row.kernels &&
                base.threads == row.threads &&
                base.batch == row.batch &&
                base.queriesPerSecond > 0.0) {
                row.speedupVsWord32 =
                    row.queriesPerSecond / base.queriesPerSecond;
                row.bytesRatioVsWord32 =
                    static_cast<double>(row.bytesPerQuery) /
                    static_cast<double>(base.bytesPerQuery);
                break;
            }
        }
    }

    std::printf("[\n");
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const SweepRow &r = rows[i];
        std::printf("  {\"backend\": \"%s\", \"kv_format\": \"%s\", "
                    "\"kernels\": \"%s\", "
                    "\"batch\": %zu, \"threads\": %zu, "
                    "\"queries_per_second\": %.1f, "
                    "\"mean_batch_seconds\": %.3e, "
                    "\"stddev_batch_seconds\": %.3e, "
                    "\"repeats\": %zu, "
                    "\"speedup_vs_scalar\": %.2f, "
                    "\"bytes_per_query\": %zu, "
                    "\"qps_per_gb\": %.1f, "
                    "\"speedup_vs_word32\": %.2f, "
                    "\"bytes_ratio_vs_word32\": %.6f}%s\n",
                    r.backend.c_str(), r.kvFormat.c_str(),
                    r.kernels.c_str(), r.batch, r.threads,
                    r.queriesPerSecond, r.meanBatchSeconds,
                    r.stddevBatchSeconds, r.repeats, r.speedupVsScalar,
                    r.bytesPerQuery, r.qpsPerGb, r.speedupVsWord32,
                    r.bytesRatioVsWord32,
                    i + 1 < rows.size() ? "," : "");
    }
    std::printf("]\n");

    if (!csvPath.empty()) {
        CsvWriter csv(csvPath);
        csv.writeRow({"backend", "kv_format", "kernels", "batch",
                      "threads", "queries_per_second",
                      "mean_batch_seconds", "stddev_batch_seconds",
                      "repeats", "speedup_vs_scalar", "bytes_per_query",
                      "qps_per_gb", "speedup_vs_word32",
                      "bytes_ratio_vs_word32"});
        for (const SweepRow &r : rows) {
            csv.writeRow({r.backend, r.kvFormat, r.kernels,
                          std::to_string(r.batch),
                          std::to_string(r.threads),
                          std::to_string(r.queriesPerSecond),
                          std::to_string(r.meanBatchSeconds),
                          std::to_string(r.stddevBatchSeconds),
                          std::to_string(r.repeats),
                          std::to_string(r.speedupVsScalar),
                          std::to_string(r.bytesPerQuery),
                          std::to_string(r.qpsPerGb),
                          std::to_string(r.speedupVsWord32),
                          std::to_string(r.bytesRatioVsWord32)});
        }
    }
    return 0;
}
