/**
 * @file
 * Sharded-attention scaling sweep, emitted as one JSON object:
 *
 *  - "rows_per_shard_sweep": fixed total rows, sweeping the shard
 *    capacity (so the shard count falls as capacity grows), with
 *    serial and engine-flattened fan-out queries/sec (the engine
 *    decomposes each query into per-shard work units and runs the
 *    whole batch on one work list), the parallel-vs-serial speedup,
 *    and the max absolute output difference against the unsharded
 *    reference backend (the ULP-bound evidence).
 *  - "shard_count_sweep": fixed total rows, sweeping the shard count
 *    directly (capacity = ceil(rows / shards)), same columns — the
 *    per-shard scaling figure for huge contexts.
 *
 * Usage: sharded_scaling [out.csv] [--repeats R] [--rows N]
 *   --rows N sets the total context rows (default 16384; CI smoke
 *   runs pass something smaller).
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "attention/backend.hpp"
#include "bench_common.hpp"
#include "engine/engine.hpp"
#include "serving/sharded_backend.hpp"
#include "tensor/matrix.hpp"
#include "util/csv.hpp"
#include "util/logging.hpp"
#include "util/random.hpp"
#include "util/stats.hpp"

namespace {

using namespace a3;

double
now()
{
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(
               clock::now().time_since_epoch())
        .count();
}

Matrix
randomMatrix(Rng &rng, std::size_t n, std::size_t d)
{
    Matrix m(n, d);
    for (std::size_t r = 0; r < n; ++r)
        for (std::size_t c = 0; c < d; ++c)
            m(r, c) = static_cast<float>(rng.normal());
    return m;
}

struct ShardedRow
{
    std::size_t rows = 0;
    std::size_t dims = 0;
    std::size_t shardRows = 0;
    std::size_t shards = 0;
    double serialQps = 0.0;
    double parallelQps = 0.0;
    /** parallel / serial: what the engine's flattened (query,
     *  shard) work list buys over one-thread fan-out. */
    double speedupParallelVsSerial = 0.0;
    /** max |sharded - unsharded| over the probe outputs. */
    double maxAbsDiffVsUnsharded = 0.0;
    std::size_t repeats = 0;
};

double
measureQps(const AttentionBackend &backend,
           const std::vector<Vector> &queries, std::size_t repeats)
{
    AttentionResult out;
    backend.runInto(queries.front(), out);  // warm-up
    RunningStat seconds;
    for (std::size_t r = 0; r < repeats; ++r) {
        const double start = now();
        for (const Vector &q : queries)
            backend.runInto(q, out);
        seconds.add(now() - start);
    }
    return static_cast<double>(queries.size()) / seconds.min();
}

/**
 * Engine-flattened throughput: the batch is decomposed into (query,
 * shard) work units and fanned out over the engine's lanes — the
 * serving tier's execution shape.
 */
double
measureEngineQps(const AttentionEngine &engine,
                 const AttentionBackend &backend,
                 const std::vector<Vector> &queries,
                 std::size_t repeats)
{
    // The group is built once, outside the timed loop.
    std::vector<AttentionRequestGroup> groups(1);
    groups[0].backend = &backend;
    groups[0].queries = queries;
    std::vector<std::vector<AttentionResult>> out;
    engine.runGroupsInto(groups, out);  // warm-up
    RunningStat seconds;
    for (std::size_t r = 0; r < repeats; ++r) {
        const double start = now();
        engine.runGroupsInto(groups, out);
        seconds.add(now() - start);
    }
    return static_cast<double>(queries.size()) / seconds.min();
}

ShardedRow
measureSharding(const Matrix &key, const Matrix &value,
                std::size_t shardRows, const AttentionEngine &engine,
                const AttentionBackend &unsharded,
                const std::vector<Vector> &queries,
                std::size_t repeats)
{
    EngineConfig config;
    config.kind = EngineKind::ExactFloat;

    ShardedConfig serialConfig;
    serialConfig.shardRows = shardRows;
    const ShardedBackend serial(config, key, value, serialConfig);

    ShardedRow row;
    row.rows = key.rows();
    row.dims = key.cols();
    row.shardRows = shardRows;
    row.shards = serial.shardCount();
    row.serialQps = measureQps(serial, queries, repeats);
    row.parallelQps =
        measureEngineQps(engine, serial, queries, repeats);
    row.speedupParallelVsSerial =
        row.serialQps > 0.0 ? row.parallelQps / row.serialQps : 0.0;
    row.repeats = repeats;

    AttentionResult sharded;
    AttentionResult plain;
    for (const Vector &q : queries) {
        serial.runInto(q, sharded);
        unsharded.runInto(q, plain);
        row.maxAbsDiffVsUnsharded = std::max(
            row.maxAbsDiffVsUnsharded,
            static_cast<double>(maxAbsDiff(sharded.output,
                                           plain.output)));
    }
    return row;
}

void
printRows(const char *label, const std::vector<ShardedRow> &rows,
          bool last)
{
    std::printf("  \"%s\": [\n", label);
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const ShardedRow &r = rows[i];
        std::printf("    {\"rows\": %zu, \"dims\": %zu, "
                    "\"shard_rows\": %zu, \"shards\": %zu, "
                    "\"serial_qps\": %.1f, \"parallel_qps\": %.1f, "
                    "\"speedup_parallel_vs_serial\": %.2f, "
                    "\"max_abs_diff_vs_unsharded\": %.3e, "
                    "\"repeats\": %zu}%s\n",
                    r.rows, r.dims, r.shardRows, r.shards,
                    r.serialQps, r.parallelQps,
                    r.speedupParallelVsSerial,
                    r.maxAbsDiffVsUnsharded, r.repeats,
                    i + 1 < rows.size() ? "," : "");
    }
    std::printf("  ]%s\n", last ? "" : ",");
}

}  // namespace

int
main(int argc, char **argv)
{
    std::string csvPath;
    std::size_t repeats = 20;
    std::size_t totalRows = 16384;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--repeats") == 0) {
            if (i + 1 >= argc)
                fatal("--repeats needs a value");
            const long parsed = std::atol(argv[++i]);
            if (parsed <= 0)
                fatal("--repeats must be a positive integer, got \"",
                      argv[i], "\"");
            repeats = static_cast<std::size_t>(parsed);
        } else if (std::strcmp(argv[i], "--rows") == 0) {
            if (i + 1 >= argc)
                fatal("--rows needs a value");
            const long parsed = std::atol(argv[++i]);
            if (parsed < 64)
                fatal("--rows must be at least 64, got \"", argv[i],
                      "\"");
            totalRows = static_cast<std::size_t>(parsed);
        } else {
            csvPath = argv[i];
        }
    }

    const std::size_t d = 64;
    Rng rng(bench::benchSeed);
    const Matrix key = randomMatrix(rng, totalRows, d);
    const Matrix value = randomMatrix(rng, totalRows, d);
    const ReferenceAttention unsharded(key, value);

    const std::size_t lanes = std::max<std::size_t>(
        2, std::thread::hardware_concurrency());
    AttentionEngine engine(lanes);

    std::vector<Vector> queries(8);
    for (auto &q : queries) {
        q.resize(d);
        for (auto &x : q)
            x = static_cast<float>(rng.normal());
    }

    // --- Rows-per-shard sweep: capacity halves, shard count doubles.
    std::vector<ShardedRow> capacityRows;
    for (std::size_t shardRows = totalRows; shardRows >= totalRows / 16;
         shardRows /= 4) {
        capacityRows.push_back(measureSharding(key, value, shardRows,
                                               engine, unsharded,
                                               queries, repeats));
    }

    // --- Shard-count sweep: S shards of ceil(rows / S) capacity.
    std::vector<ShardedRow> countRows;
    for (const std::size_t shards :
         {std::size_t{1}, std::size_t{2}, std::size_t{4},
          std::size_t{8}, std::size_t{16}}) {
        const std::size_t shardRows =
            (totalRows + shards - 1) / shards;
        countRows.push_back(measureSharding(key, value, shardRows,
                                            engine, unsharded,
                                            queries, repeats));
    }

    std::printf("{\n");
    printRows("rows_per_shard_sweep", capacityRows, false);
    printRows("shard_count_sweep", countRows, true);
    std::printf("}\n");

    if (!csvPath.empty()) {
        CsvWriter csv(csvPath);
        csv.writeRow({"sweep", "rows", "shard_rows", "shards",
                      "serial_qps", "parallel_qps",
                      "speedup_parallel_vs_serial",
                      "max_abs_diff_vs_unsharded"});
        const auto dump = [&csv](const char *sweep,
                                 const std::vector<ShardedRow> &rows) {
            for (const ShardedRow &r : rows) {
                csv.writeRow({sweep, std::to_string(r.rows),
                              std::to_string(r.shardRows),
                              std::to_string(r.shards),
                              std::to_string(r.serialQps),
                              std::to_string(r.parallelQps),
                              std::to_string(
                                  r.speedupParallelVsSerial),
                              std::to_string(
                                  r.maxAbsDiffVsUnsharded)});
            }
        };
        dump("rows_per_shard_sweep", capacityRows);
        dump("shard_count_sweep", countRows);
    }
    return 0;
}
