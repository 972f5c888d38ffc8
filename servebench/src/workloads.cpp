#include "workloads.hpp"

namespace servebench {

namespace {

constexpr std::size_t kMiB = std::size_t{1} << 20;

std::vector<WorkloadSpec>
buildWorkloads()
{
    std::vector<WorkloadSpec> specs;

    // rag_long: the paper's full approximate flow. Many sessions bind
    // Zipf-popular 12,288-row documents (3 store-backed shards of
    // 4,096 rows, one per engine lane) from a small shared catalog
    // and query them many times; the budget holds the hot documents,
    // so opens are live-shared binds plus some spill restores. Puts
    // per-query compute, engine fan-out and merge under load.
    {
        WorkloadSpec w;
        w.name = "rag_long";
        w.engine.kind = a3::EngineKind::ApproxQuantized;
        w.engine.approx = a3::ApproxConfig{};
        w.engine.intBits = 4;
        w.engine.fracBits = 4;
        w.dims = 64;
        w.shardRows = 4096;
        w.engineLanes = 3;
        w.traffic.arrivalsPerSecond = 30.0;
        w.traffic.sessionCount = 48;
        w.traffic.zipfExponent = 1.1;
        w.traffic.documentCount = 7;
        w.traffic.documentZipfExponent = 1.1;
        w.traffic.ragFraction = 1.0;
        w.traffic.contextRows = {{12288, 1.0}};
        w.cacheBudgetBytes = 110 * kMiB;
        w.sloMs = 60.0;
        w.saturatedWindow = 12;
        specs.push_back(w);
    }

    // chat_churn: private approx-float sessions that append heavily.
    // Contexts start at 3k-4k rows and every turn appends 128 rows
    // before its query, up to a cap; the budget is below the working
    // set, so eviction and spill-restore re-binds run all the time.
    // Puts the write path (incremental sorted-key merge, tail freeze,
    // spill write and restore) beside reads; no fixed-point datapath
    // and no cross-session sharing. A query alone is well under a
    // millisecond of work; a turn (append, then query) is not, which
    // keeps every end-to-end timing of this workload at millisecond
    // scale. Popularity is flat enough (Zipf 0.4 over 48 sessions)
    // that most turns still append when the hottest sessions have
    // reached the cap.
    {
        WorkloadSpec w;
        w.name = "chat_churn";
        w.engine.kind = a3::EngineKind::ApproxFloat;
        w.engine.approx = a3::ApproxConfig{};
        w.dims = 64;
        w.shardRows = 4096;
        w.engineLanes = 3;
        w.traffic.arrivalsPerSecond = 30.0;
        w.traffic.sessionCount = 48;
        w.traffic.zipfExponent = 0.4;
        w.traffic.documentCount = 0;
        w.traffic.contextRows = {{3072, 1.0}, {3584, 1.0}, {4000, 1.0}};
        w.traffic.appendEveryQueries = 1;
        w.traffic.appendRows = 128;
        w.traffic.maxContextRows = 12288;
        w.cacheBudgetBytes = 256 * kMiB;
        w.prebindPrivateSessions = 32;
        w.sloMs = 30.0;
        w.saturatedWindow = 16;
        specs.push_back(w);
    }

    // remote_sharded: one 32,768-row exact document served by 2
    // shard_worker processes over AF_UNIX sockets (4 shards of 8,192
    // rows). Per-shard compute is small, so time goes to frame
    // encode/decode, socket round trips, the coordinator mutex and
    // the merge; no store, append or datapath work.
    {
        WorkloadSpec w;
        w.name = "remote_sharded";
        w.engine.kind = a3::EngineKind::ExactFloat;
        w.dims = 64;
        w.shardRows = 8192;
        w.engineLanes = 1;
        w.remoteWorkers = 2;
        w.traffic.arrivalsPerSecond = 120.0;
        w.traffic.sessionCount = 16;
        w.traffic.zipfExponent = 1.1;
        w.traffic.documentCount = 1;
        w.traffic.ragFraction = 1.0;
        w.traffic.contextRows = {{32768, 1.0}};
        // The coordinator retains its 16 MiB task copy and every
        // session charges it: twelve of the sixteen sessions stay
        // bound, so the coldest are re-opened now and then.
        w.cacheBudgetBytes = 200 * kMiB;
        w.sloMs = 30.0;
        w.saturatedWindow = 8;
        specs.push_back(w);
    }

    for (WorkloadSpec &w : specs) {
        w.traffic.arrivals = a3::ArrivalProcess::Poisson;
        // Deadlines are the benchmark's own latency limit, not the
        // trace's.
        w.traffic.tightDeadlineSeconds = 0.0;
        w.traffic.looseDeadlineSeconds = 0.0;
    }
    return specs;
}

const std::vector<WorkloadSpec> &
workloads()
{
    static const std::vector<WorkloadSpec> specs = buildWorkloads();
    return specs;
}

}  // namespace

const WorkloadSpec *
findWorkload(const std::string &name)
{
    for (const WorkloadSpec &w : workloads())
        if (w.name == name)
            return &w;
    return nullptr;
}

std::vector<std::string>
workloadNames()
{
    std::vector<std::string> names;
    for (const WorkloadSpec &w : workloads())
        names.push_back(w.name);
    return names;
}

}  // namespace servebench
