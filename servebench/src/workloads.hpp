/**
 * @file
 * The benchmark's named workloads: each is a fixed serving
 * configuration plus a traffic shape for generateTrace(). Every
 * constant here (nominal rate, latency limit, window, budget) was
 * chosen once and is never derived from a run of the code under
 * test, so two commits are measured against the same load.
 */

#ifndef SERVEBENCH_WORKLOADS_HPP
#define SERVEBENCH_WORKLOADS_HPP

#include <cstddef>
#include <string>
#include <vector>

#include "attention/backend.hpp"
#include "trace/generator.hpp"

namespace servebench {

struct WorkloadSpec
{
    std::string name;

    /** Backend kind and knobs of every session bind. */
    a3::EngineConfig engine;

    std::size_t dims = 64;

    /** Shard capacity of session binds (and of remote shards). */
    std::size_t shardRows = 4096;

    /** AttentionEngine lanes, the serving thread included. */
    std::size_t engineLanes = 3;

    /** shard_worker processes; 0 serves in-process through a
     *  store-backed ShardedBackend per session. */
    std::size_t remoteWorkers = 0;

    /** Traffic shape; arrivalsPerSecond is the open loop's nominal
     *  rate and the seed is set per run. */
    a3::TraceConfig traffic;

    /** SessionCache charged-byte budget. */
    std::size_t cacheBudgetBytes = 0;

    /** Set-up binds every catalog document (rag sessions) plus this
     *  many of the first private sessions of the trace. */
    std::size_t prebindPrivateSessions = 0;

    /** Latency limit of slo_attainment, due time to answer. */
    double sloMs = 0.0;

    /** Outstanding requests of the saturated closed loop. */
    std::size_t saturatedWindow = 0;
};

/** The workload called `name`, or nullptr. */
const WorkloadSpec *findWorkload(const std::string &name);

/** Names of every workload, in definition order. */
std::vector<std::string> workloadNames();

}  // namespace servebench

#endif  // SERVEBENCH_WORKLOADS_HPP
