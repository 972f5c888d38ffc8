/**
 * @file
 * Batched, multi-threaded attention execution.
 *
 * The paper's accelerator wins by exploiting the independence between
 * queries: BERT answers n token queries against one shared key matrix,
 * multi-head attention runs h independent heads, and a deployed QA
 * service streams questions against one loaded story. AttentionEngine
 * is the software substrate for that parallelism: it takes request
 * groups — batches of queries, one per sequence, head or session,
 * against preprocessed AttentionBackend tasks — and fans them out
 * over a reusable ThreadPool.
 *
 * Guarantees:
 *  - runGroupsInto() is the one batch path: every batch — a single
 *    backend's queries, many sessions' groups, a sharded session's
 *    (query, shard) units — runs through it;
 *  - results come back in request order regardless of thread count;
 *  - batched outputs are bit-identical to sequential per-query
 *    backend runInto() calls (each query executes exactly the
 *    sequential code path and writes only its own slot);
 *  - the sorted-key / datapath preprocessing of a backend is performed
 *    once per key/value pair and shared by every query in the batch;
 *  - a steady-state pass allocates nothing once the batch and task
 *    shapes have been seen.
 */

#ifndef A3_ENGINE_ENGINE_HPP
#define A3_ENGINE_ENGINE_HPP

#include <cstddef>
#include <vector>

#include "attention/backend.hpp"
#include "attention/multi_hop.hpp"
#include "attention/self_attention.hpp"
#include "engine/thread_pool.hpp"

namespace a3 {

/**
 * One batch of queries sharing a preprocessed backend — a sequence, a
 * head, or one episode of a request stream. The backend is borrowed
 * and must outlive the engine call. `detail` is how much of each
 * result the group's callers need (see ResultDetail); at Output the
 * per-query partials of a sharded backend are d-length, not n-length.
 */
struct AttentionRequestGroup
{
    const AttentionBackend *backend = nullptr;
    std::vector<Vector> queries;
    ResultDetail detail = ResultDetail::Full;
};

/** Batched executor over AttentionBackend tasks. */
class AttentionEngine
{
  public:
    /**
     * @param threads total parallel lanes (including the calling
     *        thread); 0 picks std::thread::hardware_concurrency().
     */
    explicit AttentionEngine(std::size_t threads = 0);

    /** Parallel lanes the engine dispatches over. */
    std::size_t threads() const { return pool_.threadCount(); }

    /**
     * Answer several request groups (multi-head, multi-sequence, or
     * one backend's batch as a single group) into `results`, resizing
     * it to groups.size() and reusing every slot's buffers — the
     * engine's one batch path, which the serving BatchScheduler runs
     * once per drain. Every (group, query) pair is decomposed into its
     * backend's work units (AttentionBackend::workUnitCount() — one
     * per shard for a sharded backend, one total for a plain one)
     * and all the units are flattened into one work list, so small
     * groups cannot strand lanes and shard partials from many
     * queries share the same lanes with no nested pool. The list
     * interleaves the groups round-robin — query q of every group
     * before query q+1 of any — so one huge group cannot monopolize
     * the first lanes and small groups complete early (the
     * batch-formation order the serving tier's fairness rides on).
     * Single-unit queries execute the sequential runInto() path and
     * multi-unit queries merge their partials serially in fixed unit
     * order, so results[g][i] is bit-identical to
     * groups[g].backend->runInto(groups[g].queries[i], out,
     * groups[g].detail) regardless of the interleave.
     *
     * Allocation-free in steady state: the work list, the countdowns
     * and the multi-unit partial slots live in per-calling-thread
     * buffers that grow to the largest batch seen and never shrink,
     * and each lane's transients live in its thread-local Scratch. A
     * caller that keeps one `results` vector (and one groups vector)
     * across passes therefore allocates nothing once the batch and
     * task shapes have been seen.
     *
     * Not re-entrant per thread: a thread must not call
     * runGroupsInto() again (on any engine) while one of its own
     * passes is running — from inside a backend — because the pass
     * holds that thread's buffers. Concurrent calls from different
     * threads are fine; the pool serializes them.
     *
     * The engine reads no clock: callers that want a pass's service
     * time measure around the call, as the BatchScheduler does.
     */
    void runGroupsInto(
        const std::vector<AttentionRequestGroup> &groups,
        std::vector<std::vector<AttentionResult>> &results) const;

    /**
     * Batched self-attention: preprocess (key, value) once, then
     * answer one query per row of `queries` in parallel (Section IV-A
     * amortization). Equivalent to — and bit-identical with — the
     * sequential selfAttention() free function.
     */
    SelfAttentionResult selfAttention(const Matrix &key,
                                      const Matrix &value,
                                      const Matrix &queries,
                                      const ApproxConfig &config) const;

    /**
     * Batched multi-hop attention: hops are sequential within one
     * query chain (u^{k+1} = u^k + o^k), chains run in parallel.
     */
    std::vector<MultiHopResult>
    runMultiHop(const MultiHopAttention &attention,
                const std::vector<Vector> &queries) const;

    /** The underlying pool, for consumers with custom loop shapes. */
    const ThreadPool &pool() const { return pool_; }

    /**
     * Process-wide engine sized to the hardware, used by the
     * convenience layers (selfAttention(), MultiHopAttention::
     * runBatch()) so every caller gets batching without plumbing an
     * engine through. Never destroyed, so exiting a forked child
     * does not join threads the fork left behind.
     */
    static AttentionEngine &shared();

  private:
    ThreadPool pool_;
};

}  // namespace a3

#endif  // A3_ENGINE_ENGINE_HPP
