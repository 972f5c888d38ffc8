/**
 * @file
 * Batched, multi-threaded attention execution.
 *
 * The paper's accelerator wins by exploiting the independence between
 * queries: BERT answers n token queries against one shared key matrix,
 * multi-head attention runs h independent heads, and a deployed QA
 * service streams questions against one loaded story. AttentionEngine
 * is the software substrate for that parallelism: it takes batches of
 * queries (and multi-head / multi-sequence request groups) against
 * preprocessed AttentionBackend tasks and fans them out over a
 * reusable ThreadPool.
 *
 * Guarantees:
 *  - results come back in request order regardless of thread count;
 *  - batched outputs are bit-identical to sequential per-query run()
 *    calls (each query executes exactly the sequential code path and
 *    writes only its own slot);
 *  - the sorted-key / datapath preprocessing of a backend is performed
 *    once per key/value pair and shared by every query in the batch.
 */

#ifndef A3_ENGINE_ENGINE_HPP
#define A3_ENGINE_ENGINE_HPP

#include <cstddef>
#include <functional>
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

/**
 * Per-group completion callback of runGroupsInto(): invoked exactly
 * once per non-empty group, by whichever pool lane finishes the
 * group's last query, with the group's index and its service time in
 * seconds measured from the start of the batch pass. Callbacks for
 * different groups may run concurrently, so the hook must be
 * thread-safe across groups (within one group it is never invoked
 * twice). Groups with no queries are not reported.
 */
using GroupCompletionHook =
    std::function<void(std::size_t group, double seconds)>;

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
     * Answer a batch of queries against one backend. result[i] is
     * bit-identical to backend.run(queries[i]).
     */
    std::vector<AttentionResult>
    run(const AttentionBackend &backend,
        const std::vector<Vector> &queries) const;

    /**
     * Allocation-free batch variant: answers into `results`, resizing
     * it to queries.size() and reusing every slot's buffers. A serving
     * loop that keeps one results vector performs zero steady-state
     * heap allocations once the batch size and task shape have been
     * seen (each lane's transients live in its thread-local Scratch).
     */
    void runInto(const AttentionBackend &backend,
                 const std::vector<Vector> &queries,
                 std::vector<AttentionResult> &results) const;

    /**
     * Answer several request groups (multi-head or multi-sequence)
     * into `results`, resizing it to groups.size() and reusing every
     * slot's buffers — the steady-state path of the serving
     * BatchScheduler, which keeps one results vector across drains.
     * Every (group, query) pair is decomposed into its backend's
     * work units (AttentionBackend::workUnitCount() — one per shard
     * for a sharded backend, one total for a plain one) and all the
     * units are flattened into one work list, so small groups cannot
     * strand lanes and shard partials from many queries share the
     * same lanes with no nested pool. The list interleaves the
     * groups round-robin — query q of every group before query q+1
     * of any — so one huge group cannot monopolize the first lanes
     * and small groups complete early (the batch-formation order the
     * serving tier's fairness rides on). Single-unit queries execute
     * the sequential runInto() path and multi-unit queries merge
     * their partials serially in fixed unit order, so results[g][i]
     * is bit-identical to groups[g].backend->runInto(
     * groups[g].queries[i], out, groups[g].detail) regardless of
     * the interleave.
     *
     * An optional `onGroupDone` fires as each group's last query
     * completes (see GroupCompletionHook for the threading
     * contract); the BatchScheduler feeds its latency reservoirs
     * through it. The results are unchanged by its presence.
     */
    void runGroupsInto(
        const std::vector<AttentionRequestGroup> &groups,
        std::vector<std::vector<AttentionResult>> &results,
        const GroupCompletionHook &onGroupDone = {}) const;

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
     * engine through.
     */
    static AttentionEngine &shared();

  private:
    ThreadPool pool_;
};

}  // namespace a3

#endif  // A3_ENGINE_ENGINE_HPP
