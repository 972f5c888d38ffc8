/**
 * @file
 * Shared shard layout and partial-merge helpers.
 *
 * The fixed-order log-sum-exp combine of per-shard softmax partials
 * (see PartialResult for the decomposition) is the determinism
 * anchor of every sharded execution mode: ShardedBackend's
 * in-process fan-out, and RemoteShardCoordinator's fan-out over
 * worker processes, both merge through this one function — which is
 * what makes remote results bit-identical to local ones, including
 * runs where a worker died mid-query and a replica or local rebind
 * supplied the partial (the merge only sees *which* partials, never
 * *where* they were computed).
 *
 * prefixShardSizes() is the matching layout half: both backends
 * must slice rows identically or the per-shard partials would
 * differ before the merge even runs.
 */

#ifndef A3_SERVING_PARTIAL_MERGE_HPP
#define A3_SERVING_PARTIAL_MERGE_HPP

#include <cstddef>
#include <vector>

#include "attention/types.hpp"

namespace a3 {

/**
 * Row counts of the ceil(n / shardRows) row-contiguous shards a
 * fresh bind partitions `n` rows into: floor(n / shardRows) full
 * shards of shardRows rows, then the n % shardRows remainder as a
 * tail when it is non-zero. Boundaries fall at multiples of
 * shardRows, so a shard's rows depend only on its absolute position,
 * never on n. This is the one layout ShardedBackend (in both store
 * modes) and RemoteShardCoordinator share.
 */
std::vector<std::size_t> prefixShardSizes(std::size_t n,
                                          std::size_t shardRows);

/**
 * Log-sum-exp combine of per-shard partials, serially in shard
 * order, into one partial over global row ids. partials[s] covers
 * the rows starting at offsets[s]; its local row count is its
 * expWeights length. `totalRows` and `dims` size the output
 * buffers. The merge order is fixed regardless of how (or where)
 * the partials were computed — the exact-match determinism
 * contract.
 *
 * The merge follows what the partials carry. Full partials are
 * scattered into length-totalRows arrays; lean (Output-detail)
 * partials — empty expWeights — merge by an axpy on accum alone and
 * yield a lean partial. The partials must agree on their detail.
 * accum, maxScore, expSum and iterations are bit-identical either
 * way.
 */
void mergeShardPartials(const std::vector<PartialResult> &partials,
                        const std::vector<std::size_t> &offsets,
                        std::size_t totalRows, std::size_t dims,
                        PartialResult &out);

}  // namespace a3

#endif  // A3_SERVING_PARTIAL_MERGE_HPP
