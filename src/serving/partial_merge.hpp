/**
 * @file
 * Shared shard layout and partial-merge helpers.
 *
 * The fixed-order log-sum-exp combine of per-shard partials (each a
 * normalized answer plus its log-sum-exp terms, see PartialResult)
 * is the determinism anchor of every sharded execution mode:
 * ShardedBackend's in-process fan-out, and RemoteShardCoordinator's
 * fan-out over worker processes, both merge through this one
 * function — which is what makes remote results bit-identical to
 * local ones, and S = 1 results bit-identical to unsharded ones,
 * including
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
 * order, into one result over global row ids. partials[s] covers
 * the rows starting at offsets[s]; `totalRows` and `dims` size the
 * output buffers. With M = max_s m_s and c_s = exp(m_s - M), shard s
 * contributes with the share c_s Z_s / sum_t c_t Z_t: its output
 * and weights are scaled by that share, its scores, candidates and
 * kept rows carry over at their global ids, and iterations add up.
 * The merge order is fixed regardless of how (or where) the
 * partials were computed — the exact-match determinism contract.
 *
 * The first shard is written by a scaled copy, not an axpy onto
 * zeros, so a single partial (share exactly 1) merges to itself bit
 * for bit, signed zeros included: S = 1 sharded is the unsharded
 * answer for every kind.
 *
 * The merge follows what the partials carry. Full partials are
 * scattered into length-totalRows arrays; lean (Output-detail)
 * partials — empty weights — yield a lean result. The partials must
 * agree on their detail. output and iterations are bit-identical
 * either way.
 *
 * Returns the merged softmax's terms {M, sum_s c_s Z_s} — what a
 * sharded or remote backend's runInto() reports.
 */
SoftmaxTerms
mergeShardPartials(const std::vector<PartialResult> &partials,
                   const std::vector<std::size_t> &offsets,
                   std::size_t totalRows, std::size_t dims,
                   AttentionResult &out);

}  // namespace a3

#endif  // A3_SERVING_PARTIAL_MERGE_HPP
