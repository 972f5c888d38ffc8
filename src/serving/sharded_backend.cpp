#include "serving/sharded_backend.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "kernels/kernels.hpp"
#include "serving/partial_merge.hpp"
#include "util/logging.hpp"

namespace a3 {

ShardedBackend::ShardedBackend(const EngineConfig &inner, Matrix key,
                               Matrix value, ShardedConfig config)
    : inner_(inner), config_(config)
{
    a3Assert(config_.shardRows > 0, "shardRows must be positive");
    a3Assert(key.rows() == value.rows() && key.cols() == value.cols(),
             "key/value shape mismatch");
    a3Assert(key.rows() > 0 && key.cols() > 0,
             "attention task must be non-empty");
    dims_ = key.cols();

    // One prefix-aligned partition for both store modes (and for
    // RemoteShardCoordinator): shard boundaries are multiples of
    // shardRows, so two sessions extending the same document prefix
    // slice it into byte-identical full shards — the precondition
    // for content-addressed sharing. Store-backed, full shards
    // resolve through the store and the remainder becomes the
    // private mutable tail; store-less, every shard is a private
    // handle (no hashing, never frozen).
    const std::vector<std::size_t> sizes =
        prefixShardSizes(key.rows(), config_.shardRows);
    shards_.reserve(sizes.size());
    offsets_.reserve(sizes.size());
    std::size_t offset = 0;
    for (const std::size_t take : sizes) {
        if (config_.store == nullptr) {
            shards_.push_back(ShardHandle::bindPrivate(
                inner_, key, value, offset, take));
        } else if (take == config_.shardRows) {
            ShardSource source = ShardSource::ColdBound;
            shards_.push_back(config_.store->acquire(
                inner_, key, value, offset, take, &source));
            if (source == ShardSource::LiveShared)
                ++bindShared_;
            else if (source == ShardSource::SpillRestored)
                ++bindRestored_;
        } else {
            shards_.push_back(ShardHandle::bindTail(
                inner_, key, value, offset, take));
        }
        offsets_.push_back(offset);
        offset += take;
    }
}

std::string
ShardedBackend::name() const
{
    return "sharded(" + shards_.front()->backend().name() + ")";
}

std::size_t
ShardedBackend::rows() const
{
    return offsets_.back() + shards_.back()->rows();
}

std::size_t
ShardedBackend::memoryBytes() const
{
    std::size_t total = 0;
    for (const auto &shard : shards_)
        total += shard->bytes();
    return total;
}

const AttentionBackend &
ShardedBackend::shard(std::size_t s) const
{
    a3Assert(s < shards_.size(), "shard index ", s, " out of ",
             shards_.size());
    return shards_[s]->backend();
}

const std::shared_ptr<ShardHandle> &
ShardedBackend::shardHandle(std::size_t s) const
{
    a3Assert(s < shards_.size(), "shard index ", s, " out of ",
             shards_.size());
    return shards_[s];
}

std::size_t
ShardedBackend::shardOffset(std::size_t s) const
{
    a3Assert(s < offsets_.size(), "shard index ", s, " out of ",
             offsets_.size());
    return offsets_[s];
}

std::size_t
ShardedBackend::workUnitCount() const
{
    // A single shard stays a single unit so the engine routes the
    // query through the wrapped backend's exact runInto() path.
    return shards_.size();
}

void
ShardedBackend::runUnitPartialInto(std::size_t unit,
                                   const Vector &query,
                                   PartialResult &out,
                                   ResultDetail detail) const
{
    a3Assert(unit < shards_.size(), "work unit ", unit, " out of ",
             shards_.size());
    shards_[unit]->backend().runPartialInto(query, out, detail);
}

void
ShardedBackend::mergeUnitsInto(
    const std::vector<PartialResult> &partials,
    AttentionResult &out) const
{
    a3Assert(partials.size() == shards_.size(),
             "expected one partial per shard");
    if (shards_.size() == 1) {
        finalizePartialInto(partials.front(), out);
        return;
    }
    // The shared fixed-order log-sum-exp combine — the same code
    // RemoteShardCoordinator merges worker partials through, which
    // is what keeps remote results bit-identical to local ones.
    thread_local PartialResult merged;
    mergeShardPartials(partials, offsets_, rows(), dims_, merged);
    finalizePartialInto(merged, out);
}

void
ShardedBackend::runInto(const Vector &query, AttentionResult &out,
                        ResultDetail detail) const
{
    // Degenerate single shard: the wrapped backend IS the task, so
    // delegating keeps every kind — including the quantized paths,
    // whose partial roundtrip is not bit-tight — bit-identical to an
    // unsharded backend.
    if (shards_.size() == 1) {
        shards_.front()->backend().runInto(query, out, detail);
        return;
    }
    thread_local PartialResult merged;
    runPartialInto(query, merged, detail);
    finalizePartialInto(merged, out);
}

void
ShardedBackend::runPartialInto(const Vector &query, PartialResult &out,
                               ResultDetail detail) const
{
    if (shards_.size() == 1) {
        shards_.front()->backend().runPartialInto(query, out, detail);
        return;
    }
    // Per-thread partial slots keep the steady-state query path
    // allocation-free (each slot's buffers regrow only when the task
    // shape grows), while staying thread-compatible across
    // concurrent queries: every calling thread owns its own slots.
    // Shards are never themselves sharded (makeBackend produces
    // only the four plain kinds), so the buffer cannot be
    // re-entered.
    thread_local std::vector<PartialResult> partials;
    partials.resize(shards_.size());
    for (std::size_t s = 0; s < shards_.size(); ++s)
        shards_[s]->backend().runPartialInto(query, partials[s],
                                             detail);
    mergeShardPartials(partials, offsets_, rows(), dims_, out);
}

void
ShardedBackend::queryDeadlineHint(double remainingSeconds) const
{
    for (const auto &shard : shards_)
        shard->backend().queryDeadlineHint(remainingSeconds);
}

void
ShardedBackend::freezeTail()
{
    std::shared_ptr<ShardHandle> &tail = shards_.back();
    tail->freeze();
    // The store may hand back another session's identical shard; the
    // swap releases ours and the sessions converge on one copy.
    tail = config_.store->adoptFrozen(std::move(tail));
}

void
ShardedBackend::append(const Matrix &keyRows, const Matrix &valueRows)
{
    a3Assert(keyRows.rows() == valueRows.rows() &&
                 keyRows.cols() == valueRows.cols(),
             "appended key/value shape mismatch");
    a3Assert(keyRows.cols() == dims_,
             "appended rows must match the task dimension");

    const bool storeBacked = config_.store != nullptr;
    const std::size_t total = keyRows.rows();
    std::size_t consumed = 0;
    while (consumed < total) {
        ShardHandle &last = *shards_.back();
        const std::size_t lastRows = last.rows();
        if (lastRows < config_.shardRows && !last.frozen()) {
            // Fill the mutable tail to capacity first.
            const std::size_t take = std::min(
                config_.shardRows - lastRows, total - consumed);
            last.appendRows(keyRows.rowSlice(consumed, take),
                            valueRows.rowSlice(consumed, take));
            consumed += take;
            if (storeBacked && last.rows() == config_.shardRows)
                freezeTail();
        } else {
            // Open a new tail for the overflow. Store-less mode
            // never freezes, so a full private tail just stays full.
            const std::size_t take =
                std::min(config_.shardRows, total - consumed);
            offsets_.push_back(offsets_.back() +
                               shards_.back()->rows());
            shards_.push_back(
                storeBacked
                    ? ShardHandle::bindTail(inner_, keyRows,
                                            valueRows, consumed, take)
                    : ShardHandle::bindPrivate(inner_, keyRows,
                                               valueRows, consumed,
                                               take));
            consumed += take;
            if (storeBacked && take == config_.shardRows)
                freezeTail();
        }
    }
}

std::unique_ptr<AttentionBackend>
makeShardedBackend(const EngineConfig &inner, Matrix key, Matrix value,
                   ShardedConfig config)
{
    return std::make_unique<ShardedBackend>(
        inner, std::move(key), std::move(value), config);
}

}  // namespace a3
