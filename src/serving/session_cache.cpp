#include "serving/session_cache.hpp"

#include <utility>

#include "serving/sharded_backend.hpp"
#include "util/logging.hpp"

namespace a3 {

const char *
bindStatusName(BindStatus status)
{
    switch (status) {
    case BindStatus::AlreadyBound:
        return "already_bound";
    case BindStatus::BoundFresh:
        return "bound_fresh";
    case BindStatus::BoundShared:
        return "bound_shared";
    case BindStatus::BoundRestored:
        return "bound_restored";
    }
    return "unknown";
}

const char *
appendStatusName(AppendStatus status)
{
    switch (status) {
    case AppendStatus::Appended:
        return "appended";
    case AppendStatus::SessionUnbound:
        return "session_unbound";
    }
    return "unknown";
}

SessionCache::SessionCache(SessionCacheConfig config)
    : config_(std::move(config))
{
    a3Assert(config_.store == nullptr || config_.shardRows > 0,
             "a shard store requires shardRows > 0");
}

void
SessionCache::touchLocked(Entry &entry)
{
    lru_.splice(lru_.begin(), lru_, entry.lruPos);
}

void
SessionCache::chargeLocked(Entry &entry)
{
    entry.handles.clear();
    const auto *sharded =
        dynamic_cast<const ShardedBackend *>(entry.backend.get());
    if (sharded == nullptr) {
        entry.bytes = entry.backend->memoryBytes();
        bytesInUse_ += entry.bytes;
        return;
    }
    // Charge each distinct handle once across all bound sessions:
    // only the 0 -> 1 reference pays, so k sessions over one shared
    // frozen shard cost the budget one shard.
    std::size_t charged = 0;
    entry.handles.reserve(sharded->shardCount());
    for (std::size_t s = 0; s < sharded->shardCount(); ++s) {
        const std::shared_ptr<ShardHandle> &handle =
            sharded->shardHandle(s);
        entry.handles.push_back(handle);
        HandleCharge &charge = charges_[handle.get()];
        if (charge.refs++ == 0) {
            charge.bytes = handle->bytes();
            charged += charge.bytes;
        }
    }
    entry.bytes = charged;
    bytesInUse_ += charged;
}

void
SessionCache::releaseLocked(Entry &entry)
{
    if (entry.handles.empty()) {
        // Unsharded entry: its charge is private to the session.
        bytesInUse_ -= entry.bytes;
        entry.bytes = 0;
        return;
    }
    // Sharded entry: a shared handle's charge outlives any one
    // session — bytes leave the budget only on the 1 -> 0 reference
    // edge, mirroring the 0 -> 1 edge that paid them in
    // chargeLocked(). Which session happened to pay first is
    // irrelevant to what the budget releases.
    std::size_t released = 0;
    for (const std::shared_ptr<ShardHandle> &handle : entry.handles) {
        const auto it = charges_.find(handle.get());
        a3Assert(it != charges_.end() && it->second.refs > 0,
                 "handle charge map out of sync");
        if (--it->second.refs == 0) {
            released += it->second.bytes;
            charges_.erase(it);
        }
    }
    bytesInUse_ -= released;
    entry.bytes = 0;
    entry.handles.clear();
}

std::shared_ptr<AttentionBackend>
SessionCache::find(const std::string &session)
{
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = entries_.find(session);
    if (it == entries_.end()) {
        ++stats_.misses;
        return nullptr;
    }
    ++stats_.hits;
    touchLocked(it->second);
    return it->second.backend;
}

SessionHandle
SessionCache::lookupSession(const std::string &session)
{
    std::shared_ptr<AttentionBackend> backend = find(session);
    if (backend == nullptr)
        return SessionHandle();
    return SessionHandle(session, backend);
}

BindOutcome
SessionCache::bindSession(const std::string &session,
                          const EngineConfig &config, Matrix key,
                          Matrix value)
{
    BindOutcome outcome;
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        const auto it = entries_.find(session);
        if (it != entries_.end()) {
            ++stats_.hits;
            touchLocked(it->second);
            outcome.status = BindStatus::AlreadyBound;
            outcome.handle = SessionHandle(session, it->second.backend);
            const auto *sharded = dynamic_cast<const ShardedBackend *>(
                it->second.backend.get());
            outcome.shardCount =
                sharded != nullptr ? sharded->shardCount() : 1;
            outcome.logicalBytes = it->second.backend->memoryBytes();
            outcome.chargedBytes = it->second.bytes;
            return outcome;
        }
        ++stats_.misses;
    }

    // Preprocess outside the lock: binding is the expensive step and
    // other sessions should keep hitting while it runs. A concurrent
    // bind of the same id is resolved by insertLocked (last wins).
    std::shared_ptr<AttentionBackend> backend;
    const ShardedBackend *sharded = nullptr;
    if (config_.shardRows > 0) {
        ShardedConfig shardedConfig;
        shardedConfig.shardRows = config_.shardRows;
        shardedConfig.store = config_.store;
        backend = makeShardedBackend(config, std::move(key),
                                     std::move(value), shardedConfig);
        sharded = static_cast<const ShardedBackend *>(backend.get());
    } else {
        backend = makeBackend(config, std::move(key), std::move(value));
    }

    const std::lock_guard<std::mutex> lock(mutex_);
    std::shared_ptr<AttentionBackend> bound =
        insertLocked(session, std::move(backend));
    outcome.handle = SessionHandle(session, bound);
    if (sharded != nullptr && bound.get() == sharded) {
        outcome.shardCount = sharded->shardCount();
        outcome.sharedShards = sharded->bindSharedShards();
        outcome.restoredShards = sharded->bindRestoredShards();
    } else {
        outcome.shardCount = 1;
    }
    outcome.status = outcome.sharedShards > 0 ? BindStatus::BoundShared
                     : outcome.restoredShards > 0
                         ? BindStatus::BoundRestored
                         : BindStatus::BoundFresh;
    outcome.logicalBytes = bound->memoryBytes();
    const auto it = entries_.find(session);
    outcome.chargedBytes =
        it != entries_.end() ? it->second.bytes : 0;
    return outcome;
}

BindOutcome
SessionCache::bindSession(const std::string &session, Matrix key,
                          Matrix value)
{
    return bindSession(session, config_.engine, std::move(key),
                       std::move(value));
}

std::shared_ptr<AttentionBackend>
SessionCache::insert(const std::string &session,
                     std::shared_ptr<AttentionBackend> backend)
{
    a3Assert(backend != nullptr, "cannot insert a null backend");
    const std::lock_guard<std::mutex> lock(mutex_);
    return insertLocked(session, std::move(backend));
}

std::shared_ptr<AttentionBackend>
SessionCache::insertLocked(const std::string &session,
                           std::shared_ptr<AttentionBackend> backend)
{
    const auto it = entries_.find(session);
    if (it != entries_.end()) {
        releaseLocked(it->second);
        it->second.backend = std::move(backend);
        chargeLocked(it->second);
        touchLocked(it->second);
        enforceBudgetLocked(session);
        return it->second.backend;
    }
    lru_.push_front(session);
    Entry entry;
    entry.backend = std::move(backend);
    entry.lruPos = lru_.begin();
    const auto inserted =
        entries_.emplace(session, std::move(entry)).first;
    chargeLocked(inserted->second);
    enforceBudgetLocked(session);
    return inserted->second.backend;
}

AppendOutcome
SessionCache::appendSession(const SessionHandle &handle,
                            const Matrix &keyRows,
                            const Matrix &valueRows)
{
    AppendOutcome outcome;
    if (!handle.valid())
        return outcome;
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = entries_.find(handle.id());
    // A handle issued for an earlier binding must not append to a
    // newer one: compare identities, not just ids.
    if (it == entries_.end() ||
        handle.backend_.lock() != it->second.backend)
        return outcome;
    Entry &entry = it->second;
    releaseLocked(entry);
    entry.backend->append(keyRows, valueRows);
    chargeLocked(entry);
    ++stats_.appends;
    touchLocked(entry);
    enforceBudgetLocked(handle.id());
    outcome.status = AppendStatus::Appended;
    outcome.rowsAppended = keyRows.rows();
    const auto *sharded =
        dynamic_cast<const ShardedBackend *>(entry.backend.get());
    outcome.shardCount =
        sharded != nullptr ? sharded->shardCount() : 1;
    outcome.logicalBytes = entry.backend->memoryBytes();
    outcome.chargedBytes = entry.bytes;
    return outcome;
}

void
SessionCache::enforceBudgetLocked(const std::string &keep)
{
    if (config_.byteBudget == 0)
        return;
    while (bytesInUse_ > config_.byteBudget && !lru_.empty() &&
           lru_.back() != keep) {
        const auto victim = entries_.find(lru_.back());
        a3Assert(victim != entries_.end(),
                 "LRU list out of sync with the entry map");
        releaseLocked(victim->second);
        entries_.erase(victim);
        lru_.pop_back();
        ++stats_.evictions;
    }
}

bool
SessionCache::erase(const std::string &session)
{
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = entries_.find(session);
    if (it == entries_.end())
        return false;
    releaseLocked(it->second);
    lru_.erase(it->second.lruPos);
    entries_.erase(it);
    return true;
}

void
SessionCache::clear()
{
    const std::lock_guard<std::mutex> lock(mutex_);
    entries_.clear();
    charges_.clear();
    lru_.clear();
    bytesInUse_ = 0;
}

std::size_t
SessionCache::sessionCount() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
}

std::size_t
SessionCache::bytesInUse() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return bytesInUse_;
}

SessionCacheStats
SessionCache::stats() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

void
SessionCache::resetCounters()
{
    const std::lock_guard<std::mutex> lock(mutex_);
    stats_ = SessionCacheStats{};
}

}  // namespace a3
