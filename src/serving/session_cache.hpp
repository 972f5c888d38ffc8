/**
 * @file
 * LRU cache of preprocessed attention backends keyed by session id.
 *
 * A deployed QA/BERT service answers many queries against the same
 * long-lived context — a loaded story, a document, a conversation.
 * Binding that context into an AttentionBackend is the expensive step
 * (the column sort of Section IV-A, the quantization of Section III),
 * which the paper amortizes across queries; the cache is the serving
 * tier's realization of that amortization. Bound backends stay alive
 * across requests, the least recently used session is evicted when the
 * configured byte budget overflows, and hit/miss/eviction counters
 * make the reuse measurable.
 *
 * The session API is typed: bindSession() / appendSession() /
 * lookupSession() operate on SessionHandle and return BindOutcome /
 * AppendOutcome result types (mirroring the scheduler's
 * AdmissionOutcome). insert() installs a pre-built backend (a remote
 * coordinator, say) under an id; lookupSession() then hands out its
 * handle like any other binding's.
 *
 * Cross-session sharing: when constructed with a SessionCacheConfig
 * that carries shardRows and a ShardStore, sessions bind through
 * ShardedBackend's store-backed mode and identical frozen shards are
 * shared across sessions. The cache then charges each distinct
 * ShardHandle against the byte budget ONCE no matter how many bound
 * sessions reference it (bytesInUse() is charged bytes, not the sum
 * of per-session logical bytes), and eviction releases only the
 * evicted session's references — a shard shared with a live session
 * survives, so eviction never invalidates other sessions' results.
 *
 * Thread safety: every member function takes an internal lock, so
 * concurrent bindSession()/lookupSession()/erase() calls are safe.
 * The backends handed out are only thread-compatible for const
 * queries; appendSession() must not race with queries against the
 * same session (see AttentionBackend::append).
 */

#ifndef A3_SERVING_SESSION_CACHE_HPP
#define A3_SERVING_SESSION_CACHE_HPP

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "attention/backend.hpp"
#include "serving/shard_store.hpp"

namespace a3 {

/** Monotonic usage counters of one SessionCache. */
struct SessionCacheStats
{
    /**
     * Lookups served from an already-bound backend (no
     * preprocessing).
     */
    std::uint64_t hits = 0;

    /** Lookups that found no bound backend. */
    std::uint64_t misses = 0;

    /** Sessions dropped to fit the byte budget. */
    std::uint64_t evictions = 0;

    /** Incremental context extensions applied through
     *  appendSession(). */
    std::uint64_t appends = 0;
};

/** Construction-time knobs of one SessionCache. */
struct SessionCacheConfig
{
    /**
     * Bytes of backend state the cache may retain; 0 means
     * unlimited. Charged bytes: a shard shared by k bound sessions
     * counts once, not k times. The most recently bound session is
     * never evicted, even when it alone exceeds the budget —
     * evicting it would make the bind that just paid for it useless.
     */
    std::size_t byteBudget = 0;

    /** Engine used by the bindSession() overload without a config. */
    EngineConfig engine;

    /**
     * Shard capacity for bindSession() backends; 0 binds unsharded
     * backends.
     */
    std::size_t shardRows = 0;

    /**
     * Cross-session shard registry (non-owning; must outlive the
     * cache). Requires shardRows > 0. nullptr disables sharing —
     * sessions are fully private.
     */
    ShardStore *store = nullptr;
};

/**
 * Typed reference to one bound session: the id plus a weak reference
 * to the backend bound when the handle was issued. A handle goes
 * stale when its session is evicted or re-bound. A stale handle
 * reports it (backend() == nullptr once the old binding is gone) and
 * appendSession() rejects it with AppendStatus::SessionUnbound, so an
 * append never lands on a binding the caller has not seen. Queries
 * are different: BatchScheduler::drain() resolves the session by id,
 * so a query through a stale handle is answered by the session's
 * current binding, or completes with ServingError::SessionUnbound
 * when no binding exists.
 */
class SessionHandle
{
  public:
    SessionHandle() = default;

    const std::string &id() const { return id_; }

    /** False for default-constructed (never-issued) handles. */
    bool valid() const { return !id_.empty(); }

    /**
     * The backend this handle was issued for, or nullptr once the
     * binding is gone (evicted / replaced / cache destroyed).
     */
    std::shared_ptr<AttentionBackend> backend() const
    {
        return backend_.lock();
    }

  private:
    friend class SessionCache;

    SessionHandle(std::string id,
                  const std::shared_ptr<AttentionBackend> &backend)
        : id_(std::move(id)), backend_(backend)
    {
    }

    std::string id_;
    std::weak_ptr<AttentionBackend> backend_;
};

/** How a bindSession() call was satisfied. */
enum class BindStatus
{
    AlreadyBound,   ///< session was bound; matrices ignored
    BoundFresh,     ///< every shard preprocessed from scratch
    BoundShared,    ///< >= 1 shard deduped against a live session
    BoundRestored,  ///< >= 1 shard restored from spill (none shared)
};

/** Stable lowercase name ("already_bound", ...). */
const char *bindStatusName(BindStatus status);

/** Result of SessionCache::bindSession(). */
struct BindOutcome
{
    BindStatus status = BindStatus::BoundFresh;

    /** Handle to the bound session (always valid on return). */
    SessionHandle handle;

    /** Shards backing the session (1 for unsharded binds). */
    std::size_t shardCount = 0;

    /** Shards deduped against live sessions at bind time. */
    std::size_t sharedShards = 0;

    /** Shards restored from the spill tier at bind time. */
    std::size_t restoredShards = 0;

    /** The session's full memoryBytes() footprint. */
    std::size_t logicalBytes = 0;

    /** Bytes this session actually charges the cache (shared shards
     *  another bound session already charged cost 0 here). */
    std::size_t chargedBytes = 0;

    bool bound() const { return handle.valid(); }
};

/** How an appendSession() call ended. */
enum class AppendStatus
{
    Appended,        ///< rows appended, budget re-charged
    SessionUnbound,  ///< stale handle: session evicted or re-bound
};

/** Stable lowercase name ("appended", ...). */
const char *appendStatusName(AppendStatus status);

/** Result of SessionCache::appendSession(). */
struct AppendOutcome
{
    AppendStatus status = AppendStatus::SessionUnbound;

    /** Rows actually appended (0 on SessionUnbound). */
    std::size_t rowsAppended = 0;

    /** Shards after the append (tail freezes may have grown it). */
    std::size_t shardCount = 0;

    /** The session's memoryBytes() after the append. */
    std::size_t logicalBytes = 0;

    /** Bytes the session charges the cache after the append. */
    std::size_t chargedBytes = 0;

    bool ok() const { return status == AppendStatus::Appended; }
};

/** LRU map from session id to a preprocessed, queryable backend. */
class SessionCache
{
  public:
    /** The default config binds unsharded sessions under no byte
     *  budget; config.store enables cross-session sharing. */
    explicit SessionCache(SessionCacheConfig config = {});

    /**
     * Bind `session` to (key, value) under `config`, or report the
     * existing binding (AlreadyBound — the matrices are ignored and
     * no preprocessing runs). With cache-level shardRows > 0 the
     * backend is sharded; with a ShardStore configured, full shards
     * dedup against live sessions and the spill tier, and the
     * outcome reports how many shards each tier served.
     */
    BindOutcome bindSession(const std::string &session,
                            const EngineConfig &config, Matrix key,
                            Matrix value);

    /** bindSession() under the cache-level default engine config. */
    BindOutcome bindSession(const std::string &session, Matrix key,
                            Matrix value);

    /**
     * Extend the session behind `handle`. Fails with SessionUnbound
     * when the handle is stale — its session was evicted or re-bound
     * since issue — so an append can never land on a binding the
     * caller has not seen. No queries may be in flight against the
     * session (see AttentionBackend::append).
     */
    AppendOutcome appendSession(const SessionHandle &handle,
                                const Matrix &keyRows,
                                const Matrix &valueRows);

    /**
     * Handle to `session`'s current binding; invalid handle on a
     * miss. A hit refreshes the session's LRU position and counts in
     * stats().hits; a miss counts in stats().misses.
     */
    SessionHandle lookupSession(const std::string &session);

    /**
     * Insert a pre-built backend, replacing whatever `session` held.
     * Returns the inserted backend.
     */
    std::shared_ptr<AttentionBackend>
    insert(const std::string &session,
           std::shared_ptr<AttentionBackend> backend);

    /** Drop one session; returns whether it was bound. */
    bool erase(const std::string &session);

    /** Drop every session (counters are retained). */
    void clear();

    /** Sessions currently bound. */
    std::size_t sessionCount() const;

    /** Charged bytes over the bound backends (shared shards counted
     *  once across sessions). */
    std::size_t bytesInUse() const;

    /** Configured budget; 0 means unlimited. */
    std::size_t byteBudget() const { return config_.byteBudget; }

    /** Construction-time knobs. */
    const SessionCacheConfig &config() const { return config_; }

    /** Snapshot of the usage counters. */
    SessionCacheStats stats() const;

    /**
     * Zero the usage counters without touching the bound sessions —
     * benches and the CI regression gate reset after warm-up so the
     * reported numbers are steady-state, not cumulative.
     */
    void resetCounters();

  private:
    /**
     * BatchScheduler::drain() resolves each claimed session through
     * find(), which pins the backend under the cache lock. A
     * lookupSession() + handle.backend() pair would leave a window
     * in which an eviction turns a served query into SessionUnbound.
     */
    friend class BatchScheduler;

    /**
     * Backend bound to `session`, or nullptr; counts and refreshes
     * like lookupSession().
     */
    std::shared_ptr<AttentionBackend> find(const std::string &session);

    struct Entry
    {
        std::shared_ptr<AttentionBackend> backend;
        /** Bytes this entry charges the budget (see chargeLocked). */
        std::size_t bytes = 0;
        /** Shard handles snapshot backing the charge refcounts. */
        std::vector<std::shared_ptr<ShardHandle>> handles;
        std::list<std::string>::iterator lruPos;
    };

    /** Per-distinct-handle charge refcount across bound sessions. */
    struct HandleCharge
    {
        std::size_t bytes = 0;
        std::size_t refs = 0;
    };

    /** Move `session` (which must exist) to the LRU front. */
    void touchLocked(Entry &entry);

    /** Evict LRU sessions until the budget holds, sparing `keep`. */
    void enforceBudgetLocked(const std::string &keep);

    /**
     * Charge `entry`'s backend against the budget: unsharded
     * backends charge memoryBytes(); sharded backends charge each
     * distinct ShardHandle once across all bound sessions (refs in
     * charges_). Fills entry.bytes/handles.
     */
    void chargeLocked(Entry &entry);

    /** Undo chargeLocked (eviction, replacement, pre-append). */
    void releaseLocked(Entry &entry);

    std::shared_ptr<AttentionBackend>
    insertLocked(const std::string &session,
                 std::shared_ptr<AttentionBackend> backend);

    mutable std::mutex mutex_;
    SessionCacheConfig config_;
    std::size_t bytesInUse_ = 0;
    /** Most recently used session at the front. */
    std::list<std::string> lru_;
    std::unordered_map<std::string, Entry> entries_;
    std::unordered_map<const ShardHandle *, HandleCharge> charges_;
    SessionCacheStats stats_;
};

}  // namespace a3

#endif  // A3_SERVING_SESSION_CACHE_HPP
