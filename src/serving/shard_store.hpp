/**
 * @file
 * Refcounted cross-session shard sharing with a disk spill tier.
 *
 * At serving scale, traffic is dominated by shared prefixes — system
 * prompts, common documents, frozen chat histories — so K sessions
 * over one document should cost ~1 document of preprocessed state,
 * not K. The sharding layer already concentrates growth in the tail
 * shard, which makes frozen full shards natural sharing units:
 *
 *  - ShardHandle wraps one shard's preprocessed backend. A mutable
 *    *tail* handle is private to its owning session and accepts
 *    appends; when it reaches shard capacity it is *frozen* —
 *    compacted, content-addressed (shard_image.hpp), and immutable
 *    from then on.
 *  - ShardStore is the process-wide registry: acquire() returns the
 *    canonical handle for a frozen row slice, deduping against live
 *    handles (refcounted via shared_ptr — the store holds weak
 *    references, so a shard dies exactly when its last session
 *    releases it), then against the disk spill tier (mmap + decode,
 *    no recomputation), and only cold-binds on a full miss.
 *
 * Spill tier: every frozen shard registered with a spill-configured
 * store is written through to disk immediately (versioned +
 * checksummed image, packed lanes verbatim), so eviction later is
 * pure memory release — by the time a shard is dropped, its image is
 * already on disk. The spill directory survives the store: a fresh
 * store pointed at the same directory re-indexes the images and
 * serves warm restores across process restarts. Restored shards are
 * bit-identical to cold binds (pinned by tests), so sharing and
 * spilling are invisible to results.
 *
 * Thread safety: every ShardStore member takes an internal lock;
 * hashing, cold binds, and image decodes run outside it. ShardHandle
 * itself adds no locking: frozen handles are immutable (safe to
 * share), and a mutable tail is owned by one session whose appends
 * are already serialized by the session layer.
 */

#ifndef A3_SERVING_SHARD_STORE_HPP
#define A3_SERVING_SHARD_STORE_HPP

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "attention/backend.hpp"
#include "serving/shard_image.hpp"
#include "tensor/matrix.hpp"

namespace a3 {

/**
 * One shard's preprocessed backend plus its sharing state. Create
 * through the static factories (or ShardStore::acquire); always held
 * by shared_ptr — the use count *is* the cross-session refcount.
 */
class ShardHandle
{
  public:
    /**
     * Bind a mutable tail handle over rows [firstRow, firstRow +
     * count) with a running content hash, so freezing after any
     * number of appends yields the same key a fresh bind of the
     * concatenated rows would.
     */
    static std::shared_ptr<ShardHandle>
    bindTail(const EngineConfig &config, const Matrix &key,
             const Matrix &value, std::size_t firstRow,
             std::size_t count);

    /**
     * Bind a private, untracked handle (no hashing, never frozen or
     * shared) — the store-less ShardedBackend path, which pays
     * nothing for sharing it does not use.
     */
    static std::shared_ptr<ShardHandle>
    bindPrivate(const EngineConfig &config, const Matrix &key,
                const Matrix &value, std::size_t firstRow,
                std::size_t count);

    const AttentionBackend &backend() const { return *backend_; }

    /** Extend a mutable tail (and its running hash). */
    void appendRows(const Matrix &keyRows, const Matrix &valueRows);

    /**
     * Freeze a tracked tail: compact the backend (releasing append
     * slack — shared and spilled images carry none) and finalize the
     * content key. Returns the bytes compaction reclaimed. The
     * handle is immutable afterwards.
     */
    std::size_t freeze();

    bool frozen() const { return frozen_; }

    /** Content key; only valid once frozen. */
    const ShardKey &contentKey() const;

    std::size_t rows() const { return backend_->rows(); }
    std::size_t bytes() const { return backend_->memoryBytes(); }

  private:
    friend class ShardStore;

    ShardHandle(EngineConfig config,
                std::unique_ptr<AttentionBackend> backend);

    EngineConfig config_;
    std::unique_ptr<AttentionBackend> backend_;
    ShardKeyHasher hasher_;
    ShardKey key_;
    bool tracking_ = false;
    bool frozen_ = false;
};

/** Spill-tier knobs of one ShardStore. */
struct ShardStoreConfig
{
    /**
     * Directory for spilled shard images (created if missing); empty
     * disables the spill tier — the store then only dedups live
     * handles.
     */
    std::string spillDir;

    /**
     * Byte budget of the spill directory; 0 = unlimited. Least
     * recently touched images are deleted when the budget overflows,
     * except the one just written.
     */
    std::size_t spillBudgetBytes = 0;
};

/** Where an acquired shard came from. */
enum class ShardSource
{
    ColdBound,      ///< preprocessed from the matrices
    LiveShared,     ///< deduped against a live session's handle
    SpillRestored,  ///< decoded from a spilled image
};

/** Monotonic usage counters of one ShardStore. */
struct ShardStoreStats
{
    /** acquire()s served by a live handle (bytes shared, no work). */
    std::uint64_t liveHits = 0;

    /** acquire()s served by decoding a spilled image. */
    std::uint64_t spillRestores = 0;

    /** acquire()s that preprocessed from scratch. */
    std::uint64_t coldBinds = 0;

    /** Tail handles adopted through adoptFrozen(). */
    std::uint64_t adoptions = 0;

    /** Images written to the spill directory. */
    std::uint64_t spillWrites = 0;

    /** Images deleted to fit spillBudgetBytes. */
    std::uint64_t spillEvictions = 0;

    /** Spilled images rejected at decode (corrupt, stale version,
     *  config mismatch) and deleted; the acquire cold-binds. */
    std::uint64_t spillRejects = 0;
};

/** Process-wide registry of frozen shards, live and spilled. */
class ShardStore
{
  public:
    explicit ShardStore(ShardStoreConfig config = {});

    /**
     * Canonical frozen handle for rows [firstRow, firstRow + count)
     * of (key, value) under `config`. Resolution order: live handle
     * (shared, refcounted) -> spilled image (mmap + decode) -> cold
     * bind. All three produce bit-identical backends; `source`
     * (optional) reports which path served the call.
     */
    std::shared_ptr<ShardHandle>
    acquire(const EngineConfig &config, const Matrix &key,
            const Matrix &value, std::size_t firstRow,
            std::size_t count, ShardSource *source = nullptr);

    /**
     * Register a tail handle its owner just froze. Returns the
     * canonical handle: an already-live handle with the same content
     * key wins (the caller swaps to it and drops its copy);
     * otherwise the handle is indexed and written through to the
     * spill tier.
     */
    std::shared_ptr<ShardHandle>
    adoptFrozen(std::shared_ptr<ShardHandle> handle);

    ShardStoreStats stats() const;

    /** Frozen shards currently alive in some session. */
    std::size_t liveCount() const;

    /** Images currently in the spill directory. */
    std::size_t spillCount() const;

    /** Bytes of those images. */
    std::size_t spillBytesInUse() const;

    const ShardStoreConfig &config() const { return config_; }

    /** Zero the usage counters (bench warm-up reset). */
    void resetCounters();

  private:
    struct SpillEntry
    {
        std::string path;
        std::size_t bytes = 0;
        std::list<ShardKey>::iterator lruPos;
    };

    using LiveMap =
        std::unordered_map<ShardKey, std::weak_ptr<ShardHandle>,
                           ShardKeyHash>;
    using SpillMap =
        std::unordered_map<ShardKey, SpillEntry, ShardKeyHash>;

    /** Index pre-existing *.shard images (warm process restart). */
    void scanSpillDirLocked();

    /** Live handle for `key`, pruning a dead weak entry. */
    std::shared_ptr<ShardHandle> liveLookupLocked(const ShardKey &key);

    /** Write-through one frozen handle's image, then enforce the
     *  spill budget (sparing the image just written). */
    void spillWriteLocked(const ShardHandle &handle);

    void touchSpillLocked(SpillEntry &entry);
    void dropSpillLocked(const ShardKey &key);
    void enforceSpillBudgetLocked(const ShardKey &keep);

    /** Decode `key`'s spilled image; nullptr on miss or reject (a
     *  reject also deletes the image). Takes and releases the lock
     *  internally around the map accesses. */
    std::unique_ptr<AttentionBackend>
    restoreFromSpill(const EngineConfig &config, const ShardKey &key,
                     bool &rejected);

    ShardStoreConfig config_;

    mutable std::mutex mutex_;
    LiveMap live_;
    SpillMap spill_;
    /** Most recently touched image at the front. */
    std::list<ShardKey> spillLru_;
    std::size_t spillBytes_ = 0;
    ShardStoreStats stats_;
};

}  // namespace a3

#endif  // A3_SERVING_SHARD_STORE_HPP
