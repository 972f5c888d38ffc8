/**
 * @file
 * Content addressing and the on-disk image of one frozen shard.
 *
 * A frozen shard's identity is a 128-bit content key: two independent
 * FNV-1a-64 streams over a fingerprint of the binding EngineConfig
 * followed by the raw float bit patterns of the shard's key/value
 * rows. Preprocessing is deterministic (append == rebind, packed ==
 * word32, restore == cold bind are all pinned by tests), so equal
 * keys mean bit-identical backends — which is what lets a ShardStore
 * dedup identical frozen shards across sessions and trust a spilled
 * image to stand in for a cold bind.
 *
 * The image layout (all little-endian via net/wire.hpp):
 *
 *   u32  magic "A3SP"
 *   u16  version
 *   u8   engine kind
 *   u8   resolved packed K/V format (0 for the float kinds)
 *   u8   intBits, u8 fracBits
 *   u64  content key hi, u64 content key lo
 *   u64  rows, u64 dims
 *   u64  payload length
 *   u32  FNV-1a payload checksum
 *   ...  payload: AttentionBackend::serializeState() bytes
 *
 * decodeShardImage() rejects (returns nullptr) on any mismatch —
 * magic, version, config fingerprint, expected key, checksum, or a
 * malformed payload — and the caller falls back to a cold bind; a
 * bad image is a cache miss, never an error.
 */

#ifndef A3_SERVING_SHARD_IMAGE_HPP
#define A3_SERVING_SHARD_IMAGE_HPP

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "attention/backend.hpp"
#include "tensor/matrix.hpp"

namespace a3 {

/** 128-bit content address of one frozen shard. */
struct ShardKey
{
    std::uint64_t hi = 0;
    std::uint64_t lo = 0;

    bool operator==(const ShardKey &other) const
    {
        return hi == other.hi && lo == other.lo;
    }

    /** 32 lowercase hex digits — the spill file stem. */
    std::string hex() const;

    /** Parse a hex() string; false on malformed input. */
    static bool parseHex(const std::string &text, ShardKey &out);
};

/** Hash functor for ShardKey-keyed maps. */
struct ShardKeyHash
{
    std::size_t operator()(const ShardKey &key) const
    {
        return static_cast<std::size_t>(
            key.hi ^ (key.lo * 0x9e3779b97f4a7c15ull));
    }
};

/**
 * Incremental content-key state: two FNV-1a-64 streams with distinct
 * offset bases over the same byte sequence. Kept running per mutable
 * tail shard and extended on every append, so a tail that freezes
 * after k appends gets exactly the key a fresh bind of the
 * concatenated rows would get (valid because append == rebind is
 * bit-identical).
 */
class ShardKeyHasher
{
  public:
    /** Mix raw bytes into both streams. */
    void mixBytes(const std::uint8_t *data, std::size_t size);

    /**
     * Mix the config fingerprint: engine kind plus exactly the knobs
     * that shape the preprocessed state of that kind (quantization
     * widths and resolved lane layout for the quantized kinds,
     * approximation knobs for the approx kinds). Knobs irrelevant to
     * the kind are excluded so, e.g., two ExactFloat configs with
     * different approx presets still share shards.
     */
    void mixConfig(const EngineConfig &config);

    /**
     * Mix `count` key/value rows starting at `firstRow`: for each
     * row, the key row's float bit patterns then the value row's, in
     * row order.
     */
    void mixTaskRows(const Matrix &key, const Matrix &value,
                     std::size_t firstRow, std::size_t count);

    /** The 128-bit key of everything mixed so far. */
    ShardKey key() const { return {hi_, lo_}; }

  private:
    /** Two FNV-1a-64 streams; the second starts from a decorrelated
     *  offset so the pair behaves as one 128-bit hash. */
    std::uint64_t hi_ = 14695981039346656037ull;
    std::uint64_t lo_ = 14695981039346656037ull ^ 0x9e3779b97f4a7c15ull;
};

constexpr std::uint32_t kShardImageMagic = 0x41335350u;  // "A3SP"
/** Bumped whenever a backend's serializeState() layout changes; v2
 *  dropped the quantized backends' per-row scales. */
constexpr std::uint16_t kShardImageVersion = 2;

/**
 * Serialize `backend` (a plain, single-unit kind) into the
 * versioned, checksummed image format above.
 */
std::vector<std::uint8_t>
encodeShardImage(const EngineConfig &config, const ShardKey &key,
                 const AttentionBackend &backend);

/**
 * Decode an image back into a backend of config.kind. Returns
 * nullptr on any header/checksum/payload mismatch; the restored
 * backend answers queries bit-identically to the serialized one.
 */
std::unique_ptr<AttentionBackend>
decodeShardImage(const EngineConfig &config, const ShardKey &expected,
                 const std::uint8_t *data, std::size_t size);

}  // namespace a3

#endif  // A3_SERVING_SHARD_IMAGE_HPP
