/**
 * @file
 * Versioned, length-prefixed, checksummed protocol frames.
 *
 * Every message of the distributed-serving protocol travels as one
 * frame: a fixed 16-byte header (magic, protocol version, frame
 * type, payload length, FNV-1a payload checksum) followed by the
 * payload bytes. The header is what lets a receiver reject garbage
 * strictly and early — wrong magic, unknown version, unknown type,
 * oversized length, or a checksum mismatch each yield a typed
 * NetStatus before a single payload byte is interpreted.
 *
 * Frame types (the protocol's state machine):
 *  - Hello / HelloAck: version handshake when a connection opens.
 *  - BindShard / BindAck: ship one shard's rows + EngineConfig to a
 *    worker, which binds a backend once and serves it thereafter.
 *  - Query / PartialReply: one attention query against a bound
 *    shard; the reply carries the shard's unit partial (its
 *    normalized answer plus log-sum-exp terms). Unless the query
 *    asks for the dense diagnostics, the reply carries them as
 *    zero-count arrays.
 *  - Heartbeat / HeartbeatAck: liveness probes driving the
 *    coordinator's healthy/suspect/dead worker states.
 *  - ErrorReply: typed worker-side failure for a request.
 *  - Shutdown: orderly worker stop (tests and tooling).
 */

#ifndef A3_NET_FRAME_HPP
#define A3_NET_FRAME_HPP

#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/net_error.hpp"

namespace a3 {

/**
 * Protocol version this build speaks. Version 2 turned the Query
 * frame's single-shard byte into a flags byte; version 3 retired
 * the single-shard mode with its flag bit and reply frame (type 7),
 * and a PartialReply now carries a normalized answer.
 */
constexpr std::uint16_t kProtocolVersion = 3;

/** Frame magic: "A3RP" (A3 remote protocol), little-endian. */
constexpr std::uint32_t kFrameMagic = 0x50523341u;

/** Serialized header size in bytes. */
constexpr std::size_t kFrameHeaderBytes = 16;

/**
 * Upper bound on one frame's payload. Large enough for any shard
 * bind (rows * dims * 2 matrices of 4-byte floats), small enough
 * that a corrupted or hostile length field cannot make a receiver
 * allocate unbounded memory.
 */
constexpr std::uint32_t kMaxFramePayload = 1u << 30;

/** Message kind carried by a frame. */
enum class FrameType : std::uint16_t {
    Hello = 1,
    HelloAck = 2,
    BindShard = 3,
    BindAck = 4,
    Query = 5,
    PartialReply = 6,
    // 7 was the single-shard result reply, retired in version 3.
    Heartbeat = 8,
    HeartbeatAck = 9,
    ErrorReply = 10,
    Shutdown = 11,
};

/** Whether `raw` names a known FrameType value. */
bool frameTypeKnown(std::uint16_t raw);

/** Stable lowercase name ("hello", "query", ...). */
const char *frameTypeName(FrameType type);

/** One protocol message: its type and opaque payload bytes. */
struct Frame
{
    FrameType type = FrameType::Hello;
    std::vector<std::uint8_t> payload;
};

/**
 * Serialize `frame` into header + payload bytes, computing the
 * payload checksum. The result is what Transport::send puts on the
 * wire in one piece.
 */
std::vector<std::uint8_t> encodeFrame(const Frame &frame);

/**
 * Parsed frame header, validated field by field.
 */
struct FrameHeader
{
    std::uint16_t version = 0;
    FrameType type = FrameType::Hello;
    std::uint32_t payloadLength = 0;
    std::uint32_t checksum = 0;
};

/**
 * Strictly validate and parse one header: the magic must match, the
 * version must be kProtocolVersion, the type must be known, and the
 * length must be within kMaxFramePayload. Returns a typed failure
 * naming the first violated rule; `header` is only meaningful on
 * success.
 */
NetStatus decodeFrameHeader(const std::uint8_t *data,
                            std::size_t size, FrameHeader &header);

/**
 * Verify `payload` against the header's checksum (BadChecksum on
 * mismatch — the corruption signal retries key off).
 */
NetStatus verifyFramePayload(const FrameHeader &header,
                             const std::vector<std::uint8_t> &payload);

}  // namespace a3

#endif  // A3_NET_FRAME_HPP
