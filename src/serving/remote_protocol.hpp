/**
 * @file
 * Typed payload codecs of the distributed-serving protocol.
 *
 * One encode/decode pair per frame kind, layered on the
 * bounds-checked wire primitives (net/wire.hpp). Decoders are
 * strict: a payload that underruns, overruns, or carries an
 * out-of-range enum value is rejected with a typed Malformed status
 * before any field is acted on — a corrupted-but-checksum-valid
 * frame (or a hostile peer) can fail a request, never crash a
 * worker or the coordinator.
 *
 * Floats travel as IEEE-754 bit patterns, so a PartialResult
 * decoded here is bit-identical to the one the worker computed —
 * the foundation of the coordinator's exactness guarantee. Decoding
 * checks the payload's shape only; whether a reply fits the shard
 * and the detail asked for is the coordinator's check.
 */

#ifndef A3_SERVING_REMOTE_PROTOCOL_HPP
#define A3_SERVING_REMOTE_PROTOCOL_HPP

#include <cstdint>
#include <string>

#include "attention/backend.hpp"
#include "attention/types.hpp"
#include "net/frame.hpp"
#include "tensor/matrix.hpp"

namespace a3 {

/** Hello / HelloAck: version handshake and peer naming. */
struct HelloPayload
{
    std::uint16_t version = kProtocolVersion;
    std::string peer;
};

/** BindShard: ship one shard's task to a worker. */
struct BindShardPayload
{
    std::uint32_t shardId = 0;

    /**
     * Bind epoch: rebinds (failover re-replication, appends) bump
     * it, and a worker answers queries only for the generation it
     * holds — a late query can never hit a stale binding silently.
     */
    std::uint64_t generation = 0;

    EngineConfig config;
    Matrix key;
    Matrix value;
};

/** BindAck: worker confirms (shardId, generation) is bound. */
struct BindAckPayload
{
    std::uint32_t shardId = 0;
    std::uint64_t generation = 0;
};

/** Query: one attention query against a bound shard. */
struct QueryPayload
{
    std::uint64_t requestId = 0;
    std::uint32_t shardId = 0;
    std::uint64_t generation = 0;

    /**
     * Request the dense per-row diagnostics (ResultDetail::Full).
     * Without it the worker answers at ResultDetail::Output: the
     * reply's per-row arrays and id lists travel with zero counts.
     * Bit 1 of the flags byte.
     */
    bool wantDetail = false;

    Vector query;
};

/**
 * PartialReply: the shard's unit partial for a request — its
 * normalized answer plus the log-sum-exp terms the merge weights it
 * by.
 */
struct PartialReplyPayload
{
    std::uint64_t requestId = 0;
    std::uint32_t shardId = 0;
    PartialResult partial;
};

/** Heartbeat / HeartbeatAck: liveness probe and echo. */
struct HeartbeatPayload
{
    std::uint64_t sequence = 0;

    /** Shards the responder currently holds (ack only). */
    std::uint32_t shardsBound = 0;
};

/** ErrorReply: typed worker-side failure for one request. */
struct ErrorReplyPayload
{
    std::uint64_t requestId = 0;
    NetError code = NetError::WorkerError;
    std::string message;
};

Frame encodeHello(const HelloPayload &payload, bool ack);
Frame encodeBindShard(const BindShardPayload &payload);
Frame encodeBindAck(const BindAckPayload &payload);
Frame encodeQuery(const QueryPayload &payload);
Frame encodePartialReply(const PartialReplyPayload &payload);
Frame encodeHeartbeat(const HeartbeatPayload &payload, bool ack);
Frame encodeErrorReply(const ErrorReplyPayload &payload);
Frame encodeShutdown();

/**
 * Each decoder validates the frame type and strictly consumes the
 * whole payload; Malformed otherwise. Output fields are only
 * meaningful on success.
 */
NetStatus decodeHello(const Frame &frame, HelloPayload &out);
NetStatus decodeBindShard(const Frame &frame,
                          BindShardPayload &out);
NetStatus decodeBindAck(const Frame &frame, BindAckPayload &out);
NetStatus decodeQuery(const Frame &frame, QueryPayload &out);
NetStatus decodePartialReply(const Frame &frame,
                             PartialReplyPayload &out);
NetStatus decodeHeartbeat(const Frame &frame,
                          HeartbeatPayload &out);
NetStatus decodeErrorReply(const Frame &frame,
                           ErrorReplyPayload &out);

}  // namespace a3

#endif  // A3_SERVING_REMOTE_PROTOCOL_HPP
