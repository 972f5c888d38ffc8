/**
 * @file
 * Tests for the distributed serving tier: wire primitives and frame
 * codecs (round trips, strict malformed rejection, checksums),
 * deterministic fault injection, the shard worker protocol loop,
 * and the RemoteShardCoordinator's exactness and robustness — bit
 * identity with the in-process ShardedBackend for every engine
 * kind, and the deadline/retry/failover/rebind/local escalation
 * ladder under injected faults and real SIGKILLed worker
 * processes.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <unistd.h>
#include <vector>

#include "attention/backend.hpp"
#include "engine/engine.hpp"
#include "net/fault_injector.hpp"
#include "net/frame.hpp"
#include "net/process.hpp"
#include "net/transport.hpp"
#include "net/wire.hpp"
#include "serving/batch_scheduler.hpp"
#include "serving/remote_coordinator.hpp"
#include "serving/remote_worker.hpp"
#include "serving/sharded_backend.hpp"
#include "serving/session_cache.hpp"
#include "util/random.hpp"

#ifndef A3_SHARD_WORKER_BIN
#define A3_SHARD_WORKER_BIN ""
#endif

namespace a3 {
namespace {

constexpr EngineKind kAllKinds[] = {
    EngineKind::ExactFloat, EngineKind::ApproxFloat,
    EngineKind::ExactQuantized, EngineKind::ApproxQuantized};

Matrix
randomMatrix(Rng &rng, std::size_t n, std::size_t d)
{
    Matrix m(n, d);
    for (std::size_t r = 0; r < n; ++r)
        for (std::size_t c = 0; c < d; ++c)
            m(r, c) = static_cast<float>(rng.normal());
    return m;
}

Vector
randomQuery(Rng &rng, std::size_t d)
{
    Vector q(d);
    for (auto &x : q)
        x = static_cast<float>(rng.normal());
    return q;
}

void
expectBitIdentical(const AttentionResult &a,
                   const AttentionResult &b)
{
    EXPECT_EQ(a.output, b.output);
    EXPECT_EQ(a.weights, b.weights);
    EXPECT_EQ(a.scores, b.scores);
    EXPECT_EQ(a.candidates, b.candidates);
    EXPECT_EQ(a.kept, b.kept);
    EXPECT_EQ(a.iterations, b.iterations);
}

EngineConfig
configFor(EngineKind kind)
{
    EngineConfig config;
    config.kind = kind;
    config.intBits = 5;
    config.fracBits = 6;
    return config;
}

// ------------------------------------------------------------ wire

TEST(RemoteWireTest, RoundTripsEveryPrimitive)
{
    WireWriter w;
    w.u8(0xAB);
    w.u16(0xBEEF);
    w.u32(0xDEADBEEFu);
    w.u64(0x0123456789ABCDEFull);
    w.f32(-1.5f);
    w.f64(2.25);
    w.str("hello");
    const float floats[] = {1.0f, -0.0f, 3.5f};
    w.floats(floats, 3);
    const std::uint32_t ids[] = {7, 11};
    w.u32s(ids, 2);

    WireReader r(w.bytes());
    EXPECT_EQ(r.u8(), 0xAB);
    EXPECT_EQ(r.u16(), 0xBEEF);
    EXPECT_EQ(r.u32(), 0xDEADBEEFu);
    EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
    EXPECT_EQ(r.f32(), -1.5f);
    EXPECT_EQ(r.f64(), 2.25);
    EXPECT_EQ(r.str(), "hello");
    std::vector<float> gotFloats;
    r.floats(gotFloats);
    EXPECT_EQ(gotFloats, std::vector<float>({1.0f, -0.0f, 3.5f}));
    std::vector<std::uint32_t> gotIds;
    r.u32s(gotIds);
    EXPECT_EQ(gotIds, std::vector<std::uint32_t>({7, 11}));
    EXPECT_TRUE(r.done());
}

TEST(RemoteWireTest, DecodesZeroCountArrays)
{
    // Lean replies carry every dense array with a zero count; the
    // reader must accept them without touching the empty vectors'
    // (possibly null) storage.
    WireWriter w;
    w.floats(nullptr, 0);
    w.u32s(nullptr, 0);
    w.u8(7);
    WireReader r(w.bytes());
    std::vector<float> floats;
    std::vector<std::uint32_t> ids{3};
    r.floats(floats);
    r.u32s(ids);
    EXPECT_TRUE(r.ok());
    EXPECT_TRUE(floats.empty());
    EXPECT_TRUE(ids.empty());
    EXPECT_EQ(r.u8(), 7u);
    EXPECT_TRUE(r.done());
}

TEST(RemoteWireTest, OverrunLatchesFailure)
{
    WireWriter w;
    w.u16(42);
    WireReader r(w.bytes());
    r.u32();  // 4 bytes from a 2-byte buffer
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.u8(), 0u);  // stays failed
    EXPECT_FALSE(r.done());
}

TEST(RemoteWireTest, HostileLengthPrefixIsRejected)
{
    // A length prefix claiming far more elements than the buffer
    // holds must fail cleanly instead of allocating gigabytes.
    WireWriter w;
    w.u64(0x7FFFFFFFFFFFull);
    WireReader r(w.bytes());
    std::vector<float> out;
    r.floats(out);
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(out.empty());
}

// ----------------------------------------------------------- frame

TEST(RemoteFrameTest, HeaderRoundTrip)
{
    Frame frame{FrameType::Query, {1, 2, 3, 4}};
    const std::vector<std::uint8_t> bytes = encodeFrame(frame);
    ASSERT_GE(bytes.size(), kFrameHeaderBytes);

    FrameHeader header;
    EXPECT_TRUE(
        decodeFrameHeader(bytes.data(), bytes.size(), header)
            .ok());
    EXPECT_EQ(header.type, FrameType::Query);
    EXPECT_EQ(header.payloadLength, 4u);
    const std::vector<std::uint8_t> payload(
        bytes.begin() +
            static_cast<std::ptrdiff_t>(kFrameHeaderBytes),
        bytes.end());
    EXPECT_TRUE(verifyFramePayload(header, payload).ok());
}

TEST(RemoteFrameTest, RejectsBadMagicVersionTypeAndLength)
{
    const Frame frame{FrameType::Heartbeat, {9, 9}};
    FrameHeader header;

    std::vector<std::uint8_t> bad = encodeFrame(frame);
    bad[0] ^= 0xFF;  // magic
    EXPECT_EQ(
        decodeFrameHeader(bad.data(), bad.size(), header).error,
        NetError::Malformed);

    bad = encodeFrame(frame);
    bad[4] ^= 0xFF;  // version
    EXPECT_EQ(
        decodeFrameHeader(bad.data(), bad.size(), header).error,
        NetError::BadVersion);

    bad = encodeFrame(frame);
    bad[6] = 0x77;  // unknown type
    EXPECT_EQ(
        decodeFrameHeader(bad.data(), bad.size(), header).error,
        NetError::Malformed);

    bad = encodeFrame(frame);
    bad[11] = 0x41;  // absurd payload length
    EXPECT_EQ(
        decodeFrameHeader(bad.data(), bad.size(), header).error,
        NetError::Malformed);
}

TEST(RemoteFrameTest, ChecksumMismatchIsTyped)
{
    const Frame frame{FrameType::Query, {5, 6, 7}};
    std::vector<std::uint8_t> bytes = encodeFrame(frame);
    bytes[kFrameHeaderBytes + 1] ^= 0x10;  // corrupt payload
    FrameHeader header;
    ASSERT_TRUE(
        decodeFrameHeader(bytes.data(), bytes.size(), header)
            .ok());
    const std::vector<std::uint8_t> payload(
        bytes.begin() +
            static_cast<std::ptrdiff_t>(kFrameHeaderBytes),
        bytes.end());
    EXPECT_EQ(verifyFramePayload(header, payload).error,
              NetError::BadChecksum);
}

// -------------------------------------------------------- protocol

TEST(RemoteProtocolTest, BindShardRoundTrip)
{
    Rng rng(3);
    BindShardPayload bind;
    bind.shardId = 3;
    bind.generation = 17;
    bind.config = configFor(EngineKind::ApproxQuantized);
    bind.key = randomMatrix(rng, 6, 4);
    bind.value = randomMatrix(rng, 6, 4);

    BindShardPayload out;
    ASSERT_TRUE(decodeBindShard(encodeBindShard(bind), out).ok());
    EXPECT_EQ(out.shardId, 3u);
    EXPECT_EQ(out.generation, 17u);
    EXPECT_EQ(out.config.kind, EngineKind::ApproxQuantized);
    EXPECT_EQ(out.config.intBits, 5);
    EXPECT_EQ(out.config.fracBits, 6);
    EXPECT_TRUE(out.key == bind.key);
    EXPECT_TRUE(out.value == bind.value);
}

TEST(RemoteProtocolTest, PartialReplyRoundTripIsBitExact)
{
    PartialReplyPayload reply;
    reply.requestId = 99;
    reply.shardId = 2;
    reply.partial.maxScore = 1.25f;
    reply.partial.expSum = 0.875f;
    reply.partial.iterations = 12;
    reply.partial.output = {0.1f, -2.5f};
    reply.partial.weights = {0.5f, 0.25f, 0.0f};
    reply.partial.scores = {1.0f, -1.0f, 0.0f};
    reply.partial.candidates = {0, 1};
    reply.partial.kept = {1};

    PartialReplyPayload out;
    ASSERT_TRUE(
        decodePartialReply(encodePartialReply(reply), out).ok());
    EXPECT_EQ(out.requestId, 99u);
    EXPECT_EQ(out.partial.maxScore, 1.25f);
    EXPECT_EQ(out.partial.expSum, 0.875f);
    EXPECT_EQ(out.partial.output, reply.partial.output);
    EXPECT_EQ(out.partial.weights, reply.partial.weights);
    EXPECT_EQ(out.partial.scores, reply.partial.scores);
    EXPECT_EQ(out.partial.candidates, reply.partial.candidates);
    EXPECT_EQ(out.partial.kept, reply.partial.kept);
}

TEST(RemoteProtocolTest, RejectsTruncatedAndTrailingPayloads)
{
    QueryPayload query;
    query.requestId = 5;
    query.query = {1.0f, 2.0f};
    Frame frame = encodeQuery(query);

    Frame truncated = frame;
    truncated.payload.pop_back();
    QueryPayload out;
    EXPECT_EQ(decodeQuery(truncated, out).error,
              NetError::Malformed);

    Frame trailing = frame;
    trailing.payload.push_back(0);
    EXPECT_EQ(decodeQuery(trailing, out).error,
              NetError::Malformed);

    Frame wrongType = frame;
    wrongType.type = FrameType::Heartbeat;
    EXPECT_EQ(decodeQuery(wrongType, out).error,
              NetError::Malformed);
}

TEST(RemoteProtocolTest, RejectsOutOfRangeEnums)
{
    // An ErrorReply whose code is outside NetError's range must
    // not be cast blindly.
    WireWriter w;
    w.u64(1);
    w.u32(200);
    w.str("boom");
    Frame frame{FrameType::ErrorReply, w.take()};
    ErrorReplyPayload out;
    EXPECT_EQ(decodeErrorReply(frame, out).error,
              NetError::Malformed);
}

TEST(RemoteProtocolTest, WorkerConfigValidationMatchesMakeBackend)
{
    EngineConfig config = configFor(EngineKind::ExactQuantized);
    EXPECT_EQ(validateEngineConfig(config), "");

    config.intBits = 0;
    EXPECT_NE(validateEngineConfig(config), "");

    config = configFor(EngineKind::ExactQuantized);
    config.intBits = 20;
    config.fracBits = 20;  // 41-bit word over the 32-bit lane
    EXPECT_NE(validateEngineConfig(config), "");

    config = configFor(EngineKind::ExactQuantized);
    config.packedKv = PackedKvFormat::Int4;  // 12-bit word, 4-bit lane
    EXPECT_NE(validateEngineConfig(config), "");

    // Widths near INT_MAX must not overflow the word-size sum.
    config = configFor(EngineKind::ApproxQuantized);
    config.intBits = std::numeric_limits<int>::max();
    config.fracBits = std::numeric_limits<int>::max();
    EXPECT_NE(validateEngineConfig(config), "");

    // Float kinds ignore the quantization fields entirely.
    config = configFor(EngineKind::ExactFloat);
    config.intBits = -3;
    EXPECT_EQ(validateEngineConfig(config), "");

    // Hostile approximation knobs the wire can carry: each would
    // trip an assert on the first query (iterationsFor, or
    // thresholdFromPercent).
    const double nan = std::numeric_limits<double>::quiet_NaN();
    for (const EngineKind kind :
         {EngineKind::ApproxFloat, EngineKind::ApproxQuantized}) {
        SCOPED_TRACE(engineKindName(kind));
        for (const double mFraction : {0.0, -0.5, nan}) {
            config = configFor(kind);
            config.approx.mFraction = mFraction;
            config.approx.mAbsolute = 0;
            EXPECT_NE(validateEngineConfig(config), "") << mFraction;
            // Unused knobs are not checked: an absolute M, or no
            // candidate selection at all.
            config.approx.mAbsolute = 4;
            EXPECT_EQ(validateEngineConfig(config), "");
            config.approx.mAbsolute = 0;
            config.approx.candidateSelection = false;
            EXPECT_EQ(validateEngineConfig(config), "");
        }
        for (const double threshold : {0.0, -5.0, nan}) {
            config = configFor(kind);
            config.approx.thresholdPercent = threshold;
            EXPECT_NE(validateEngineConfig(config), "") << threshold;
            config.approx.postScoring = false;
            EXPECT_EQ(validateEngineConfig(config), "");
        }
        // A huge finite fraction is valid: M clamps to n.
        config = configFor(kind);
        config.approx.mFraction = 1e300;
        EXPECT_EQ(validateEngineConfig(config), "");
        EXPECT_EQ(config.approx.iterationsFor(40), 40u);
    }
    // The exact kinds ignore the approximation knobs.
    config = configFor(EngineKind::ExactFloat);
    config.approx.mFraction = nan;
    config.approx.thresholdPercent = -1.0;
    EXPECT_EQ(validateEngineConfig(config), "");
}

// -------------------------------------------------- fault injector

TEST(FaultInjectorTest, SameSeedSameDecisions)
{
    const std::vector<FaultRule> rules = {
        {FrameType::Query, false, FaultAction::Drop,
         FaultDirection::Send, 0.5, 0.0, 100}};
    FaultInjector a(42, rules);
    FaultInjector b(42, rules);
    for (int i = 0; i < 200; ++i) {
        const bool hitA =
            a.decide(FrameType::Query, FaultDirection::Send) !=
            nullptr;
        const bool hitB =
            b.decide(FrameType::Query, FaultDirection::Send) !=
            nullptr;
        EXPECT_EQ(hitA, hitB) << "decision " << i;
    }
    EXPECT_EQ(a.stats().dropped, b.stats().dropped);
    EXPECT_GT(a.stats().dropped, 0u);
    EXPECT_LT(a.stats().dropped, 200u);
}

TEST(FaultInjectorTest, RespectsTypeDirectionAndBudget)
{
    const std::vector<FaultRule> rules = {
        {FrameType::Query, false, FaultAction::Corrupt,
         FaultDirection::Send, 1.0, 0.0, 2}};
    FaultInjector injector(7, rules);

    EXPECT_EQ(injector.decide(FrameType::Heartbeat,
                              FaultDirection::Send),
              nullptr);
    EXPECT_EQ(injector.decide(FrameType::Query,
                              FaultDirection::Recv),
              nullptr);
    EXPECT_NE(injector.decide(FrameType::Query,
                              FaultDirection::Send),
              nullptr);
    EXPECT_NE(injector.decide(FrameType::Query,
                              FaultDirection::Send),
              nullptr);
    // Budget of 2 is exhausted.
    EXPECT_EQ(injector.decide(FrameType::Query,
                              FaultDirection::Send),
              nullptr);
    EXPECT_EQ(injector.stats().corrupted, 2u);
}

TEST(FaultInjectorTest, CorruptedFrameFailsRealChecksum)
{
    auto [client, server] = transportPair();
    ASSERT_NE(client, nullptr);
    auto injector = std::make_shared<FaultInjector>(
        1, std::vector<FaultRule>{{FrameType::Query, false,
                                   FaultAction::Corrupt,
                                   FaultDirection::Send, 1.0, 0.0,
                                   1}});
    FaultyTransport faulty(client, injector);

    ASSERT_TRUE(
        faulty.send(Frame{FrameType::Query, {1, 2, 3, 4}}).ok());
    Frame got;
    EXPECT_EQ(server->recv(got, 1.0).error, NetError::BadChecksum);

    // The budget is spent: the next frame arrives intact.
    ASSERT_TRUE(
        faulty.send(Frame{FrameType::Query, {5, 6}}).ok());
    ASSERT_TRUE(server->recv(got, 1.0).ok());
    EXPECT_EQ(got.payload, std::vector<std::uint8_t>({5, 6}));
    client->close();
    server->close();
}

// ------------------------------------------------------- transport

TEST(RemoteTransportTest, FirstByteTimeoutLeavesStreamUsable)
{
    auto [client, server] = transportPair();
    ASSERT_NE(client, nullptr);
    Frame got;
    EXPECT_EQ(server->recv(got, 0.02).error, NetError::Timeout);
    EXPECT_TRUE(server->isOpen());

    ASSERT_TRUE(
        client->send(Frame{FrameType::Heartbeat, {1}}).ok());
    EXPECT_TRUE(server->recv(got, 1.0).ok());
    EXPECT_EQ(got.type, FrameType::Heartbeat);
    client->close();
    server->close();
}

TEST(RemoteTransportTest, PeerCloseIsTyped)
{
    auto [client, server] = transportPair();
    ASSERT_NE(client, nullptr);
    client->close();
    Frame got;
    EXPECT_EQ(server->recv(got, 1.0).error, NetError::Closed);
    server->close();
}

// ---------------------------------------------------------- worker

/** Fixture pairing an in-process worker with a client transport. */
class RemoteWorkerTest : public ::testing::Test
{
  protected:
    RemoteWorkerTest() : worker_("w0")
    {
        client_ = worker_.clientTransport();
    }

    NetStatus
    roundTrip(const Frame &frame, Frame &reply)
    {
        NetStatus status = client_->send(frame);
        if (!status.ok())
            return status;
        return client_->recv(reply, 2.0);
    }

    InProcessWorker worker_;
    std::shared_ptr<Transport> client_;
};

TEST_F(RemoteWorkerTest, AnswersHelloAndHeartbeat)
{
    Frame reply;
    HelloPayload hello;
    ASSERT_TRUE(
        roundTrip(encodeHello(hello, false), reply).ok());
    HelloPayload ack;
    ASSERT_TRUE(decodeHello(reply, ack).ok());
    EXPECT_EQ(ack.peer, "w0");

    HeartbeatPayload beat;
    beat.sequence = 5;
    ASSERT_TRUE(
        roundTrip(encodeHeartbeat(beat, false), reply).ok());
    HeartbeatPayload beatAck;
    ASSERT_TRUE(decodeHeartbeat(reply, beatAck).ok());
    EXPECT_EQ(beatAck.sequence, 5u);
    EXPECT_EQ(beatAck.shardsBound, 0u);
}

TEST_F(RemoteWorkerTest, BindsAndAnswersBitIdenticalPartials)
{
    Rng rng(11);
    const Matrix key = randomMatrix(rng, 10, 8);
    const Matrix value = randomMatrix(rng, 10, 8);
    const EngineConfig config = configFor(EngineKind::ExactFloat);

    BindShardPayload bind;
    bind.shardId = 0;
    bind.generation = 1;
    bind.config = config;
    bind.key = key;
    bind.value = value;
    Frame reply;
    ASSERT_TRUE(roundTrip(encodeBindShard(bind), reply).ok());
    BindAckPayload ack;
    ASSERT_TRUE(decodeBindAck(reply, ack).ok());
    EXPECT_EQ(ack.generation, 1u);

    const auto local = makeBackend(config, key, value);
    const Vector query = randomQuery(rng, 8);
    QueryPayload q;
    q.requestId = 1;
    q.generation = 1;
    q.wantDetail = true;
    q.query = query;
    ASSERT_TRUE(roundTrip(encodeQuery(q), reply).ok());
    PartialReplyPayload partial;
    ASSERT_TRUE(decodePartialReply(reply, partial).ok());

    PartialResult want;
    local->runUnitPartialInto(0, query, want);
    EXPECT_EQ(partial.partial.maxScore, want.maxScore);
    EXPECT_EQ(partial.partial.expSum, want.expSum);
    expectBitIdentical(partial.partial, want);
}

TEST_F(RemoteWorkerTest, RejectsStaleGenerationAndUnknownShard)
{
    Rng rng(13);
    BindShardPayload bind;
    bind.shardId = 4;
    bind.generation = 3;
    bind.config = configFor(EngineKind::ExactFloat);
    bind.key = randomMatrix(rng, 4, 4);
    bind.value = randomMatrix(rng, 4, 4);
    Frame reply;
    ASSERT_TRUE(roundTrip(encodeBindShard(bind), reply).ok());

    QueryPayload q;
    q.requestId = 9;
    q.shardId = 4;
    q.generation = 2;  // stale
    q.query = randomQuery(rng, 4);
    ASSERT_TRUE(roundTrip(encodeQuery(q), reply).ok());
    ErrorReplyPayload error;
    ASSERT_TRUE(decodeErrorReply(reply, error).ok());
    EXPECT_EQ(error.code, NetError::StaleShard);
    EXPECT_EQ(error.requestId, 9u);

    q.shardId = 77;  // never bound
    q.generation = 3;
    q.requestId = 10;
    ASSERT_TRUE(roundTrip(encodeQuery(q), reply).ok());
    ASSERT_TRUE(decodeErrorReply(reply, error).ok());
    EXPECT_EQ(error.code, NetError::WorkerError);
}

TEST_F(RemoteWorkerTest, RejectsLethalConfigWithoutDying)
{
    Rng rng(17);
    BindShardPayload bind;
    bind.shardId = 0;
    bind.generation = 1;
    bind.config = configFor(EngineKind::ExactQuantized);
    bind.config.intBits = 0;  // makeBackend would fatal() on this
    bind.key = randomMatrix(rng, 4, 4);
    bind.value = randomMatrix(rng, 4, 4);
    Frame reply;
    ASSERT_TRUE(roundTrip(encodeBindShard(bind), reply).ok());
    ErrorReplyPayload error;
    ASSERT_TRUE(decodeErrorReply(reply, error).ok());
    EXPECT_EQ(error.code, NetError::WorkerError);

    // The worker survived and still answers.
    HeartbeatPayload beat;
    ASSERT_TRUE(
        roundTrip(encodeHeartbeat(beat, false), reply).ok());
    EXPECT_EQ(reply.type, FrameType::HeartbeatAck);
}

TEST_F(RemoteWorkerTest, RejectsHostileApproxConfigAndKeepsServing)
{
    // A NaN mFraction decodes fine but would panic the worker on its
    // first query; the bind must be refused instead.
    Rng rng(19);
    BindShardPayload bind;
    bind.shardId = 0;
    bind.generation = 1;
    bind.config = configFor(EngineKind::ApproxQuantized);
    bind.config.approx.mFraction =
        std::numeric_limits<double>::quiet_NaN();
    bind.key = randomMatrix(rng, 6, 4);
    bind.value = randomMatrix(rng, 6, 4);
    Frame reply;
    ASSERT_TRUE(roundTrip(encodeBindShard(bind), reply).ok());
    ErrorReplyPayload error;
    ASSERT_TRUE(decodeErrorReply(reply, error).ok());
    EXPECT_EQ(error.code, NetError::WorkerError);

    // Nothing was bound, and the worker still answers.
    QueryPayload q;
    q.requestId = 2;
    q.generation = 1;
    q.query = randomQuery(rng, 4);
    ASSERT_TRUE(roundTrip(encodeQuery(q), reply).ok());
    ASSERT_TRUE(decodeErrorReply(reply, error).ok());
    EXPECT_EQ(error.requestId, 2u);
    HeartbeatPayload beat;
    ASSERT_TRUE(
        roundTrip(encodeHeartbeat(beat, false), reply).ok());
    HeartbeatPayload ack;
    ASSERT_TRUE(decodeHeartbeat(reply, ack).ok());
    EXPECT_EQ(ack.shardsBound, 0u);
}

// ----------------------------------------------------- coordinator

/** In-process worker fleet + coordinator factory for the tests. */
struct Fleet
{
    std::vector<std::unique_ptr<InProcessWorker>> workers;
    std::shared_ptr<FaultInjector> injector;

    std::vector<RemoteWorkerSpec>
    specs()
    {
        std::vector<RemoteWorkerSpec> result;
        for (auto &worker : workers) {
            RemoteWorkerSpec spec;
            spec.name = worker->name();
            spec.connect = [&worker](NetStatus &) {
                return worker->clientTransport();
            };
            result.push_back(std::move(spec));
        }
        return result;
    }
};

Fleet
makeFleet(std::size_t count)
{
    Fleet fleet;
    for (std::size_t w = 0; w < count; ++w)
        fleet.workers.push_back(std::make_unique<InProcessWorker>(
            "w" + std::to_string(w)));
    return fleet;
}

RemoteShardConfig
fastConfig()
{
    RemoteShardConfig config;
    config.shardRows = 16;
    config.queryDeadlineSeconds = 0.25;
    config.heartbeatTimeoutSeconds = 0.1;
    config.retryBackoffSeconds = 0.001;
    config.retryBackoffMaxSeconds = 0.004;
    return config;
}

TEST(RemoteCoordinatorTest, BitIdenticalToShardedForEveryKind)
{
    Rng rng(101);
    const std::size_t n = 70;  // 4 x 16 + a 6-row tail
    const std::size_t d = 16;
    const Matrix key = randomMatrix(rng, n, d);
    const Matrix value = randomMatrix(rng, n, d);

    for (const EngineKind kind : kAllKinds) {
        const EngineConfig inner = configFor(kind);
        Fleet fleet = makeFleet(3);
        RemoteShardConfig config = fastConfig();
        RemoteShardCoordinator remote(inner, key, value,
                                      fleet.specs(), config);
        ShardedBackend sharded(inner, key, value,
                               ShardedConfig{config.shardRows});
        // One layout across the tiers: remote also matches a
        // store-backed session, whose full shards come from a store.
        ShardStore store;
        ShardedBackend stored(inner, key, value,
                              ShardedConfig{config.shardRows, &store});
        ASSERT_EQ(remote.rows(), sharded.rows());
        ASSERT_EQ(remote.shardCount(), 5u);
        ASSERT_EQ(stored.shardCount(), 5u);
        EXPECT_EQ(stored.shardOffset(4), 64u);

        for (int i = 0; i < 8; ++i) {
            const Vector query = randomQuery(rng, d);
            const AttentionResult got = remote.run(query);
            expectBitIdentical(got, sharded.run(query));
            expectBitIdentical(got, stored.run(query));
        }
        const RemoteCoordinatorStats stats = remote.stats();
        EXPECT_EQ(stats.localFallbacks, 0u);
        EXPECT_EQ(stats.failovers, 0u);
    }
}

TEST(RemoteCoordinatorTest, SingleShardMatchesUnshardedBitExactly)
{
    Rng rng(103);
    const Matrix key = randomMatrix(rng, 12, 8);
    const Matrix value = randomMatrix(rng, 12, 8);

    // One shard travels as an ordinary partial reply: a unit
    // partial is the backend's own answer, and it merges to itself
    // bit for bit — the quantized kinds included.
    for (const EngineKind kind : kAllKinds) {
        const EngineConfig inner = configFor(kind);
        Fleet fleet = makeFleet(1);
        RemoteShardConfig config = fastConfig();
        config.shardRows = 64;
        RemoteShardCoordinator remote(inner, key, value,
                                      fleet.specs(), config);
        ASSERT_EQ(remote.shardCount(), 1u);
        const auto plain = makeBackend(inner, key, value);
        for (int i = 0; i < 4; ++i) {
            const Vector query = randomQuery(rng, 8);
            expectBitIdentical(remote.run(query),
                               plain->run(query));
        }
    }
}

TEST(RemoteCoordinatorTest, AppendTracksShardedLayout)
{
    Rng rng(107);
    const std::size_t d = 8;
    Matrix key = randomMatrix(rng, 20, d);
    Matrix value = randomMatrix(rng, 20, d);
    const EngineConfig inner = configFor(EngineKind::ExactFloat);

    Fleet fleet = makeFleet(2);
    RemoteShardConfig config = fastConfig();
    RemoteShardCoordinator remote(inner, key, value, fleet.specs(),
                                  config);
    ShardedBackend sharded(inner, key, value,
                           ShardedConfig{config.shardRows});
    ShardStore store;
    ShardedBackend stored(inner, key, value,
                          ShardedConfig{config.shardRows, &store});

    // Crosses the capacity of the last shard and opens a new one:
    // 16 + 4 grows to 16 + 16 + 6, the store-backed tail freezing
    // on the way.
    const Matrix moreKey = randomMatrix(rng, 18, d);
    const Matrix moreValue = randomMatrix(rng, 18, d);
    remote.append(moreKey, moreValue);
    sharded.append(moreKey, moreValue);
    stored.append(moreKey, moreValue);
    ASSERT_EQ(remote.rows(), sharded.rows());
    ASSERT_EQ(remote.shardCount(), 3u);
    ASSERT_EQ(stored.shardCount(), 3u);
    EXPECT_TRUE(stored.shardHandle(1)->frozen());

    for (int i = 0; i < 6; ++i) {
        const Vector query = randomQuery(rng, d);
        const AttentionResult got = remote.run(query);
        expectBitIdentical(got, sharded.run(query));
        expectBitIdentical(got, stored.run(query));
    }
}

TEST(RemoteCoordinatorTest, ServesEverythingLocallyWithNoWorkers)
{
    Rng rng(109);
    const Matrix key = randomMatrix(rng, 40, 8);
    const Matrix value = randomMatrix(rng, 40, 8);
    const EngineConfig inner = configFor(EngineKind::ExactFloat);

    RemoteShardCoordinator remote(inner, key, value, {},
                                  fastConfig());
    ShardedBackend sharded(inner, key, value, ShardedConfig{16});
    const Vector query = randomQuery(rng, 8);
    expectBitIdentical(remote.run(query), sharded.run(query));
    EXPECT_GT(remote.stats().localFallbacks, 0u);
}

// ------------------------------------------------- fault tolerance

TEST(RemoteFaultToleranceTest, RetriesThroughDroppedQueries)
{
    Rng rng(211);
    const Matrix key = randomMatrix(rng, 48, 8);
    const Matrix value = randomMatrix(rng, 48, 8);
    const EngineConfig inner = configFor(EngineKind::ExactFloat);

    Fleet fleet = makeFleet(2);
    auto injector = std::make_shared<FaultInjector>(
        5, std::vector<FaultRule>{{FrameType::Query, false,
                                   FaultAction::Drop,
                                   FaultDirection::Send, 1.0, 0.0,
                                   2}});
    RemoteShardConfig config = fastConfig();
    config.queryDeadlineSeconds = 0.05;
    config.decorateTransport =
        [injector](std::shared_ptr<Transport> inner) {
            return std::make_shared<FaultyTransport>(
                std::move(inner), injector);
        };
    RemoteShardCoordinator remote(inner, key, value, fleet.specs(),
                                  config);
    ShardedBackend sharded(inner, key, value, ShardedConfig{16});

    for (int i = 0; i < 4; ++i) {
        const Vector query = randomQuery(rng, 8);
        expectBitIdentical(remote.run(query), sharded.run(query));
    }
    const RemoteCoordinatorStats stats = remote.stats();
    EXPECT_EQ(injector->stats().dropped, 2u);
    EXPECT_GT(stats.timeouts, 0u);
    EXPECT_GT(stats.retries, 0u);
    EXPECT_EQ(stats.localFallbacks, 0u);
}

TEST(RemoteFaultToleranceTest, RecoversFromCorruptedQueries)
{
    Rng rng(223);
    const Matrix key = randomMatrix(rng, 48, 8);
    const Matrix value = randomMatrix(rng, 48, 8);
    const EngineConfig inner = configFor(EngineKind::ApproxFloat);

    Fleet fleet = makeFleet(2);
    auto injector = std::make_shared<FaultInjector>(
        6, std::vector<FaultRule>{{FrameType::Query, false,
                                   FaultAction::Corrupt,
                                   FaultDirection::Send, 1.0, 0.0,
                                   3}});
    RemoteShardConfig config = fastConfig();
    config.decorateTransport =
        [injector](std::shared_ptr<Transport> inner) {
            return std::make_shared<FaultyTransport>(
                std::move(inner), injector);
        };
    RemoteShardCoordinator remote(inner, key, value, fleet.specs(),
                                  config);
    ShardedBackend sharded(inner, key, value, ShardedConfig{16});

    for (int i = 0; i < 4; ++i) {
        const Vector query = randomQuery(rng, 8);
        expectBitIdentical(remote.run(query), sharded.run(query));
    }
    EXPECT_EQ(injector->stats().corrupted, 3u);
    EXPECT_GT(remote.stats().retries, 0u);
    EXPECT_EQ(remote.stats().localFallbacks, 0u);
}

TEST(RemoteFaultToleranceTest, FailsOverWhenAConnectionCloses)
{
    Rng rng(227);
    const Matrix key = randomMatrix(rng, 48, 8);
    const Matrix value = randomMatrix(rng, 48, 8);
    const EngineConfig inner = configFor(EngineKind::ExactFloat);

    Fleet fleet = makeFleet(3);
    RemoteShardConfig config = fastConfig();
    config.replication = 2;
    RemoteShardCoordinator remote(inner, key, value, fleet.specs(),
                                  config);
    ShardedBackend sharded(inner, key, value, ShardedConfig{16});

    // Sanity, then kill worker 0 mid-service.
    Vector query = randomQuery(rng, 8);
    expectBitIdentical(remote.run(query), sharded.run(query));
    fleet.workers[0]->stop();

    for (int i = 0; i < 6; ++i) {
        query = randomQuery(rng, 8);
        expectBitIdentical(remote.run(query), sharded.run(query));
    }
    EXPECT_EQ(remote.workerHealth(0), WorkerHealth::Dead);
    EXPECT_GT(remote.stats().failovers +
                  remote.stats().rebinds,
              0u);
    EXPECT_EQ(remote.stats().localFallbacks, 0u);
}

TEST(RemoteFaultToleranceTest, HeartbeatMarksDeadAndReReplicates)
{
    Rng rng(229);
    const Matrix key = randomMatrix(rng, 48, 8);
    const Matrix value = randomMatrix(rng, 48, 8);
    const EngineConfig inner = configFor(EngineKind::ExactFloat);

    Fleet fleet = makeFleet(2);
    RemoteShardConfig config = fastConfig();
    RemoteShardCoordinator remote(inner, key, value, fleet.specs(),
                                  config);
    ASSERT_EQ(remote.workerHealth(0), WorkerHealth::Healthy);
    ASSERT_EQ(remote.workerHealth(1), WorkerHealth::Healthy);

    remote.heartbeat();
    EXPECT_EQ(remote.workerHealth(0), WorkerHealth::Healthy);

    fleet.workers[1]->stop();
    remote.heartbeat();  // recv on a closed socketpair: dead
    EXPECT_EQ(remote.workerHealth(1), WorkerHealth::Dead);

    // Worker 1's shards were re-replicated onto worker 0, so
    // queries proceed without local fallback.
    ShardedBackend sharded(inner, key, value, ShardedConfig{16});
    const Vector query = randomQuery(rng, 8);
    expectBitIdentical(remote.run(query), sharded.run(query));
    EXPECT_GT(remote.stats().rebinds, 0u);
    EXPECT_EQ(remote.stats().localFallbacks, 0u);
}

TEST(RemoteFaultToleranceTest, FallsBackLocallyWhenAllWorkersDie)
{
    Rng rng(233);
    const Matrix key = randomMatrix(rng, 32, 8);
    const Matrix value = randomMatrix(rng, 32, 8);
    const EngineConfig inner = configFor(EngineKind::ExactQuantized);

    Fleet fleet = makeFleet(2);
    RemoteShardConfig config = fastConfig();
    RemoteShardCoordinator remote(inner, key, value, fleet.specs(),
                                  config);
    ShardedBackend sharded(inner, key, value, ShardedConfig{16});

    for (auto &worker : fleet.workers)
        worker->stop();

    for (int i = 0; i < 3; ++i) {
        const Vector query = randomQuery(rng, 8);
        expectBitIdentical(remote.run(query), sharded.run(query));
    }
    EXPECT_GT(remote.stats().localFallbacks, 0u);
    EXPECT_EQ(remote.workerHealth(0), WorkerHealth::Dead);
    EXPECT_EQ(remote.workerHealth(1), WorkerHealth::Dead);
}

/**
 * Decodes every PartialReply it receives and hands it to `rewrite`
 * before the coordinator sees it — a worker whose replies are
 * well-formed frames with the wrong contents.
 */
class RewritingTransport final : public Transport
{
  public:
    using Rewrite = std::function<void(PartialResult &)>;

    RewritingTransport(std::shared_ptr<Transport> inner,
                       Rewrite rewrite)
        : inner_(std::move(inner)), rewrite_(std::move(rewrite))
    {
    }

    NetStatus send(const Frame &frame) override
    {
        return inner_->send(frame);
    }

    NetStatus recv(Frame &out, double timeoutSeconds) override
    {
        const NetStatus status = inner_->recv(out, timeoutSeconds);
        PartialReplyPayload reply;
        if (status.ok() && out.type == FrameType::PartialReply &&
            decodePartialReply(out, reply).ok()) {
            rewrite_(reply.partial);
            out = encodePartialReply(reply);
        }
        return status;
    }

    void close() override { inner_->close(); }
    bool isOpen() const override { return inner_->isOpen(); }

  private:
    std::shared_ptr<Transport> inner_;
    Rewrite rewrite_;
};

TEST(RemoteFaultToleranceTest, MalformedRepliesEscalateAndStayExact)
{
    // Worker 0's replies are rewritten into shapes the merge would
    // assert on. Each must count as a failed answer and escalate —
    // here to a rebind onto worker 1 — with the query still answered
    // bit-identically and the process alive.
    struct Case
    {
        const char *name;
        ResultDetail detail;
        RewritingTransport::Rewrite rewrite;
    };
    const std::vector<Case> cases = {
        {"short output", ResultDetail::Output,
         [](PartialResult &p) { p.output.pop_back(); }},
        {"dense arrays on a lean query", ResultDetail::Output,
         [](PartialResult &p) {
             p.weights.assign(16, 0.0f);
             p.scores.assign(16, 0.0f);
         }},
        {"row id outside the shard", ResultDetail::Full,
         [](PartialResult &p) { p.kept.push_back(16); }},
        {"per-row arrays of the wrong length", ResultDetail::Full,
         [](PartialResult &p) {
             p.weights.push_back(0.0f);
             p.scores.push_back(0.0f);
         }},
    };
    Rng rng(229);
    const std::size_t d = 8;
    const Matrix key = randomMatrix(rng, 48, d);
    const Matrix value = randomMatrix(rng, 48, d);
    for (std::size_t c = 0; c < cases.size(); ++c) {
        SCOPED_TRACE(cases[c].name);
        const EngineConfig inner = configFor(kAllKinds[c]);
        Fleet fleet = makeFleet(2);
        RemoteShardConfig config = fastConfig();
        auto connects = std::make_shared<std::size_t>(0);
        config.decorateTransport =
            [connects, rewrite = cases[c].rewrite](
                std::shared_ptr<Transport> transport)
            -> std::shared_ptr<Transport> {
            if ((*connects)++ != 0)
                return transport;
            return std::make_shared<RewritingTransport>(
                std::move(transport), rewrite);
        };
        RemoteShardCoordinator remote(inner, key, value, fleet.specs(),
                                      config);
        const ShardedBackend sharded(inner, key, value,
                                     ShardedConfig{16});
        AttentionResult got;
        AttentionResult want;
        for (int i = 0; i < 3; ++i) {
            const Vector query = randomQuery(rng, d);
            remote.runInto(query, got, cases[c].detail);
            sharded.runInto(query, want, cases[c].detail);
            expectBitIdentical(got, want);
        }
        // Shards 0 and 2 sit on worker 0; each is rebound once, onto
        // worker 1 (never back onto worker 0, whose reply just
        // failed), and answered there by one failover query.
        const RemoteCoordinatorStats stats = remote.stats();
        EXPECT_EQ(stats.rebinds, 2u);
        EXPECT_EQ(stats.failovers, 2u);
        EXPECT_EQ(stats.localFallbacks, 0u);
    }
}

TEST(RemoteFaultToleranceTest, DelayedRepliesAreStaleNotWrong)
{
    Rng rng(239);
    const Matrix key = randomMatrix(rng, 48, 8);
    const Matrix value = randomMatrix(rng, 48, 8);
    const EngineConfig inner = configFor(EngineKind::ExactFloat);

    Fleet fleet = makeFleet(2);
    // Delay shard replies past their deadline: each delayed reply
    // limps in during the retry's wait, exercising the stale-reply
    // discard rather than result corruption.
    auto injector = std::make_shared<FaultInjector>(
        8, std::vector<FaultRule>{{FrameType::PartialReply, false,
                                   FaultAction::Delay,
                                   FaultDirection::Recv, 1.0, 0.0,
                                   2}});
    RemoteShardConfig config = fastConfig();
    config.decorateTransport =
        [injector](std::shared_ptr<Transport> inner) {
            return std::make_shared<FaultyTransport>(
                std::move(inner), injector);
        };
    RemoteShardCoordinator remote(inner, key, value, fleet.specs(),
                                  config);
    ShardedBackend sharded(inner, key, value, ShardedConfig{16});

    for (int i = 0; i < 4; ++i) {
        const Vector query = randomQuery(rng, 8);
        expectBitIdentical(remote.run(query), sharded.run(query));
    }
    EXPECT_EQ(injector->stats().delayed, 2u);
    EXPECT_GT(remote.stats().timeouts, 0u);
}

/** Wraps only worker 0's transport (workers connect in index
 *  order) in a FaultyTransport driven by `injector`. */
TransportDecorator
faultWorkerZero(std::shared_ptr<FaultInjector> injector)
{
    auto connects = std::make_shared<std::size_t>(0);
    return [connects, injector](std::shared_ptr<Transport> transport)
               -> std::shared_ptr<Transport> {
        if ((*connects)++ != 0)
            return transport;
        return std::make_shared<FaultyTransport>(std::move(transport),
                                                 injector);
    };
}

std::shared_ptr<FaultInjector>
recvFault(FrameType type, FaultAction action, std::size_t maxTriggers)
{
    return std::make_shared<FaultInjector>(
        13, std::vector<FaultRule>{{type, false, action,
                                    FaultDirection::Recv, 1.0, 0.0,
                                    maxTriggers}});
}

TEST(RemoteFaultToleranceTest, CorruptBindAckLeavesWorkerAlive)
{
    Rng rng(241);
    const Matrix key = randomMatrix(rng, 48, 8);
    const Matrix value = randomMatrix(rng, 48, 8);
    const EngineConfig inner = configFor(EngineKind::ExactFloat);

    // The first BindAck worker 0 sends (shard 0's, at construction)
    // fails its checksum: a transient fault, so the bind moves on to
    // worker 1 and worker 0 stays alive with shard 2.
    Fleet fleet = makeFleet(2);
    auto injector = recvFault(FrameType::BindAck, FaultAction::Corrupt,
                              1);
    RemoteShardConfig config = fastConfig();
    config.decorateTransport = faultWorkerZero(injector);
    RemoteShardCoordinator remote(inner, key, value, fleet.specs(),
                                  config);
    ShardedBackend sharded(inner, key, value, ShardedConfig{16});
    EXPECT_EQ(injector->stats().corrupted, 1u);
    EXPECT_EQ(remote.stats().checksumRejects, 1u);
    EXPECT_EQ(remote.workerHealth(0), WorkerHealth::Healthy);
    EXPECT_EQ(remote.workerHealth(1), WorkerHealth::Healthy);

    for (int i = 0; i < 4; ++i) {
        const Vector query = randomQuery(rng, 8);
        expectBitIdentical(remote.run(query), sharded.run(query));
    }
    EXPECT_EQ(remote.stats().localFallbacks, 0u);
}

TEST(RemoteFaultToleranceTest, LostHeartbeatAcksMakeSuspectThenDead)
{
    Rng rng(251);
    const Matrix key = randomMatrix(rng, 48, 8);
    const Matrix value = randomMatrix(rng, 48, 8);
    const EngineConfig inner = configFor(EngineKind::ExactFloat);

    Fleet fleet = makeFleet(2);
    RemoteShardConfig config = fastConfig();
    config.decorateTransport = faultWorkerZero(
        recvFault(FrameType::HeartbeatAck, FaultAction::Drop,
                  std::numeric_limits<std::size_t>::max()));
    RemoteShardCoordinator remote(inner, key, value, fleet.specs(),
                                  config);

    remote.heartbeat();
    EXPECT_EQ(remote.workerHealth(0), WorkerHealth::Suspect);
    EXPECT_EQ(remote.workerHealth(1), WorkerHealth::Healthy);
    EXPECT_EQ(remote.stats().timeouts, 1u);

    // A second consecutive miss kills worker 0, and its shards 0
    // and 2 are re-replicated onto worker 1.
    remote.heartbeat();
    EXPECT_EQ(remote.workerHealth(0), WorkerHealth::Dead);
    EXPECT_EQ(remote.workerHealth(1), WorkerHealth::Healthy);
    EXPECT_EQ(remote.stats().timeouts, 2u);
    EXPECT_EQ(remote.stats().rebinds, 2u);

    ShardedBackend sharded(inner, key, value, ShardedConfig{16});
    for (int i = 0; i < 4; ++i) {
        const Vector query = randomQuery(rng, 8);
        expectBitIdentical(remote.run(query), sharded.run(query));
    }
    EXPECT_EQ(remote.stats().localFallbacks, 0u);
}

TEST(RemoteFaultToleranceTest, ConnectionErrorFailsHeartbeatAtOnce)
{
    Rng rng(263);
    const Matrix key = randomMatrix(rng, 48, 8);
    const Matrix value = randomMatrix(rng, 48, 8);
    const EngineConfig inner = configFor(EngineKind::ExactFloat);

    // Worker 0 receives a corrupted Heartbeat and answers with a
    // connection-level ErrorReply: the probe fails on that report,
    // without waiting out its timeout or counting a miss.
    Fleet fleet = makeFleet(2);
    auto injector = std::make_shared<FaultInjector>(
        17, std::vector<FaultRule>{{FrameType::Heartbeat, false,
                                    FaultAction::Corrupt,
                                    FaultDirection::Send, 1.0, 0.0,
                                    1}});
    RemoteShardConfig config = fastConfig();
    config.decorateTransport = faultWorkerZero(injector);
    RemoteShardCoordinator remote(inner, key, value, fleet.specs(),
                                  config);

    remote.heartbeat();
    EXPECT_EQ(injector->stats().corrupted, 1u);
    EXPECT_EQ(remote.workerHealth(0), WorkerHealth::Healthy);
    const RemoteCoordinatorStats stats = remote.stats();
    EXPECT_EQ(stats.timeouts, 0u);
    EXPECT_EQ(stats.staleReplies, 0u);

    ShardedBackend sharded(inner, key, value, ShardedConfig{16});
    const Vector query = randomQuery(rng, 8);
    expectBitIdentical(remote.run(query), sharded.run(query));
    EXPECT_EQ(remote.stats().localFallbacks, 0u);
}

TEST(RemoteFaultToleranceTest, LostHelloAckCountsATimeout)
{
    Rng rng(257);
    const Matrix key = randomMatrix(rng, 48, 8);
    const Matrix value = randomMatrix(rng, 48, 8);
    const EngineConfig inner = configFor(EngineKind::ExactFloat);

    // Worker 0's handshake never completes: it starts out dead, and
    // worker 1 holds and serves every shard.
    Fleet fleet = makeFleet(2);
    RemoteShardConfig config = fastConfig();
    config.decorateTransport = faultWorkerZero(
        recvFault(FrameType::HelloAck, FaultAction::Drop, 1));
    RemoteShardCoordinator remote(inner, key, value, fleet.specs(),
                                  config);
    EXPECT_EQ(remote.workerHealth(0), WorkerHealth::Dead);
    EXPECT_EQ(remote.workerHealth(1), WorkerHealth::Healthy);
    EXPECT_EQ(remote.stats().timeouts, 1u);

    ShardedBackend sharded(inner, key, value, ShardedConfig{16});
    for (int i = 0; i < 4; ++i) {
        const Vector query = randomQuery(rng, 8);
        expectBitIdentical(remote.run(query), sharded.run(query));
    }
    const RemoteCoordinatorStats stats = remote.stats();
    EXPECT_EQ(stats.timeouts, 1u);
    EXPECT_EQ(stats.failovers, 0u);
    EXPECT_EQ(stats.localFallbacks, 0u);
}

/**
 * The serving tier above the coordinator: a BatchScheduler drains a
 * session whose backend is a RemoteShardCoordinator while one of
 * its workers dies between submit and drain. The failover happens
 * inside the drain's engine pass; completions must stay in ticket
 * order across the boundary and bit-identical to the in-process
 * ShardedBackend.
 */
TEST(RemoteFaultToleranceTest, SchedulerDrainSurvivesFailover)
{
    Rng rng(401);
    const std::size_t d = 8;
    const Matrix key = randomMatrix(rng, 48, d);
    const Matrix value = randomMatrix(rng, 48, d);
    const EngineConfig inner = configFor(EngineKind::ExactFloat);

    Fleet fleet = makeFleet(3);
    RemoteShardConfig config = fastConfig();
    config.replication = 2;
    auto remote = std::make_shared<RemoteShardCoordinator>(
        inner, key, value, fleet.specs(), config);
    ShardedBackend sharded(inner, key, value, ShardedConfig{16});

    AttentionEngine engine(2);
    SessionCache cache;
    BatchScheduler scheduler(engine, cache);
    cache.insert("remote", remote);
    const SessionHandle handle = cache.lookupSession("remote");
    const SubmitOptions full{.detail = ResultDetail::Full};

    std::vector<std::uint64_t> tickets;
    std::vector<Vector> queries;
    const auto submitWave = [&](int count) {
        for (int i = 0; i < count; ++i) {
            Vector q = randomQuery(rng, d);
            const AdmissionOutcome outcome =
                scheduler.submit(handle, q, full);
            ASSERT_TRUE(outcome.admitted());
            tickets.push_back(outcome.ticket);
            queries.push_back(std::move(q));
        }
    };
    const auto expectWave =
        [&](const std::vector<ServingResult> &completions,
            std::size_t firstIndex) {
            for (std::size_t i = 0; i < completions.size(); ++i) {
                SCOPED_TRACE("completion " + std::to_string(i));
                const std::size_t at = firstIndex + i;
                EXPECT_EQ(completions[i].ticket, tickets[at]);
                EXPECT_TRUE(completions[i].ok());
                expectBitIdentical(completions[i].result,
                                   sharded.run(queries[at]));
            }
        };

    submitWave(4);
    const auto healthy = scheduler.drain();
    ASSERT_EQ(healthy.size(), 4u);
    expectWave(healthy, 0);

    // Worker death lands between submit and drain: the coordinator
    // fails over / rebinds inside the drain's engine pass.
    submitWave(4);
    fleet.workers[0]->stop();
    const auto failedOver = scheduler.drain();
    ASSERT_EQ(failedOver.size(), 4u);
    expectWave(failedOver, 4);
    EXPECT_GT(remote->stats().failovers + remote->stats().rebinds,
              0u);

    // Tickets stay globally ordered across the failover boundary,
    // and the recovered backend keeps answering further drains.
    EXPECT_LT(healthy.back().ticket, failedOver.front().ticket);
    submitWave(2);
    const auto recovered = scheduler.drain();
    ASSERT_EQ(recovered.size(), 2u);
    expectWave(recovered, 8);
    EXPECT_EQ(remote->workerHealth(0), WorkerHealth::Dead);
}

// -------------------------------------------------- real processes

bool
workerBinaryAvailable()
{
    const std::string bin = A3_SHARD_WORKER_BIN;
    return !bin.empty() && access(bin.c_str(), X_OK) == 0;
}

std::string
socketPath(const std::string &tag)
{
    return "/tmp/a3_remote_test_" + tag + "_" +
           std::to_string(getpid()) + ".sock";
}

TEST(RemoteProcessTest, RealWorkersAreBitIdentical)
{
    if (!workerBinaryAvailable())
        GTEST_SKIP() << "shard_worker binary not built";
    Rng rng(307);
    const Matrix key = randomMatrix(rng, 48, 8);
    const Matrix value = randomMatrix(rng, 48, 8);
    const EngineConfig inner = configFor(EngineKind::ApproxQuantized);

    std::vector<ChildProcess> procs(2);
    std::vector<RemoteWorkerSpec> specs;
    for (std::size_t w = 0; w < procs.size(); ++w) {
        const std::string path =
            socketPath("ident" + std::to_string(w));
        ASSERT_TRUE(procs[w]
                        .spawn(A3_SHARD_WORKER_BIN,
                               {path, "p" + std::to_string(w)})
                        .ok());
        specs.push_back(
            unixWorkerSpec("p" + std::to_string(w), path, 3.0));
    }

    RemoteShardConfig config = fastConfig();
    config.queryDeadlineSeconds = 2.0;
    RemoteShardCoordinator remote(inner, key, value, specs,
                                  config);
    ShardedBackend sharded(inner, key, value, ShardedConfig{16});
    for (int i = 0; i < 6; ++i) {
        const Vector query = randomQuery(rng, 8);
        expectBitIdentical(remote.run(query), sharded.run(query));
    }
    EXPECT_EQ(remote.stats().localFallbacks, 0u);
}

TEST(RemoteProcessTest, SurvivesSigkilledWorker)
{
    if (!workerBinaryAvailable())
        GTEST_SKIP() << "shard_worker binary not built";
    Rng rng(311);
    const Matrix key = randomMatrix(rng, 64, 8);
    const Matrix value = randomMatrix(rng, 64, 8);
    const EngineConfig inner = configFor(EngineKind::ExactFloat);

    std::vector<ChildProcess> procs(3);
    std::vector<RemoteWorkerSpec> specs;
    for (std::size_t w = 0; w < procs.size(); ++w) {
        const std::string path =
            socketPath("kill" + std::to_string(w));
        ASSERT_TRUE(procs[w]
                        .spawn(A3_SHARD_WORKER_BIN,
                               {path, "k" + std::to_string(w)})
                        .ok());
        specs.push_back(
            unixWorkerSpec("k" + std::to_string(w), path, 3.0));
    }

    RemoteShardConfig config = fastConfig();
    config.queryDeadlineSeconds = 0.5;
    RemoteShardCoordinator remote(inner, key, value, specs,
                                  config);
    ShardedBackend sharded(inner, key, value, ShardedConfig{16});

    Vector query = randomQuery(rng, 8);
    expectBitIdentical(remote.run(query), sharded.run(query));

    // SIGKILL one worker: the kernel closes its sockets, and the
    // next queries must fail over with zero wrong answers.
    procs[1].kill();
    procs[1].wait();

    for (int i = 0; i < 8; ++i) {
        query = randomQuery(rng, 8);
        expectBitIdentical(remote.run(query), sharded.run(query));
    }
    EXPECT_EQ(remote.workerHealth(1), WorkerHealth::Dead);
    EXPECT_GT(remote.stats().failovers + remote.stats().rebinds,
              0u);
    EXPECT_EQ(remote.stats().localFallbacks, 0u);
}

}  // namespace
}  // namespace a3
