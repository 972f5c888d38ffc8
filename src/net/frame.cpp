#include "net/frame.hpp"

#include <string>

#include "net/wire.hpp"

namespace a3 {

bool
frameTypeKnown(std::uint16_t raw)
{
    return raw >= static_cast<std::uint16_t>(FrameType::Hello) &&
           raw <= static_cast<std::uint16_t>(FrameType::Shutdown) &&
           raw != 7;  // retired in protocol version 3
}

const char *
frameTypeName(FrameType type)
{
    switch (type) {
    case FrameType::Hello:
        return "hello";
    case FrameType::HelloAck:
        return "hello-ack";
    case FrameType::BindShard:
        return "bind-shard";
    case FrameType::BindAck:
        return "bind-ack";
    case FrameType::Query:
        return "query";
    case FrameType::PartialReply:
        return "partial-reply";
    case FrameType::Heartbeat:
        return "heartbeat";
    case FrameType::HeartbeatAck:
        return "heartbeat-ack";
    case FrameType::ErrorReply:
        return "error-reply";
    case FrameType::Shutdown:
        return "shutdown";
    }
    return "unknown";
}

std::vector<std::uint8_t>
encodeFrame(const Frame &frame)
{
    WireWriter header;
    header.u32(kFrameMagic);
    header.u16(kProtocolVersion);
    header.u16(static_cast<std::uint16_t>(frame.type));
    header.u32(static_cast<std::uint32_t>(frame.payload.size()));
    header.u32(fnv1a(frame.payload.data(), frame.payload.size()));

    std::vector<std::uint8_t> out = header.take();
    out.insert(out.end(), frame.payload.begin(),
               frame.payload.end());
    return out;
}

NetStatus
decodeFrameHeader(const std::uint8_t *data, std::size_t size,
                  FrameHeader &header)
{
    if (size < kFrameHeaderBytes)
        return NetStatus::failure(NetError::Malformed,
                                  "short frame header");
    WireReader reader(data, kFrameHeaderBytes);
    const std::uint32_t magic = reader.u32();
    const std::uint16_t version = reader.u16();
    const std::uint16_t rawType = reader.u16();
    const std::uint32_t length = reader.u32();
    const std::uint32_t checksum = reader.u32();

    if (magic != kFrameMagic)
        return NetStatus::failure(NetError::Malformed,
                                  "bad frame magic");
    if (version != kProtocolVersion)
        return NetStatus::failure(
            NetError::BadVersion,
            "unsupported protocol version " +
                std::to_string(version));
    if (!frameTypeKnown(rawType))
        return NetStatus::failure(NetError::Malformed,
                                  "unknown frame type " +
                                      std::to_string(rawType));
    if (length > kMaxFramePayload)
        return NetStatus::failure(NetError::Malformed,
                                  "payload length " +
                                      std::to_string(length) +
                                      " exceeds frame cap");

    header.version = version;
    header.type = static_cast<FrameType>(rawType);
    header.payloadLength = length;
    header.checksum = checksum;
    return NetStatus::success();
}

NetStatus
verifyFramePayload(const FrameHeader &header,
                   const std::vector<std::uint8_t> &payload)
{
    if (payload.size() != header.payloadLength)
        return NetStatus::failure(NetError::Malformed,
                                  "payload size mismatch");
    if (fnv1a(payload.data(), payload.size()) != header.checksum)
        return NetStatus::failure(
            NetError::BadChecksum,
            std::string("payload checksum mismatch on ") +
                frameTypeName(header.type) + " frame");
    return NetStatus::success();
}

}  // namespace a3
