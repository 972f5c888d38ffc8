#include "net/fault_injector.hpp"

#include <utility>

#include "util/stats.hpp"

namespace a3 {

namespace {

bool
directionMatches(FaultDirection rule, FaultDirection actual)
{
    return rule == FaultDirection::Both || rule == actual;
}

}  // namespace

FaultInjector::FaultInjector(std::uint64_t seed,
                             std::vector<FaultRule> rules)
    : rng_(seed)
{
    rules_.reserve(rules.size());
    for (FaultRule &rule : rules)
        rules_.push_back({std::move(rule), 0});
}

const FaultRule *
FaultInjector::decide(FrameType type, FaultDirection direction)
{
    const std::lock_guard<std::mutex> lock(mutex_);
    for (ArmedRule &armed : rules_) {
        const FaultRule &rule = armed.rule;
        if (!rule.anyType && rule.type != type)
            continue;
        if (!directionMatches(rule.direction, direction))
            continue;
        if (armed.triggered >= rule.maxTriggers)
            continue;
        // The probability draw is consumed even when it misses, so
        // the decision stream stays a pure function of (seed,
        // matching-frame sequence).
        if (!rng_.bernoulli(rule.probability))
            continue;
        ++armed.triggered;
        switch (rule.action) {
        case FaultAction::Drop:
            ++stats_.dropped;
            break;
        case FaultAction::Delay:
            ++stats_.delayed;
            break;
        case FaultAction::Corrupt:
            ++stats_.corrupted;
            break;
        case FaultAction::Close:
            ++stats_.closed;
            break;
        }
        return &armed.rule;
    }
    return nullptr;
}

FaultStats
FaultInjector::stats() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

FaultyTransport::FaultyTransport(
    std::shared_ptr<Transport> inner,
    std::shared_ptr<FaultInjector> injector)
    : inner_(std::move(inner)), injector_(std::move(injector))
{
}

NetStatus
FaultyTransport::send(const Frame &frame)
{
    const FaultRule *rule =
        injector_->decide(frame.type, FaultDirection::Send);
    if (rule == nullptr)
        return inner_->send(frame);
    switch (rule->action) {
    case FaultAction::Drop:
        // Pretend success: the caller believes the frame left, the
        // peer never sees it, and the reply deadline fires.
        return NetStatus::success();
    case FaultAction::Delay:
        sleepSeconds(rule->delaySeconds);
        return inner_->send(frame);
    case FaultAction::Corrupt: {
        // Flip one payload byte *after* framing, so the frame on
        // the wire carries a checksum computed over the original
        // payload — the receiver's real verification rejects it.
        auto *socket =
            dynamic_cast<SocketTransport *>(inner_.get());
        if (socket != nullptr) {
            std::vector<std::uint8_t> bytes = encodeFrame(frame);
            const std::size_t flip =
                frame.payload.empty()
                    ? kFrameHeaderBytes - 1  // checksum byte
                    : kFrameHeaderBytes + frame.payload.size() / 2;
            bytes[flip] ^= 0x40;
            return socket->sendRawBytes(bytes.data(),
                                        bytes.size());
        }
        // Non-socket inner transport: mangle the frame type to an
        // unknown value instead; the receiver strictly rejects it
        // as Malformed before interpreting a payload byte.
        Frame mangled = frame;
        mangled.type = static_cast<FrameType>(0x7F00);
        return inner_->send(mangled);
    }
    case FaultAction::Close:
        inner_->close();
        return NetStatus::failure(NetError::Closed,
                                  "fault injection closed the "
                                  "connection");
    }
    return inner_->send(frame);
}

NetStatus
FaultyTransport::recv(Frame &out, double timeoutSeconds)
{
    if (!delayed_.empty()) {
        // A previously delayed frame limps in ahead of anything
        // new on the wire.
        out = std::move(delayed_.front());
        delayed_.erase(delayed_.begin());
        return NetStatus::success();
    }
    const double deadline =
        timeoutSeconds < 0 ? -1.0 : nowSeconds() + timeoutSeconds;
    for (;;) {
        const double remaining =
            deadline < 0 ? -1.0 : deadline - nowSeconds();
        if (deadline >= 0 && remaining <= 0)
            return NetStatus::failure(
                NetError::Timeout,
                "timed out waiting for a frame");
        NetStatus status = inner_->recv(out, remaining);
        if (!status.ok())
            return status;
        const FaultRule *rule =
            injector_->decide(out.type, FaultDirection::Recv);
        if (rule == nullptr)
            return status;
        switch (rule->action) {
        case FaultAction::Drop:
            // Discard and keep listening: to the caller this is a
            // lost reply, surfacing as its deadline firing.
            continue;
        case FaultAction::Delay:
            // The reply missed this wait: surface the timeout now
            // and deliver the frame on the next recv — exactly a
            // reply that limps in after the caller's deadline,
            // which is what the stale-reply discard path handles.
            delayed_.push_back(std::move(out));
            return NetStatus::failure(
                NetError::Timeout,
                "fault injection delayed the frame past the "
                "deadline");
        case FaultAction::Corrupt:
            // The inner transport already verified the real
            // checksum, so corruption-on-receive synthesizes the
            // rejection the caller would have seen.
            return NetStatus::failure(
                NetError::BadChecksum,
                "fault injection corrupted the frame");
        case FaultAction::Close:
            inner_->close();
            return NetStatus::failure(
                NetError::Closed,
                "fault injection closed the connection");
        }
    }
}

}  // namespace a3
