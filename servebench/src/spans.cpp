#include "spans.hpp"

#include <chrono>
#include <cstdio>
#include <thread>

#include "net/frame.hpp"

namespace servebench {

namespace {

thread_local std::uint64_t tCurrentSpan = 0;

std::uint32_t
threadNumber()
{
    static std::atomic<std::uint32_t> next{0};
    thread_local const std::uint32_t mine = next.fetch_add(1) + 1;
    return mine;
}

using Clock = std::chrono::steady_clock;

const Clock::time_point &
epoch()
{
    static const Clock::time_point start = Clock::now();
    return start;
}

}  // namespace

double
now()
{
    return std::chrono::duration<double>(Clock::now() - epoch()).count();
}

void
sleepUntil(double seconds)
{
    std::this_thread::sleep_until(
        epoch() + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(seconds)));
}

void
SpanRecorder::add(const Span &span,
                  const std::vector<std::uint64_t> *tickets)
{
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(span);
    if (tickets != nullptr && !tickets->empty()) {
        spans_.back().ticketFirst =
            static_cast<std::uint32_t>(tickets_.size());
        spans_.back().ticketCount =
            static_cast<std::uint32_t>(tickets->size());
        tickets_.insert(tickets_.end(), tickets->begin(), tickets->end());
    }
}

bool
SpanRecorder::writeChromeTrace(const std::string &path) const
{
    std::FILE *out = std::fopen(path.c_str(), "w");
    if (out == nullptr)
        return false;
    std::fprintf(out, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(out,
                     "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                     "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, "
                     "\"args\": {\"id\": %llu, \"parent\": %llu, "
                     "\"request\": %llu",
                     i == 0 ? "" : ",\n", s.name, s.thread,
                     s.start * 1e6, (s.end - s.start) * 1e6,
                     static_cast<unsigned long long>(s.id),
                     static_cast<unsigned long long>(s.parent),
                     static_cast<unsigned long long>(s.request));
        if (s.status >= 0)
            std::fprintf(out, ", \"status\": %d", s.status);
        if (s.ticketCount > 0) {
            std::fprintf(out, ", \"tickets\": [");
            for (std::uint32_t t = 0; t < s.ticketCount; ++t)
                std::fprintf(out, "%s%llu", t == 0 ? "" : ", ",
                             static_cast<unsigned long long>(
                                 tickets_[s.ticketFirst + t]));
            std::fprintf(out, "]");
        }
        std::fprintf(out, "}}");
    }
    std::fprintf(out, "\n]}\n");
    return std::fclose(out) == 0;
}

ScopedSpan::ScopedSpan(SpanRecorder *recorder, const char *name,
                       std::uint64_t request)
{
    if (recorder == nullptr || !recorder->enabled())
        return;
    recorder_ = recorder;
    span_.name = name;
    span_.request = request;
    span_.id = recorder->nextId();
    span_.parent = tCurrentSpan;
    span_.thread = threadNumber();
    savedParent_ = tCurrentSpan;
    tCurrentSpan = span_.id;
    span_.start = now();
}

ScopedSpan::~ScopedSpan()
{
    if (recorder_ == nullptr)
        return;
    span_.end = now();
    tCurrentSpan = savedParent_;
    recorder_->add(span_, &tickets_);
}

void
ScopedSpan::addTicket(std::uint64_t ticket)
{
    if (recorder_ != nullptr)
        tickets_.push_back(ticket);
}

CountingTransport::CountingTransport(std::shared_ptr<a3::Transport> inner,
                                     NetCounters &counters,
                                     SpanRecorder *spans)
    : inner_(std::move(inner)), counters_(counters), spans_(spans)
{
}

a3::NetStatus
CountingTransport::send(const a3::Frame &frame)
{
    ScopedSpan span(spans_, "net.send");
    counters_.frames.fetch_add(1, std::memory_order_relaxed);
    counters_.bytes.fetch_add(a3::kFrameHeaderBytes + frame.payload.size(),
                              std::memory_order_relaxed);
    return inner_->send(frame);
}

a3::NetStatus
CountingTransport::recv(a3::Frame &out, double timeoutSeconds)
{
    ScopedSpan span(spans_, "net.recv");
    a3::NetStatus status = inner_->recv(out, timeoutSeconds);
    if (status.ok()) {
        counters_.frames.fetch_add(1, std::memory_order_relaxed);
        counters_.bytes.fetch_add(a3::kFrameHeaderBytes + out.payload.size(),
                                  std::memory_order_relaxed);
    }
    return status;
}

}  // namespace servebench
