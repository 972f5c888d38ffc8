/**
 * @file
 * In-memory span recording for the traced run, plus the transport
 * wrapper that counts and times every remote frame.
 *
 * Spans are recorded by the benchmark around the calls it makes into
 * each layer (submit, drain, bind, append, lookup, transport send and
 * receive); nothing inside the library is instrumented. Each span has
 * a name, start, end, the span that was open on the same thread when
 * it began (its parent), and the scheduler ticket of the request it
 * served, if any. Spans stay in memory and are written out once, at
 * exit, as Chrome trace-event JSON.
 */

#ifndef SERVEBENCH_SPANS_HPP
#define SERVEBENCH_SPANS_HPP

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "net/transport.hpp"

namespace servebench {

/** Seconds on the steady clock since the first call. */
double now();

/** Sleep until now() reaches `seconds`. */
void sleepUntil(double seconds);

struct Span
{
    const char *name = "";
    double start = 0.0;
    double end = 0.0;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    /** Scheduler ticket of the request the span served; 0 = none. */
    std::uint64_t request = 0;
    std::uint32_t thread = 0;
    /** Drain spans: tickets served, as [first, first + count) of
     *  SpanRecorder::tickets(). */
    std::uint32_t ticketFirst = 0;
    std::uint32_t ticketCount = 0;
    /** Bind spans: BindStatus as an integer; -1 otherwise. */
    int status = -1;
};

class SpanRecorder
{
  public:
    /** Recording is on only while enabled; a disabled recorder
     *  costs one relaxed load per call site. */
    void setEnabled(bool enabled) { enabled_.store(enabled); }
    bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

    std::uint64_t nextId() { return nextId_.fetch_add(1) + 1; }

    void add(const Span &span, const std::vector<std::uint64_t> *tickets);

    /** Spans and tickets recorded so far (call after the serving
     *  threads have stopped). */
    const std::vector<Span> &spans() const { return spans_; }
    const std::vector<std::uint64_t> &tickets() const { return tickets_; }

    /** Write Chrome trace-event JSON; false on an I/O error. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    std::atomic<bool> enabled_{false};
    std::atomic<std::uint64_t> nextId_{0};
    std::mutex mutex_;
    std::vector<Span> spans_;
    std::vector<std::uint64_t> tickets_;
};

/**
 * RAII span: begins at construction when `recorder` is non-null and
 * enabled, records at destruction. Spans opened on one thread nest:
 * the innermost open span is the parent of the next.
 */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder *recorder, const char *name,
               std::uint64_t request = 0);
    ~ScopedSpan();

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    bool active() const { return recorder_ != nullptr; }
    void setRequest(std::uint64_t ticket) { span_.request = ticket; }
    void setStatus(int status) { span_.status = status; }
    void addTicket(std::uint64_t ticket);

  private:
    SpanRecorder *recorder_ = nullptr;
    Span span_;
    std::uint64_t savedParent_ = 0;
    std::vector<std::uint64_t> tickets_;
};

/** Byte, frame and time counters of every coordinator transport. */
struct NetCounters
{
    std::atomic<std::uint64_t> bytes{0};
    std::atomic<std::uint64_t> frames{0};
};

/**
 * Transport decorator installed through
 * RemoteShardConfig::decorateTransport: forwards every call, counts
 * frames and bytes (header included) in both directions, and records
 * "net.send" / "net.recv" spans when tracing.
 */
class CountingTransport final : public a3::Transport
{
  public:
    CountingTransport(std::shared_ptr<a3::Transport> inner,
                      NetCounters &counters, SpanRecorder *spans);

    a3::NetStatus send(const a3::Frame &frame) override;
    a3::NetStatus recv(a3::Frame &out, double timeoutSeconds) override;
    void close() override { inner_->close(); }
    bool isOpen() const override { return inner_->isOpen(); }

  private:
    std::shared_ptr<a3::Transport> inner_;
    NetCounters &counters_;
    SpanRecorder *spans_;
};

}  // namespace servebench

#endif  // SERVEBENCH_SPANS_HPP
