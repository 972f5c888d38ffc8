/**
 * @file
 * One workload served through the real serving path: SessionCache +
 * ShardStore + BatchScheduler + AttentionEngine, and for remote
 * workloads a RemoteShardCoordinator over shard_worker processes.
 *
 * Threads: the caller's thread is the load generator; one serving
 * thread applies session opens and appends and calls drain(); the
 * engine adds engineLanes - 1 pool threads. The generator submits
 * queries of bound sessions itself (BatchScheduler::submit is
 * thread-safe) and hands opens, appends, and queries of sessions
 * with an open or append still queued to the serving thread, which
 * applies them in order between drains. Before an append it drains
 * the session's queued queries, so every answer was computed on a
 * known context length — which is what the correctness check
 * re-binds.
 */

#ifndef SERVEBENCH_SERVING_RUN_HPP
#define SERVEBENCH_SERVING_RUN_HPP

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "engine/engine.hpp"
#include "net/process.hpp"
#include "serving/batch_scheduler.hpp"
#include "serving/remote_coordinator.hpp"
#include "serving/session_cache.hpp"
#include "serving/shard_store.hpp"
#include "spans.hpp"
#include "trace/trace.hpp"
#include "workloads.hpp"

namespace servebench {

enum class Phase : std::uint8_t {
    Setup,
    Unloaded,     ///< closed loop, one request outstanding
    Open,         ///< open loop at the nominal rate
    OpenTraced,   ///< traced runs: the open loop's traced slices
    Saturated,    ///< closed loop, saturatedWindow outstanding
};

enum class RequestState : std::uint8_t {
    Pending,
    Answered,
    Refused,   ///< shed by admission control
    Failed,
};

/** One query occurrence of the trace. */
struct RequestRecord
{
    std::uint32_t session = 0;
    std::uint64_t querySeed = 0;
    Phase phase = Phase::Setup;
    RequestState state = RequestState::Pending;
    bool sampled = false;
    /** Steady-clock seconds: when it was due, when the scheduler
     *  accepted it (last submit), when its answer was returned. */
    double due = 0.0;
    double submit = 0.0;
    double answer = 0.0;
    std::uint64_t ticket = 0;
};

/** A served answer kept for the correctness check. */
struct SampledAnswer
{
    std::size_t request = 0;
    std::uint32_t session = 0;
    std::uint64_t contentSeed = 0;
    std::uint32_t document = 0;
    std::uint32_t rows = 0;
    std::uint64_t querySeed = 0;
    std::vector<float> output;
};

/** A latency sample tagged with the phase it was taken in and the
 *  steady-clock second it was due. */
struct PhaseSample
{
    double ms = 0.0;
    Phase phase = Phase::Setup;
    double due = 0.0;
};

/** Document content shared by every session bound to it. */
struct CatalogDocument
{
    std::uint64_t contentSeed = 0;
    std::shared_ptr<const a3::Matrix> key;
    std::shared_ptr<const a3::Matrix> value;
};

class ServingRun
{
  public:
    ServingRun(const WorkloadSpec &spec, const a3::Trace &trace,
               std::string workDir, std::uint64_t seed,
               SpanRecorder *spans);
    ~ServingRun();

    ServingRun(const ServingRun &) = delete;
    ServingRun &operator=(const ServingRun &) = delete;

    /** Build the stack, bind the catalog and the pre-bound
     *  sessions, spawn and load remote workers, warm the engine.
     *  Returns the seconds it took. */
    double setUp();

    void startServing();
    /** Stop and join the serving thread (idempotent). */
    void stopServing();

    /** Closed loop: keep `window` requests outstanding for
     *  `seconds`, then wait for them. A request is a turn: a query
     *  with the open or append the trace emits with it. Returns the
     *  measured span (start, end) of the loop. */
    std::pair<double, double> runClosed(Phase phase, std::size_t window,
                                        double seconds);

    /** Open loop: release the next events at their trace times
     *  (rebased to now) for `seconds`, then wait for them. With
     *  `alternateTracing`, span recording is switched on for every
     *  other slice of the loop and requests released in those slices
     *  are tagged OpenTraced, so traced and untraced requests see
     *  the same evolving state. */
    std::pair<double, double> runOpen(double seconds, bool alternateTracing);

    /** True when some phase gave up waiting for its requests. */
    bool stalled() const { return stalled_; }

    // -- results (read after stopServing) -------------------------
    const std::vector<RequestRecord> &requests() const { return requests_; }
    std::size_t requestCount() const { return nextRequest_; }
    const std::vector<SampledAnswer> &samples() const { return samples_; }
    const std::vector<PhaseSample> &firstAnswers() const { return firstAnswers_; }
    const std::vector<PhaseSample> &appendLatencies() const { return appendLatencies_; }
    const std::vector<double> &generatorLateness() const { return lateness_; }
    /** Completions that found their session evicted (re-opened and
     *  resubmitted, so not answers). */
    std::size_t unboundCompletions() const { return unboundCompletions_; }
    std::size_t peakChargedBytes() const { return peakChargedBytes_; }

    a3::BatchSchedulerStats schedulerStats() const;
    a3::SessionCacheStats cacheStats() const;
    /** Store counters at the end of set-up and now; zeros without a
     *  store. */
    a3::ShardStoreStats storeStatsAfterSetup() const { return storeAfterSetup_; }
    a3::ShardStoreStats storeStats() const;
    a3::RemoteCoordinatorStats remoteStats() const;
    const NetCounters &net() const { return net_; }
    std::uint64_t netBytesAfterSetup() const { return netBytesAfterSetup_; }
    std::uint64_t netFramesAfterSetup() const { return netFramesAfterSetup_; }

    const WorkloadSpec &spec() const { return spec_; }
    const std::vector<CatalogDocument> &catalog() const { return catalog_; }
    /** The remote coordinator (remote workloads), else nullptr. */
    const a3::AttentionBackend *coordinator() const { return coordinator_.get(); }

  private:
    struct Session
    {
        std::string id;
        // Serving-thread state (set-up writes it before the thread
        // starts).
        bool known = false;
        std::uint64_t contentSeed = 0;
        std::uint32_t document = a3::kPrivateDocument;
        std::uint32_t rows = 0;
        a3::SessionHandle handle;
        /** Due time of the open whose first answer is awaited;
         *  < 0 when none. */
        double openDue = -1.0;
        Phase openPhase = Phase::Setup;
        // Guarded by mu_: ops for this session still in the inbox.
        std::uint32_t queuedOps = 0;
    };

    struct Op
    {
        a3::TraceEventKind kind = a3::TraceEventKind::Query;
        std::uint32_t session = 0;
        std::uint32_t rows = 0;
        std::uint64_t seed = 0;
        std::uint32_t document = 0;
        double due = 0.0;
        Phase phase = Phase::Setup;
        std::size_t request = 0;
    };

    // -- generator side -------------------------------------------
    void release(const a3::TraceEvent &event, double due, Phase phase);
    void pushOp(const Op &op);
    /** Wait until every released item completed; false on timeout. */
    bool waitIdle(double timeoutSeconds);

    // -- either thread --------------------------------------------
    /** Submit request `index` against `handle` (holds mu_ across the
     *  submit so the drain can always find the ticket). */
    void submitRequest(std::size_t index, const a3::SessionHandle &handle);

    // -- serving thread -------------------------------------------
    void serveLoop();
    void applyOp(const Op &op);
    void applyAppend(const Op &op);
    /** Live handle for session `s`, re-opening it if it was evicted;
     *  `due` is the time the open is charged from. */
    const a3::SessionHandle &ensureBound(std::uint32_t s, double due,
                                         Phase phase,
                                         std::uint64_t request = 0);
    void openSession(std::uint32_t s, double due, Phase phase,
                     std::uint64_t request);
    void drainOnce();
    void completeItems(std::size_t count);

    // -- set-up ----------------------------------------------------
    void buildCatalog();
    void startRemote();
    void prebind();
    void warmUp();
    a3::Matrix contentKey(const Session &session) const;
    a3::Matrix contentValue(const Session &session) const;

    const WorkloadSpec &spec_;
    const a3::Trace &trace_;
    std::string workDir_;
    std::uint64_t seed_ = 0;
    SpanRecorder *spans_ = nullptr;

    std::vector<CatalogDocument> catalog_;
    std::unordered_map<std::uint32_t, std::size_t> documentIndex_;
    std::vector<Session> sessions_;

    // Stack, declared in construction order (destroyed in reverse).
    std::vector<a3::ChildProcess> workers_;
    NetCounters net_;
    std::unique_ptr<a3::ShardStore> store_;
    std::shared_ptr<a3::RemoteShardCoordinator> coordinator_;
    std::unique_ptr<a3::AttentionEngine> engine_;
    std::unique_ptr<a3::SessionCache> cache_;
    std::unique_ptr<a3::BatchScheduler> scheduler_;

    // Generator <-> serving thread.
    std::mutex mu_;
    std::condition_variable serveCv_;
    std::condition_variable genCv_;
    std::vector<Op> inbox_;
    bool stop_ = false;
    std::uint64_t released_ = 0;
    std::uint64_t completed_ = 0;
    std::unordered_map<std::uint64_t, std::size_t> ticketToRequest_;

    std::vector<RequestRecord> requests_;
    std::size_t nextRequest_ = 0;
    std::size_t cursor_ = 0;
    bool stalled_ = false;

    // Serving-thread results.
    std::vector<SampledAnswer> samples_;
    std::vector<PhaseSample> firstAnswers_;
    std::vector<PhaseSample> appendLatencies_;
    std::size_t unboundCompletions_ = 0;
    std::size_t peakChargedBytes_ = 0;

    // Generator results.
    std::vector<double> lateness_;

    a3::ShardStoreStats storeAfterSetup_;
    std::uint64_t netBytesAfterSetup_ = 0;
    std::uint64_t netFramesAfterSetup_ = 0;

    std::thread server_;
};

}  // namespace servebench

#endif  // SERVEBENCH_SERVING_RUN_HPP
