/**
 * @file
 * servebench: one named workload through the real serving path, timed
 * on the wall clock.
 *
 *   servebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *              [--smoke]
 *
 * A run sets the stack up three times (setup_s is the median), then
 * measures three phases on the last one: a closed loop with one
 * request outstanding (unloaded service time), an open loop at the
 * workload's nominal rate (latency from each request's due time,
 * SLO attainment, time to first answer), and a closed loop holding
 * a fixed window of requests (saturated throughput). It then
 * re-answers a seeded sample of the served queries on freshly bound
 * backends and requires bit-identical outputs.
 *
 * --trace 0 reports the end-to-end metrics. --trace 1 is a separate
 * run that records spans around every call into a layer, traces
 * every other half-second slice of the open loop (the p50 ratio of
 * traced to untraced slices is trace.overhead), replays sampled queries
 * through the attention stages, reports the per-layer metrics, and
 * writes the spans as Chrome trace-event JSON. --smoke is a short
 * traced run that reports both metric sets.
 *
 * The last line of stdout is one JSON object: correct, attempted,
 * failed, metrics. The lines before it name every metric with its
 * unit and sample count, and a validity record (generator lateness,
 * CPU steal, CPU model, nproc, kernel table).
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include <unistd.h>

#include "checks.hpp"
#include "serving/session_cache.hpp"
#include "serving_run.hpp"
#include "spans.hpp"
#include "sysinfo.hpp"
#include "trace/generator.hpp"
#include "util/stats.hpp"
#include "workloads.hpp"

namespace servebench {
namespace {

constexpr int kSetups = 3;
constexpr std::size_t kMaxChecks = 48;
constexpr std::size_t kStageQueries = 24;
constexpr std::size_t kMinOpenSamples = 500;
constexpr const char *kSpansDir = ".bench_out";

/** Shares of --seconds given to each measured phase. */
constexpr double kUnloadedShare = 0.1;
constexpr double kOpenShare = 0.65;
constexpr double kSaturatedShare = 0.25;

/**
 * Every timed loop is cut into this many equal windows, and a timing
 * metric is the figure of the quieter quartile of its windows: the
 * first quartile of the per-window latencies, the third of the
 * per-window rates. Host contention (CPU steal, and other tenants
 * evicting the working set from the shared cache) comes in bursts of
 * seconds and inflates whichever windows it hits by 20-70%; code
 * that got slower is slower in every window.
 */
constexpr std::size_t kWindows = 8;

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 0.0;
    int trace = -1;
    bool smoke = false;
};

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
    std::size_t samples = 0;
};

void
usage()
{
    std::string names;
    for (const std::string &name : workloadNames())
        names += (names.empty() ? "" : "|") + name;
    std::fprintf(stderr,
                 "usage: servebench --workload <%s> --seed <n> "
                 "--seconds <s> --trace <0|1> [--smoke]\n",
                 names.c_str());
}

bool
parseArgs(int argc, char **argv, Options &options)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--smoke") {
            options.smoke = true;
            continue;
        }
        if (i + 1 >= argc)
            return false;
        const std::string value = argv[++i];
        char *end = nullptr;
        if (arg == "--workload") {
            options.workload = value;
        } else if (arg == "--seed") {
            options.seed = std::strtoull(value.c_str(), &end, 10);
            if (*end != '\0')
                return false;
        } else if (arg == "--seconds") {
            options.seconds = std::strtod(value.c_str(), &end);
            if (*end != '\0' || !(options.seconds > 0.0))
                return false;
        } else if (arg == "--trace") {
            if (value != "0" && value != "1")
                return false;
            options.trace = value == "1";
        } else {
            return false;
        }
    }
    if (options.smoke) {
        if (options.seconds == 0.0)
            options.seconds = 4.0;
        options.trace = 1;
    }
    return !options.workload.empty() && options.seconds > 0.0 &&
           options.trace >= 0;
}

double
pct(std::vector<double> samples, double fraction)
{
    return samples.empty() ? 0.0 : a3::percentile(std::move(samples), fraction);
}

double
ratio(double numerator, double denominator)
{
    return denominator > 0.0 ? numerator / denominator : 0.0;
}

/** A sample at a point in time (steady-clock seconds). */
struct TimedSample
{
    double at = 0.0;
    double value = 0.0;
};

/** Samples grouped by which of the kWindows equal windows of
 *  [span.first, span.second) their time falls in. */
std::vector<std::vector<double>>
byWindow(const std::vector<TimedSample> &samples,
         std::pair<double, double> span)
{
    std::vector<std::vector<double>> windows(kWindows);
    const double width = (span.second - span.first) / kWindows;
    if (!(width > 0.0))
        return windows;
    for (const TimedSample &s : samples) {
        const double w = std::floor((s.at - span.first) / width);
        if (w >= 0.0 && w < static_cast<double>(kWindows))
            windows[static_cast<std::size_t>(w)].push_back(s.value);
    }
    return windows;
}

/** First quartile, over the non-empty windows of `span`, of each
 *  window's `fraction` percentile. */
double
windowedPct(const std::vector<TimedSample> &samples,
            std::pair<double, double> span, double fraction)
{
    std::vector<double> figures;
    for (std::vector<double> &window : byWindow(samples, span))
        if (!window.empty())
            figures.push_back(pct(std::move(window), fraction));
    return pct(std::move(figures), 0.25);
}

/** Third quartile, over the windows of `span`, of events per second. */
double
windowedRate(const std::vector<TimedSample> &events,
             std::pair<double, double> span)
{
    const double width = (span.second - span.first) / kWindows;
    if (!(width > 0.0))
        return 0.0;
    std::vector<double> rates;
    for (const std::vector<double> &window : byWindow(events, span))
        rates.push_back(window.size() / width);
    return pct(std::move(rates), 0.75);
}

bool
isOpenPhase(Phase phase)
{
    return phase == Phase::Open || phase == Phase::OpenTraced;
}

/** Everything the metric formulas read, gathered after the run. */
struct RunData
{
    const ServingRun *run = nullptr;
    const SpanRecorder *spans = nullptr;
    std::vector<double> setupSeconds;
    std::pair<double, double> unloaded;
    std::pair<double, double> open;
    std::pair<double, double> saturated;
    double stealShare = 0.0;
    double peakRss = 0.0;
    CheckResult check;
    StageSamples stages;
};

struct Accounting
{
    std::size_t attempted = 0;
    std::size_t answered = 0;
    std::size_t failed = 0;
};

Accounting
account(const RunData &data)
{
    Accounting a;
    a.attempted = data.run->requestCount();
    for (std::size_t i = 0; i < a.attempted; ++i)
        if (data.run->requests()[i].state == RequestState::Answered)
            ++a.answered;
    a.failed = a.attempted - a.answered + data.check.mismatched;
    return a;
}

std::vector<Metric>
endToEndMetrics(const RunData &data)
{
    const ServingRun &run = *data.run;
    const WorkloadSpec &spec = run.spec();
    std::vector<TimedSample> unloaded, open, saturatedAnswers, firstAnswers;
    std::size_t openSent = 0, withinSlo = 0;
    for (std::size_t i = 0; i < run.requestCount(); ++i) {
        const RequestRecord &r = run.requests()[i];
        const bool answered = r.state == RequestState::Answered;
        if (r.phase == Phase::Unloaded && answered)
            unloaded.push_back({r.due, (r.answer - r.due) * 1e3});
        if (isOpenPhase(r.phase)) {
            ++openSent;
            if (answered) {
                const double ms = (r.answer - r.due) * 1e3;
                open.push_back({r.due, ms});
                withinSlo += ms <= spec.sloMs;
            }
        }
        if (r.phase == Phase::Saturated && answered)
            saturatedAnswers.push_back({r.answer, 1.0});
    }
    for (const PhaseSample &s : run.firstAnswers())
        if (isOpenPhase(s.phase))
            firstAnswers.push_back({s.due, s.ms});

    const Accounting a = account(data);
    return {
        {"unloaded_p50_ms", windowedPct(unloaded, data.unloaded, 0.5), "ms",
         unloaded.size()},
        {"query_p50_ms", windowedPct(open, data.open, 0.5), "ms", open.size()},
        {"slo_attainment", ratio(withinSlo, openSent), "ratio", openSent},
        {"saturated_qps", windowedRate(saturatedAnswers, data.saturated), "1/s",
         saturatedAnswers.size()},
        {"first_answer_p50_ms", windowedPct(firstAnswers, data.open, 0.5), "ms",
         firstAnswers.size()},
        {"success_rate", 1.0 - ratio(a.failed, a.attempted), "ratio",
         a.attempted},
        {"peak_rss_mb", data.peakRss, "MB", 1},
        {"setup_s", pct(data.setupSeconds, 0.5), "s",
         data.setupSeconds.size()},
    };
}

std::vector<Metric>
perLayerMetrics(const RunData &data)
{
    const ServingRun &run = *data.run;
    const std::vector<Span> &spans = data.spans->spans();
    const std::vector<std::uint64_t> &tickets = data.spans->tickets();

    // Span-derived samples.
    std::vector<double> passMs, batch, submitUs, lookupUs, appendMs,
        sendUs, recvUs, queueWaitMs;
    std::map<int, std::vector<double>> bindMs;
    std::unordered_map<std::uint64_t, const Span *> submitOf, drainOf;
    for (const Span &s : spans) {
        const std::string name = s.name;
        const double us = (s.end - s.start) * 1e6;
        if (name == "submit" && s.request != 0) {
            submitUs.push_back(us);
            submitOf[s.request] = &s;
        } else if (name == "drain" && s.ticketCount > 0) {
            passMs.push_back(us / 1e3);
            batch.push_back(s.ticketCount);
            for (std::uint32_t t = 0; t < s.ticketCount; ++t)
                drainOf[tickets[s.ticketFirst + t]] = &s;
        } else if (name == "lookup") {
            lookupUs.push_back(us);
        } else if (name == "bind") {
            bindMs[s.status].push_back(us / 1e3);
        } else if (name == "append") {
            appendMs.push_back(us / 1e3);
        } else if (name == "net.send") {
            sendUs.push_back(us);
        } else if (name == "net.recv") {
            recvUs.push_back(us);
        }
    }
    for (const auto &[ticket, drain] : drainOf) {
        auto submit = submitOf.find(ticket);
        if (submit != submitOf.end())
            queueWaitMs.push_back(
                std::max(0.0, drain->start - submit->second->end) * 1e3);
    }

    // Per-request samples. An unloaded turn runs alone, so the
    // top-level spans inside [due, answer] (lookup, bind, append,
    // submit, drain) are its blocking steps.
    std::vector<const Span *> topLevel;
    for (const Span &s : spans)
        if (s.parent == 0)
            topLevel.push_back(&s);
    std::sort(topLevel.begin(), topLevel.end(),
              [](const Span *a, const Span *b) { return a->start < b->start; });
    std::vector<double> openUntraced, openTraced, openAll, explained;
    for (std::size_t i = 0; i < run.requestCount(); ++i) {
        const RequestRecord &r = run.requests()[i];
        if (r.state != RequestState::Answered)
            continue;
        const double ms = (r.answer - r.due) * 1e3;
        if (isOpenPhase(r.phase))
            openAll.push_back(ms);
        if (r.phase == Phase::Open)
            openUntraced.push_back(ms);
        if (r.phase == Phase::OpenTraced)
            openTraced.push_back(ms);
        if (r.phase != Phase::Unloaded || drainOf.count(r.ticket) == 0)
            continue;
        double covered = 0.0;
        auto it = std::lower_bound(
            topLevel.begin(), topLevel.end(), r.due,
            [](const Span *s, double t) { return s->start < t; });
        for (; it != topLevel.end() && (*it)->start < r.answer; ++it)
            covered += std::min((*it)->end, r.answer) - (*it)->start;
        explained.push_back(std::min(1.0, ratio(covered, r.answer - r.due)));
    }
    std::vector<double> appendLatency;
    for (const PhaseSample &s : run.appendLatencies())
        if (isOpenPhase(s.phase))
            appendLatency.push_back(s.ms);

    const Accounting a = account(data);
    const double perK = ratio(1000.0, a.answered);
    const a3::BatchSchedulerStats sched = run.schedulerStats();
    const a3::SessionCacheStats cache = run.cacheStats();
    const a3::ShardStoreStats store0 = run.storeStatsAfterSetup();
    const a3::ShardStoreStats store1 = run.storeStats();
    const double live = store1.liveHits - store0.liveHits;
    const double restores = store1.spillRestores - store0.spillRestores;
    const double cold = store1.coldBinds - store0.coldBinds;
    const a3::RemoteCoordinatorStats remote = run.remoteStats();
    const double recoveries =
        remote.timeouts + remote.checksumRejects + remote.retries +
        remote.failovers + remote.rebinds + remote.localFallbacks +
        remote.staleReplies;
    const double netBytes = run.net().bytes.load() - run.netBytesAfterSetup();
    const double netFrames = run.net().frames.load() - run.netFramesAfterSetup();
    const bool remoteRun = run.coordinator() != nullptr;
    const StageSamples &st = data.stages;
    std::vector<double> latenessMs;
    for (double s : run.generatorLateness())
        latenessMs.push_back(s * 1e3);

    auto bindP50 = [&](a3::BindStatus status) {
        auto it = bindMs.find(static_cast<int>(status));
        return it == bindMs.end() ? Metric{"", 0.0, "ms", 0}
                                  : Metric{"", pct(it->second, 0.5), "ms",
                                           it->second.size()};
    };
    auto named = [](std::string name, Metric m) {
        m.name = std::move(name);
        return m;
    };

    return {
        {"attention.search_us", pct(st.searchUs, 0.5), "us", st.searchUs.size()},
        {"attention.datapath_us", pct(st.datapathUs, 0.5), "us", st.datapathUs.size()},
        {"attention.post_scoring_us", pct(st.postScoringUs, 0.5), "us",
         st.postScoringUs.size()},
        {"attention.output_us", pct(st.outputUs, 0.5), "us", st.outputUs.size()},
        {"attention.candidates_per_query", pct(st.candidates, 0.5), "rows",
         st.candidates.size()},
        {"attention.kept_share", pct(st.keptShare, 0.5), "ratio", st.keptShare.size()},
        {"attention.append_ms", pct(appendMs, 0.5), "ms", appendMs.size()},
        {"append_p50_ms", pct(appendLatency, 0.5), "ms", appendLatency.size()},
        {"engine.pass_ms_p50", pct(passMs, 0.5), "ms", passMs.size()},
        {"engine.pass_ms_p99", pct(passMs, 0.99), "ms", passMs.size()},
        {"engine.units_per_query",
         ratio(sched.workUnits, sched.answered - run.unboundCompletions()),
         "count", sched.answered - run.unboundCompletions()},
        {"engine.merge_us", pct(st.mergeUs, 0.5), "us", st.mergeUs.size()},
        {"scheduler.submit_us_p50", pct(submitUs, 0.5), "us", submitUs.size()},
        {"scheduler.queue_wait_ms_p50", pct(queueWaitMs, 0.5), "ms",
         queueWaitMs.size()},
        {"scheduler.queue_wait_ms_p99", pct(queueWaitMs, 0.99), "ms",
         queueWaitMs.size()},
        {"scheduler.batch_size", pct(batch, 0.5), "count", batch.size()},
        {"scheduler.groups_per_drain", ratio(sched.groups, sched.drains), "count",
         sched.drains},
        {"scheduler.shed",
         static_cast<double>(sched.rejected() + sched.shedDeadlineExpired), "count",
         sched.submitted},
        {"session_cache.lookup_us_p50", pct(lookupUs, 0.5), "us", lookupUs.size()},
        {"session_cache.hit_rate", ratio(cache.hits, cache.hits + cache.misses),
         "ratio", cache.hits + cache.misses},
        {"session_cache.evictions_per_1k", cache.evictions * perK, "count/1k",
         cache.evictions},
        {"session_cache.charged_mb", run.peakChargedBytes() / 1048576.0, "MB", 1},
        named("session_cache.bind_ms_fresh", bindP50(a3::BindStatus::BoundFresh)),
        named("session_cache.bind_ms_shared", bindP50(a3::BindStatus::BoundShared)),
        named("session_cache.bind_ms_restored",
              bindP50(a3::BindStatus::BoundRestored)),
        {"shard_store.hit_rate", ratio(live + restores, live + restores + cold),
         "ratio", static_cast<std::size_t>(live + restores + cold)},
        {"shard_store.spill_writes_per_1k",
         (store1.spillWrites - store0.spillWrites) * perK, "count/1k",
         store1.spillWrites - store0.spillWrites},
        {"shard_store.spill_restores_per_1k", restores * perK, "count/1k",
         static_cast<std::size_t>(restores)},
        {"shard_store.cold_binds_per_1k", store1.coldBinds * perK, "count/1k",
         store1.coldBinds},
        {"remote.query_ms_p50", pct(st.remoteQueryMs, 0.5), "ms",
         st.remoteQueryMs.size()},
        {"remote.recoveries", recoveries, "count", 1},
        {"net.bytes_per_query", remoteRun ? netBytes * perK / 1000.0 : 0.0, "bytes",
         a.answered},
        {"net.frames_per_query", remoteRun ? netFrames * perK / 1000.0 : 0.0,
         "count", a.answered},
        {"net.send_us_p50", pct(sendUs, 0.5), "us", sendUs.size()},
        {"net.recv_wait_us_p50", pct(recvUs, 0.5), "us", recvUs.size()},
        {"open_loop.query_p90_ms", pct(openAll, 0.90), "ms", openAll.size()},
        {"open_loop.query_p99_ms", pct(openAll, 0.99), "ms", openAll.size()},
        {"error_rate", ratio(a.failed, a.attempted), "ratio", a.attempted},
        {"bench.generator_lag_ms_p99", pct(latenessMs, 0.99), "ms",
         latenessMs.size()},
        {"bench.cpu_steal_share", data.stealShare, "ratio", 1},
        {"trace.overhead", ratio(pct(openTraced, 0.5), pct(openUntraced, 0.5)),
         "ratio", openTraced.size()},
        {"trace.explained_share", pct(explained, 0.5), "ratio", explained.size()},
    };
}

std::string
jsonString(const std::string &text)
{
    std::string out = "\"";
    for (char c : text) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

void
printValidity(const Options &options, const RunData &data)
{
    std::vector<double> lateMs;
    for (double s : data.run->generatorLateness())
        lateMs.push_back(s * 1e3);
    std::string setups;
    for (double s : data.setupSeconds)
        setups += (setups.empty() ? "" : ", ") + std::to_string(s);
    std::printf("validity {\"workload\": %s, \"seed\": %llu, \"seconds\": %g, "
                "\"trace\": %d, \"cpu_model\": %s, \"nproc\": %u, "
                "\"kernel_table\": %s, \"os_kernel\": %s, "
                "\"cpu_steal_share\": %.4f, \"generator_lag_ms_p50\": %.4f, "
                "\"generator_lag_ms_p99\": %.4f, \"generator_lag_ms_max\": %.4f, "
                "\"checked_answers\": %zu, \"mismatched_answers\": %zu, "
                "\"stalled\": %s, \"setup_s_each\": [%s]}\n",
                jsonString(options.workload).c_str(),
                static_cast<unsigned long long>(options.seed), options.seconds,
                options.trace, jsonString(cpuModel()).c_str(), onlineCpus(),
                jsonString(kernelTable()).c_str(),
                jsonString(osRelease()).c_str(), data.stealShare,
                pct(lateMs, 0.5), pct(lateMs, 0.99),
                lateMs.empty() ? 0.0 : *std::max_element(lateMs.begin(), lateMs.end()),
                data.check.checked, data.check.mismatched,
                data.run->stalled() ? "true" : "false", setups.c_str());
}

int
runBenchmark(const Options &options)
{
    const WorkloadSpec *spec = findWorkload(options.workload);
    if (spec == nullptr) {
        std::fprintf(stderr, "servebench: unknown workload '%s'\n",
                     options.workload.c_str());
        usage();
        return 2;
    }
    const bool traced = options.trace == 1;
    const double seconds = options.seconds;

    a3::TraceConfig traffic = spec->traffic;
    traffic.seed = options.seed;
    traffic.durationSeconds = 6.0 * seconds + 10.0;
    const a3::Trace trace = a3::generateTrace(traffic);

    const std::string workRoot =
        ".bench_tmp/" + std::to_string(static_cast<long>(getpid()));
    SpanRecorder recorder;
    SpanRecorder *spans = traced ? &recorder : nullptr;

    RunData data;
    std::unique_ptr<ServingRun> run;
    for (int k = 0; k < kSetups; ++k) {
        run.reset();
        run = std::make_unique<ServingRun>(*spec, trace,
                                           workRoot + "/setup" + std::to_string(k),
                                           options.seed, spans);
        data.setupSeconds.push_back(run->setUp());
    }
    data.run = run.get();
    data.spans = spans;

    run->startServing();
    recorder.setEnabled(traced);
    const CpuTimes cpuBefore = readCpuTimes();
    data.unloaded = run->runClosed(Phase::Unloaded, 1, kUnloadedShare * seconds);
    data.open = run->runOpen(kOpenShare * seconds, traced);
    recorder.setEnabled(traced);
    data.saturated = run->runClosed(Phase::Saturated, spec->saturatedWindow,
                                    kSaturatedShare * seconds);
    data.stealShare = stealShare(cpuBefore, readCpuTimes());
    data.peakRss = peakRssMb();
    run->stopServing();
    recorder.setEnabled(false);

    data.check = checkAnswers(*run, options.seed, kMaxChecks,
                              traced ? &data.stages : nullptr, kStageQueries);

    std::vector<Metric> metrics;
    const std::vector<Metric> e2e = endToEndMetrics(data);
    if (!traced || options.smoke)
        metrics = e2e;
    if (traced) {
        const std::vector<Metric> layers = perLayerMetrics(data);
        metrics.insert(metrics.end(), layers.begin(), layers.end());
    }

    for (const Metric &m : metrics)
        std::printf("metric %-34s %14.6f %-9s samples=%zu\n", m.name.c_str(),
                    m.value, m.unit.c_str(), m.samples);
    if (!traced && e2e[1].samples < kMinOpenSamples && !options.smoke)
        std::fprintf(stderr,
                     "servebench: warning: %zu open-loop samples, fewer "
                     "than %zu\n",
                     e2e[1].samples, kMinOpenSamples);
    printValidity(options, data);

    if (traced) {
        std::error_code error;
        std::filesystem::create_directories(kSpansDir, error);
        const std::string path = std::string(kSpansDir) + "/spans_" +
                                 options.workload + "_" +
                                 std::to_string(options.seed) + ".json";
        if (recorder.writeChromeTrace(path))
            std::printf("spans %s (%zu spans)\n", path.c_str(),
                        recorder.spans().size());
        else
            std::fprintf(stderr, "servebench: cannot write %s\n", path.c_str());
    }

    const Accounting a = account(data);
    const bool correct = data.check.checked > 0 &&
                         data.check.mismatched == 0 && !run->stalled();
    run.reset();
    std::error_code ignored;
    std::filesystem::remove_all(workRoot, ignored);
    if (std::filesystem::is_empty(".bench_tmp", ignored))
        std::filesystem::remove(".bench_tmp", ignored);

    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(a.attempted);
    json += ", \"failed\": " + std::to_string(a.failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        char value[64];
        std::snprintf(value, sizeof value, "%.10g", metrics[i].value);
        json += (i == 0 ? "" : ", ") + jsonString(metrics[i].name) +
                ": {\"value\": " + value +
                ", \"unit\": " + jsonString(metrics[i].unit) + "}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}

}  // namespace
}  // namespace servebench

int
main(int argc, char **argv)
{
    servebench::Options options;
    if (!servebench::parseArgs(argc, argv, options)) {
        servebench::usage();
        return 2;
    }
    return servebench::runBenchmark(options);
}
