/**
 * @file
 * Production-shaped traffic traces for the serving tier.
 *
 * The workload layer (babi/squad/wikimovies analogues) exercises
 * *accuracy*; a trace exercises *traffic shape* — the thing that
 * actually breaks schedulers at scale: Zipf-skewed session
 * popularity, bursty and diurnal arrival processes, contexts mixing
 * three orders of magnitude of rows, and session lifecycles ranging
 * from RAG-style (bind one shared document, query it many times) to
 * chat-style (small private context, appended over and over).
 *
 * A Trace is a flat, time-sorted list of TraceEvents — bind, append,
 * query — that a replay driver (trace/replay.hpp) feeds through the
 * real SessionCache + ShardStore + BatchScheduler on a virtual
 * clock. Traces are generated deterministically from a seed
 * (trace/generator.hpp): the same config yields the bit-identical
 * event list on every machine, so traffic-shape behavior (shed
 * rates, deadline hit rates, tail waits, store hit rates) is a
 * regression-testable property, not a demo.
 *
 * Events carry no tensor data. Content is derived on demand from
 * `payloadSeed` (see traceContentMatrix / traceQueryVector in
 * trace/replay.hpp), which keeps traces tiny, makes two sessions
 * bound to the same document byte-identical (the prefix-sharing
 * tier dedups their shards), and lets a replay regenerate the exact
 * rows of an evicted session when it re-binds.
 */

#ifndef A3_TRACE_TRACE_HPP
#define A3_TRACE_TRACE_HPP

#include <cstddef>
#include <cstdint>
#include <vector>

namespace a3 {

/** What one trace event does to its session. */
enum class TraceEventKind : std::uint8_t {
    /** Bind the session's initial context (`rows` rows). Emitted
     *  exactly once per session, before its first query. */
    Bind,
    /** Extend the session's context by `rows` rows (chat-style
     *  growth). The appended rows continue the session's
     *  deterministic content stream. */
    Append,
    /** One attention query against the bound session, carrying an
     *  optional virtual-time deadline. */
    Query,
};

/** Session lifecycle archetype. */
enum class SessionStyle : std::uint8_t {
    /** Bind-once-query-many over a *shared* document from the trace
     *  catalog: the retrieval-augmented-generation shape that makes
     *  cross-session prefix sharing pay. */
    Rag,
    /** Append-heavy private context: the chat shape whose growth
     *  concentrates in the mutable tail shard. */
    Chat,
};

/** `document` value of sessions with private (unshared) content. */
constexpr std::uint32_t kPrivateDocument = 0xffffffffu;

/** One timestamped operation against one session. */
struct TraceEvent
{
    /** Virtual arrival time, seconds from trace start. */
    double timeSeconds = 0.0;

    /** Session index in [0, Trace::sessionCount). */
    std::uint32_t session = 0;

    TraceEventKind kind = TraceEventKind::Query;

    /** The session's archetype (constant across its events). */
    SessionStyle style = SessionStyle::Rag;

    /**
     * Shared-catalog document backing the session's context, or
     * kPrivateDocument for private content. Sessions with the same
     * document bind byte-identical matrices.
     */
    std::uint32_t document = kPrivateDocument;

    /** Bind: initial context rows. Append: rows added. Query: 0. */
    std::uint32_t rows = 0;

    /**
     * Content seed: on Bind, the session's context stream (shared by
     * every session of the same document); on Query, the query
     * vector's seed. Append events reuse the Bind seed — the
     * appended rows are the next slice of the same stream.
     */
    std::uint64_t payloadSeed = 0;

    /**
     * Virtual-time latency budget from arrival to completion;
     * 0 = no deadline. Evaluated by the replay driver against the
     * virtual clock, so deadline outcomes are deterministic.
     */
    double deadlineSeconds = 0.0;
};

/** A generated traffic trace: time-sorted events plus its shape. */
struct Trace
{
    /** Seed the trace was generated from (provenance). */
    std::uint64_t seed = 0;

    /** Virtual length of the trace in seconds. */
    double durationSeconds = 0.0;

    /** Distinct sessions that may appear in the events. */
    std::uint32_t sessionCount = 0;

    /** Time-sorted events (ties keep generation order: a session's
     *  Bind precedes its first Query at the same timestamp). */
    std::vector<TraceEvent> events;

    /** Events of one kind (O(events)). */
    std::size_t countOf(TraceEventKind kind) const;
};

}  // namespace a3

#endif  // A3_TRACE_TRACE_HPP
