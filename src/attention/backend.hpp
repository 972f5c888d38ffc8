/**
 * @file
 * Polymorphic attention-backend interface.
 *
 * A backend owns one preprocessed key/value task and answers queries
 * against it. Binding the task into the backend (rather than passing
 * the matrices with every call) is what lets the AttentionEngine share
 * the expensive per-task work — the column-sorted key of Section IV-A,
 * the sized fixed-point datapath of Section III — across every query,
 * head, and hop that touches the same pair, exactly the amortization
 * the paper relies on for BERT self-attention and multi-hop MemN2N.
 *
 * Four backends implement the interface:
 *  - ReferenceAttention: exact float attention (Figure 1).
 *  - ApproxAttention: greedy selection + post-scoring in float
 *    (Sections IV and V; declared in approx_attention.hpp).
 *  - QuantizedAttention: the bit-accurate fixed-point pipeline bound
 *    to a task (Section III; declared in quantized.hpp).
 *  - ApproxQuantizedAttention: float selection feeding the quantized
 *    datapath, the full approximate-A3 flow the simulator models.
 *
 * makeBackend() maps an EngineConfig (the harness' engine selector) to
 * the matching backend so every consumer — harness, workloads, benches,
 * examples — constructs engines one way.
 */

#ifndef A3_ATTENTION_BACKEND_HPP
#define A3_ATTENTION_BACKEND_HPP

#include <memory>
#include <string>
#include <vector>

#include "attention/config.hpp"
#include "attention/types.hpp"
#include "fixed/packed.hpp"
#include "tensor/matrix.hpp"

namespace a3 {

class ApproxAttention;
class QuantizedAttention;
class WireWriter;
class WireReader;

/**
 * One preprocessed key/value task that can answer queries. runInto()
 * must be const and thread-compatible: the AttentionEngine calls it
 * from many threads concurrently, and batched results are required to
 * be bit-identical to sequential per-query calls.
 *
 * Per-query transients live in the calling thread's Scratch arena
 * (kernels/scratch.hpp) and the caller's AttentionResult, so a
 * steady-state runInto() — same thread, reused result object —
 * performs zero heap allocations.
 *
 * The entry points that produce a result take a ResultDetail. The
 * virtual hooks are the three-argument forms; the two-argument
 * forms are non-virtual shorthands for Full, so derived classes
 * re-export them with `using AttentionBackend::runInto;` etc.
 */
class AttentionBackend
{
  public:
    virtual ~AttentionBackend() = default;

    /** Stable identifier, e.g. "reference", "approx", "quantized". */
    virtual std::string name() const = 0;

    /** Answer one query against the bound task (Full detail). */
    AttentionResult
    run(const Vector &query) const
    {
        AttentionResult out;
        runInto(query, out);
        return out;
    }

    /** runInto() at ResultDetail::Full. */
    void
    runInto(const Vector &query, AttentionResult &out) const
    {
        runInto(query, out, ResultDetail::Full);
    }

    /**
     * Answer one query, writing the fields `detail` asks for: every
     * field at Full; only output and iterations at Output, with the
     * dense fields cleared. `output` is bit-identical at both
     * levels. Reusing one result object across calls reuses its
     * buffers: after the first call at a given task size, no field
     * reallocates.
     */
    virtual void runInto(const Vector &query, AttentionResult &out,
                         ResultDetail detail) const = 0;

    /** runPartialInto() at ResultDetail::Full. */
    void
    runPartialInto(const Vector &query, PartialResult &out) const
    {
        runPartialInto(query, out, ResultDetail::Full);
    }

    /**
     * Answer one query with softmax partials instead of a normalized
     * result — the shard-local half of the distributed-softmax
     * decomposition (see PartialResult for the math). Like runInto()
     * this is const, thread-compatible, reuses `out`'s buffers, and
     * at Output fills only accum, maxScore, expSum and iterations.
     *
     * The float backends override this with a native partial path
     * whose finalizePartialInto() is bit-identical to runInto(). The
     * base implementation derives the partials from a Full runInto():
     * the log-sum-exp terms are recomputed in float from the kept
     * scores and the normalized weights/output are scaled back up by
     * expSum, which preserves the backend's own weighting (the
     * quantized kinds' truncating divider) at the cost of a ULP-level
     * roundtrip — sharded quantized results are accuracy-bounded, not
     * bit-tight.
     */
    virtual void runPartialInto(const Vector &query,
                                PartialResult &out,
                                ResultDetail detail) const;

    /**
     * Number of independent work units one query against this
     * backend decomposes into — the flattened engine's scheduling
     * grain. A plain backend is one unit; a sharded backend exposes
     * one unit per shard, so shard partials from many queries share
     * the same pool lanes instead of borrowing a nested pool.
     * Constant between append() calls.
     */
    virtual std::size_t workUnitCount() const { return 1; }

    /** runUnitPartialInto() at ResultDetail::Full. */
    void
    runUnitPartialInto(std::size_t unit, const Vector &query,
                       PartialResult &out) const
    {
        runUnitPartialInto(unit, query, out, ResultDetail::Full);
    }

    /**
     * Compute work unit `unit` of one query at `detail`: the unit's
     * softmax partial, ready for mergeUnitsInto(). Like runInto()
     * this is const, thread-compatible, and reuses `out`'s buffers;
     * distinct units of one query may run on different threads
     * concurrently. The base implementation serves single-unit
     * backends by forwarding to runPartialInto().
     */
    virtual void runUnitPartialInto(std::size_t unit,
                                    const Vector &query,
                                    PartialResult &out,
                                    ResultDetail detail) const;

    /**
     * Combine one query's per-unit partials (partials[u] from
     * runUnitPartialInto(u, ...)) into the final result. Always
     * executed serially in unit order by exactly one thread, so a
     * fixed-order log-sum-exp merge here preserves the bit-identity
     * guarantees of the serial path. The engine only takes this
     * route when workUnitCount() > 1 — single-unit backends keep
     * their exact runInto() path (required for the quantized kinds,
     * whose partial roundtrip is ULP-bounded, not bit-tight). The
     * result carries what the partials carry (see
     * finalizePartialInto()).
     */
    virtual void mergeUnitsInto(const std::vector<PartialResult> &partials,
                                AttentionResult &out) const;

    /**
     * Extend the bound task with k additional key/value rows (a
     * streamed context update: new sentences of a story, new tokens of
     * a conversation). The appended rows take row ids
     * rows()..rows()+k-1 and the preprocessed state is updated
     * incrementally — SortedKey merges the new rows into its
     * per-column orders, QuantizedAttention quantizes only the
     * appended rows — so the cost is far below a full re-bind, yet
     * subsequent queries are bit-identical to a backend freshly bound
     * to the concatenated matrices. Not thread-safe: callers must
     * ensure no queries are in flight against this backend.
     */
    virtual void append(const Matrix &keyRows,
                        const Matrix &valueRows) = 0;

    /**
     * Bytes of preprocessed task state this backend retains (float
     * matrices, sorted-key SRAM, quantized lanes) — what a
     * SessionCache charges against its byte budget.
     */
    virtual std::size_t memoryBytes() const = 0;

    /** Rows n of the bound task. */
    virtual std::size_t rows() const = 0;

    /** Embedding dimension d of the bound task. */
    virtual std::size_t dims() const = 0;

    /**
     * Deep copy of the bound task — the copy-on-append path of shared
     * shard handles (see serving/shard_store.hpp): before a shared
     * mutable tail is extended, the writer clones it so other sessions
     * keep querying the original. Queries against the clone are
     * bit-identical to the original (the preprocessed state is copied,
     * not rebuilt). The base implementation fatal()s; every plain
     * backend kind overrides it.
     */
    virtual std::unique_ptr<AttentionBackend> clone() const;

    /**
     * Whether serializeState() round-trips this backend through
     * deserializeBackend(). The plain kinds are serializable; the
     * composite serving-layer backends (sharded, remote) are not —
     * they spill per shard instead.
     */
    virtual bool serializable() const { return false; }

    /**
     * Append the preprocessed task state to `out` in the canonical
     * little-endian layout deserializeBackend() reads. The packed
     * quantized lanes and sorted-key orders are written verbatim, so
     * a restored backend answers queries bit-identically to this one
     * — the spill tier's determinism contract. Only valid when
     * serializable().
     */
    virtual void serializeState(WireWriter &out) const;

    /**
     * Release slack capacity retained by incremental append() calls
     * (vector over-reserve in matrices, sorted-key columns, quantized
     * lanes). Returns the bytes reclaimed. Query results are
     * unaffected — compaction moves bytes, never values — and the
     * tail-shard freeze path runs it before a shard is registered for
     * sharing or spilled, so shared and on-disk images carry no
     * slack. Not thread-safe (like append()).
     */
    virtual std::size_t compact() { return 0; }

    /**
     * Advisory remaining-deadline hint for the next queries, in
     * seconds (<= 0 clears the hint). The BatchScheduler publishes
     * each drained group's tightest remaining budget before the
     * engine pass; backends that wait on external resources (the
     * remote shard coordinator) clamp their per-query waits to it.
     * Purely advisory and monotonic-cheap: the default is a no-op,
     * and implementations store it in a relaxed atomic — the hint
     * must be settable on a const backend from the drain thread.
     */
    virtual void queryDeadlineHint(double remainingSeconds) const
    {
        (void)remainingSeconds;
    }
};

/** Which functional engine answers the queries. */
enum class EngineKind {
    ExactFloat,       ///< reference float attention, no approximation
    ApproxFloat,      ///< approximation in float (paper's SW model)
    ExactQuantized,   ///< base A3 fixed-point pipeline
    ApproxQuantized,  ///< full approximate A3 fixed-point flow
};

/** Stable name of an engine kind ("exact-float", ...). */
const char *engineKindName(EngineKind kind);

/**
 * Normalize one shard's partials into an AttentionResult: weights
 * and output are the partial's expWeights/accum divided by expSum;
 * scores, candidates, kept, and iterations carry over. A lean
 * (Output-detail) partial yields a lean result. For the float
 * backends runInto() is exactly runPartialInto() + this call, at
 * either detail.
 */
void finalizePartialInto(const PartialResult &partial,
                         AttentionResult &result);

/** Engine selection plus its knobs. */
struct EngineConfig
{
    EngineKind kind = EngineKind::ExactFloat;

    /** Approximation knobs (Approx kinds only). */
    ApproxConfig approx = ApproxConfig::conservative();

    /**
     * Input quantization (Quantized kinds only). makeBackend()
     * rejects non-positive widths and totals whose input word
     * (intBits + fracBits + 1 sign bit) exceeds the backend's 32-bit
     * SRAM lanes.
     */
    int intBits = 4;
    int fracBits = 4;

    /**
     * K/V lane layout of the quantized kinds (see fixed/packed.hpp).
     * Auto packs to the narrowest lossless lane for (intBits,
     * fracBits); results are bit-identical across layouts, only
     * footprint and kernel path change. makeBackend() rejects an
     * explicit Int8/Int4 whose input word exceeds the lane width,
     * mirroring the 32-bit lane-budget check.
     */
    PackedKvFormat packedKv = PackedKvFormat::Auto;
};

/**
 * Exact floating-point backend: softmax(K q)^T V over all rows, the
 * functional baseline every other backend is validated against.
 */
class ReferenceAttention final : public AttentionBackend
{
  public:
    /** Bind a key/value task; no preprocessing is needed. */
    ReferenceAttention(Matrix key, Matrix value);

    std::string name() const override { return "reference"; }
    using AttentionBackend::runInto;
    using AttentionBackend::runPartialInto;
    void runInto(const Vector &query, AttentionResult &out,
                 ResultDetail detail) const override;
    void runPartialInto(const Vector &query, PartialResult &out,
                        ResultDetail detail) const override;
    void append(const Matrix &keyRows,
                const Matrix &valueRows) override;
    std::size_t memoryBytes() const override;
    std::size_t rows() const override { return key_.rows(); }
    std::size_t dims() const override { return key_.cols(); }

    std::unique_ptr<AttentionBackend> clone() const override;
    bool serializable() const override { return true; }
    void serializeState(WireWriter &out) const override;
    std::size_t compact() override;

    /** Rebuild from a serializeState() payload; nullptr on a
     *  malformed payload. */
    static std::unique_ptr<ReferenceAttention>
    restore(WireReader &in);

    const Matrix &key() const { return key_; }
    const Matrix &value() const { return value_; }

  private:
    Matrix key_;
    Matrix value_;
};

/**
 * The full approximate-A3 flow: float greedy candidate selection
 * (pointer/comparator hardware), quantized dot products on the
 * candidates, post-scoring on those fixed-point scores, and the
 * quantized pipeline over the survivors — the same flow A3Accelerator
 * models cycle by cycle.
 */
class ApproxQuantizedAttention final : public AttentionBackend
{
  public:
    /**
     * Preprocess `key` for greedy search and size the fixed-point
     * datapath for the task.
     */
    ApproxQuantizedAttention(
        Matrix key, Matrix value, ApproxConfig approx, int intBits,
        int fracBits, PackedKvFormat packedKv = PackedKvFormat::Auto);
    ~ApproxQuantizedAttention() override;

    std::string name() const override { return "approx-quantized"; }
    using AttentionBackend::runInto;
    void runInto(const Vector &query, AttentionResult &out,
                 ResultDetail detail) const override;
    void append(const Matrix &keyRows,
                const Matrix &valueRows) override;
    std::size_t memoryBytes() const override;
    std::size_t rows() const override;
    std::size_t dims() const override;

    std::unique_ptr<AttentionBackend> clone() const override;
    bool serializable() const override { return true; }
    void serializeState(WireWriter &out) const override;
    std::size_t compact() override;

    /** Rebuild both halves from a serializeState() payload; nullptr
     *  on a malformed payload. */
    static std::unique_ptr<ApproxQuantizedAttention>
    restore(const EngineConfig &config, WireReader &in);

    const ApproxAttention &selection() const { return *approx_; }
    const QuantizedAttention &datapath() const { return *datapath_; }

  private:
    /** Adopt already-built halves (clone()/restore()). */
    ApproxQuantizedAttention(
        std::unique_ptr<ApproxAttention> approx,
        std::unique_ptr<QuantizedAttention> datapath);

    std::unique_ptr<ApproxAttention> approx_;
    std::unique_ptr<QuantizedAttention> datapath_;
};

/**
 * Build the backend `config` describes, bound to (key, value). The
 * quantized kinds size their datapath exactly for the task, as the
 * accuracy harness always did.
 */
std::unique_ptr<AttentionBackend> makeBackend(const EngineConfig &config,
                                              Matrix key, Matrix value);

/**
 * Rebuild a backend of config.kind from a serializeState() payload —
 * the restore half of the spill tier. The preprocessed state is read
 * back verbatim (no re-sort, no re-quantization), so the restored
 * backend is bit-identical in queries to the one serialized. Returns
 * nullptr when the payload is malformed or inconsistent with
 * `config`; callers fall back to a cold bind.
 */
std::unique_ptr<AttentionBackend>
deserializeBackend(const EngineConfig &config, WireReader &in);

}  // namespace a3

#endif  // A3_ATTENTION_BACKEND_HPP
