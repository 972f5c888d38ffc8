/**
 * @file
 * Quickstart: run exact and approximate attention on a small task.
 *
 * Build and run:
 *     cmake -B build -G Ninja && cmake --build build
 *     ./build/examples/quickstart
 *
 * This walks the public API end to end: construct a key/value task,
 * answer a query exactly, then answer it again with A3's greedy
 * candidate selection + post-scoring approximation and compare.
 */

#include <cstdio>

#include "attention/approx_attention.hpp"
#include "attention/reference.hpp"
#include "engine/engine.hpp"
#include "util/random.hpp"

int
main()
{
    using namespace a3;

    // A tiny knowledge base: 8 entries of dimension 16. Row 5 is
    // constructed to match the query closely.
    Rng rng(7);
    const std::size_t n = 8;
    const std::size_t d = 16;
    Matrix key(n, d);
    Matrix value(n, d);
    Vector query(d);
    for (auto &x : query)
        x = static_cast<float>(rng.normal());
    for (std::size_t r = 0; r < n; ++r) {
        for (std::size_t c = 0; c < d; ++c) {
            key(r, c) = static_cast<float>(rng.normal(0.0, 0.5));
            value(r, c) = static_cast<float>(r);  // row id pattern
        }
    }
    for (std::size_t c = 0; c < d; ++c)
        key(5, c) += 0.6f * query[c];  // plant the relevant row

    // 1. Exact attention (Figure 1 of the paper).
    const AttentionResult exact =
        referenceAttention(key, value, query);
    std::printf("exact:  top weight %.3f on row %u\n",
                exact.weights[5], 5u);

    // 2. Approximate attention with the paper's conservative preset
    //    (M = n/2 greedy iterations, keep rows within 5%% of the top
    //    post-softmax weight).
    const ApproxAttention engine(key, value,
                                 ApproxConfig::conservative());
    const AttentionResult approx = engine.run(query);

    std::printf("approx: %zu/%zu rows survived candidate selection, "
                "%zu kept after post-scoring\n",
                approx.candidates.size(), n, approx.kept.size());
    std::printf("        candidates:");
    for (std::uint32_t row : approx.candidates)
        std::printf(" %u", row);
    std::printf("\n");

    // 3. Compare outputs: both are dominated by value row 5.
    std::printf("output[0]: exact %.3f vs approx %.3f "
                "(max |diff| %.4f)\n",
                exact.output[0], approx.output[0],
                maxAbsDiff(exact.output, approx.output));

    // 4. Batched serving: the same preprocessed task answers a whole
    //    batch of queries through the shared AttentionEngine, fanned
    //    out over its thread pool with results in request order.
    std::vector<AttentionRequestGroup> batch(1);
    batch[0].backend = &engine;
    batch[0].queries.assign(4, query);
    for (std::size_t i = 1; i < batch[0].queries.size(); ++i)
        for (auto &x : batch[0].queries[i])
            x += 0.05f * static_cast<float>(rng.normal());
    std::vector<std::vector<AttentionResult>> results;
    AttentionEngine::shared().runGroupsInto(batch, results);
    const std::vector<AttentionResult> &answers = results[0];
    const bool matches = answers[0].output == approx.output;
    std::printf("engine: answered a batch of %zu queries over %zu "
                "thread(s);\n        batch[0] output matches the "
                "single-query run bit for bit: %s\n",
                answers.size(), AttentionEngine::shared().threads(),
                matches ? "yes" : "no");
    return matches ? 0 : 1;
}
