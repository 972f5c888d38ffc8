/**
 * @file
 * Cross-module integration tests: workloads through the device stack,
 * float vs fixed-point approximate flows, cluster aggregation, and
 * misuse guards.
 */

#include <gtest/gtest.h>

#include "attention/approx_attention.hpp"
#include "attention/quantized.hpp"
#include "attention/reference.hpp"
#include "harness/accuracy.hpp"
#include "sim/host_interface.hpp"
#include "sim/multi_unit.hpp"
#include "workloads/babi_like.hpp"
#include "workloads/embedding.hpp"
#include "workloads/wikimovies_like.hpp"
#include "workloads/metrics.hpp"
#include "workloads/squad_like.hpp"

namespace a3 {
namespace {

TEST(Integration, WorkloadThroughHostInterfaceScoresLikeDirectRun)
{
    BabiLikeWorkload workload;
    Rng rng(9600);
    double viaLinkScore = 0.0;
    double directScore = 0.0;
    const int episodes = 30;
    for (int e = 0; e < episodes; ++e) {
        const AttentionTask task = workload.sample(rng);

        SimConfig cfg;
        cfg.maxRows = 64;
        cfg.dims = 64;
        cfg.mode = A3Mode::Base;
        A3Accelerator device(cfg);
        HostInterface host(device);
        host.loadTask(task.key, task.value);
        host.submitQuery(task.queries[0]);
        const auto output = host.readOutput();
        ASSERT_TRUE(output.has_value());

        // The device returns the quantized pipeline's output; score
        // the retrieval by recomputing weights on a datapath bound
        // independently at the device's input format.
        EngineConfig quantized;
        quantized.kind = EngineKind::ExactQuantized;
        quantized.intBits = cfg.intBits;
        quantized.fracBits = cfg.fracBits;
        const AttentionResult direct =
            makeBackend(quantized, task.key, task.value)
                ->run(task.queries[0]);
        EXPECT_EQ(*output, direct.output);
        viaLinkScore +=
            argmaxAccuracy(direct.weights, task.relevant[0]);

        const AttentionResult ref = referenceAttention(
            task.key, task.value, task.queries[0]);
        directScore += argmaxAccuracy(ref.weights, task.relevant[0]);
    }
    // Quantized device retrieval tracks the float reference closely.
    EXPECT_NEAR(viaLinkScore / episodes, directScore / episodes,
                0.11);
}

TEST(Integration, FloatAndQuantizedApproxSelectSameCandidates)
{
    // Candidate selection runs pre-quantization in both flows, so the
    // candidate sets are identical; post-scoring may differ by rows
    // whose fixed-point score sits within an LSB of the threshold.
    // Both flows keep every candidate's score in a Full result, not
    // only the kept rows'.
    EngineConfig floatFlow;
    floatFlow.kind = EngineKind::ApproxFloat;
    floatFlow.approx = ApproxConfig::conservative();
    EngineConfig quantizedFlow = floatFlow;
    quantizedFlow.kind = EngineKind::ApproxQuantized;
    quantizedFlow.intBits = 4;
    quantizedFlow.fracBits = 8;
    WikiMoviesLikeWorkload workload;
    Rng rng(9601);
    for (int e = 0; e < 10; ++e) {
        const AttentionTask task = workload.sample(rng);
        const AttentionResult fl =
            makeBackend(floatFlow, task.key, task.value)
                ->run(task.queries[0]);
        const auto quantized =
            makeBackend(quantizedFlow, task.key, task.value);
        const AttentionResult qu = quantized->run(task.queries[0]);
        ASSERT_FALSE(fl.candidates.empty());
        EXPECT_EQ(fl.candidates, qu.candidates);
        EXPECT_EQ(fl.iterations, qu.iterations);

        AttentionResult allCandidates;
        dynamic_cast<const ApproxQuantizedAttention &>(*quantized)
            .datapath()
            .runRowsInto(task.queries[0], qu.candidates, allCandidates);
        for (const std::uint32_t r : qu.candidates)
            EXPECT_EQ(qu.scores[r], allCandidates.scores[r]) << r;
    }
}

TEST(Integration, ClusterOnSelfAttentionMatchesSingleUnitResults)
{
    SquadLikeWorkload workload;
    Rng rng(9602);
    const AttentionTask task = workload.sample(rng);
    std::vector<Vector> queries(task.queries.begin(),
                                task.queries.begin() + 32);

    SimConfig cfg;
    cfg.maxRows = 320;
    cfg.dims = 64;
    cfg.mode = A3Mode::Approx;
    cfg.approx = ApproxConfig::conservative();

    // Functional outputs must be unit-count invariant.
    A3Accelerator solo(cfg);
    solo.loadTask(task.key, task.value);
    solo.runAll(queries);
    std::vector<Vector> soloOutputs;
    while (auto out = solo.popOutput())
        soloOutputs.push_back(out->result.output);

    A3Cluster cluster(cfg, 4);
    cluster.loadTask(task.key, task.value);
    const ClusterStats stats = cluster.runAll(queries);
    EXPECT_EQ(stats.queries, 32u);
    EXPECT_EQ(soloOutputs.size(), 32u);

    // Unit 0 received queries 0, 4, 8, ... in order.
    A3Accelerator probe(cfg);
    probe.loadTask(task.key, task.value);
    probe.submitQuery(queries[4]);
    probe.drain();
    const auto probeOut = probe.popOutput();
    ASSERT_TRUE(probeOut.has_value());
    EXPECT_EQ(probeOut->result.output, soloOutputs[4]);
}

TEST(Integration, HarnessEnginesAgreeOnEasyEpisodes)
{
    // On wide-margin episodes every engine retrieves the same row.
    EmbeddingParams params;
    params.relevantMargin = 8.0;
    params.marginJitter = 0.2;
    params.spikeProb = 0.0;
    Rng rng(9603);
    for (int e = 0; e < 20; ++e) {
        const EmbeddingEpisode ep =
            generateEpisode(rng, params, 24, 1);
        const AttentionResult ref =
            referenceAttention(ep.key, ep.value, ep.query);
        const ApproxAttention approx(ep.key, ep.value,
                                     ApproxConfig::conservative());
        const AttentionResult ap = approx.run(ep.query);
        const QuantizedAttention q(ep.key, ep.value, 4, 4);
        const AttentionResult qr = q.run(ep.query);
        const auto top = [](const Vector &w) {
            return topKIndices(w, 1)[0];
        };
        EXPECT_EQ(top(ref.weights), ep.relevantRows[0]);
        EXPECT_EQ(top(ap.weights), ep.relevantRows[0]);
        EXPECT_EQ(top(qr.weights), ep.relevantRows[0]);
    }
}

TEST(IntegrationDeath, SubmitBeforeLoadPanics)
{
    SimConfig cfg;
    cfg.maxRows = 16;
    cfg.dims = 64;
    A3Accelerator acc(cfg);
    Vector query(64, 0.5f);
    EXPECT_DEATH(acc.submitQuery(query), "before loadTask");
}

TEST(IntegrationDeath, WrongQueryDimensionPanics)
{
    SimConfig cfg;
    cfg.maxRows = 16;
    cfg.dims = 64;
    A3Accelerator acc(cfg);
    Matrix key(8, 64);
    Matrix value(8, 64);
    key(0, 0) = 1.0f;
    acc.loadTask(key, value);
    Vector narrow(32, 0.5f);
    EXPECT_DEATH(acc.submitQuery(narrow), "dimension");
}

TEST(IntegrationDeath, ReloadWhileInFlightPanics)
{
    SimConfig cfg;
    cfg.maxRows = 16;
    cfg.dims = 64;
    A3Accelerator acc(cfg);
    Matrix key(8, 64);
    Matrix value(8, 64);
    key(0, 0) = 1.0f;
    acc.loadTask(key, value);
    acc.submitQuery(Vector(64, 0.5f));
    EXPECT_DEATH(acc.loadTask(key, value), "in flight");
}

TEST(IntegrationDeath, MismatchedTaskShapesPanic)
{
    Matrix key(4, 8);
    Matrix value(5, 8);
    EXPECT_DEATH(ApproxAttention(key, value, ApproxConfig::exact()),
                 "shape mismatch");
}

}  // namespace
}  // namespace a3
