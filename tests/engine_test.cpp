/**
 * @file
 * Tests for engine::ScoringEngine: cache hits return bit-identical
 * reports, identical in-flight requests run the pipeline exactly once,
 * failures and timeouts are isolated per request, and the parallel
 * report builders match their serial twins double-for-double.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <thread>

#include "src/core/characterization.h"
#include "src/engine/engine.h"
#include "src/scoring/score_report.h"

namespace hiermeans {
namespace engine {
namespace {

/** A small but non-trivial request; `variant` decorrelates the data. */
ScoreRequest
makeRequest(std::uint64_t variant = 0)
{
    const std::size_t n = 6;
    const std::size_t d = 4;
    ScoreRequest request;
    request.features = linalg::Matrix(n, d);
    for (std::size_t r = 0; r < n; ++r) {
        for (std::size_t c = 0; c < d; ++c) {
            request.features(r, c) =
                static_cast<double>((r * 7 + c * 3 + variant * 11) %
                                    13) +
                0.25 * static_cast<double>(r);
        }
    }
    for (std::size_t r = 0; r < n; ++r) {
        request.workloads.push_back("w" + std::to_string(r));
        request.scoresA.push_back(1.0 + static_cast<double>(r));
        request.scoresB.push_back(
            2.0 + 0.5 * static_cast<double>((r + variant) % n));
    }
    for (std::size_t c = 0; c < d; ++c)
        request.featureNames.push_back("f" + std::to_string(c));
    request.config.kMin = 2;
    request.config.kMax = 4;
    request.config.som.rows = 4;
    request.config.som.cols = 5;
    request.config.som.steps = 200; // keep the tests fast.
    request.seed = 0x5eed + variant;
    return request;
}

void
expectBitIdentical(const scoring::ScoreReport &a,
                   const scoring::ScoreReport &b)
{
    ASSERT_EQ(a.rows.size(), b.rows.size());
    EXPECT_EQ(a.kind, b.kind);
    for (std::size_t i = 0; i < a.rows.size(); ++i) {
        EXPECT_EQ(a.rows[i].clusterCount, b.rows[i].clusterCount);
        EXPECT_TRUE(a.rows[i].partition == b.rows[i].partition);
        // Exact equality on purpose: cached results must be the same
        // doubles, not merely close.
        EXPECT_EQ(a.rows[i].scoreA, b.rows[i].scoreA);
        EXPECT_EQ(a.rows[i].scoreB, b.rows[i].scoreB);
        EXPECT_EQ(a.rows[i].ratio, b.rows[i].ratio);
    }
    EXPECT_EQ(a.plainA, b.plainA);
    EXPECT_EQ(a.plainB, b.plainB);
    EXPECT_EQ(a.plainRatio, b.plainRatio);
}

ScoringEngine::Config
smallEngineConfig(std::size_t threads)
{
    ScoringEngine::Config config;
    config.threads = threads;
    return config;
}

TEST(EngineTest, ExecutesARequestEndToEnd)
{
    ScoringEngine engine(smallEngineConfig(2));
    ScoreRequest request = makeRequest();
    request.id = "first";
    const ScoreResult result = engine.submit(std::move(request)).get();
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_EQ(result.id, "first");
    EXPECT_FALSE(result.cacheHit);
    EXPECT_FALSE(result.deduped);
    EXPECT_GE(result.report.rows.size(), 3u); // k = 2..4.
    EXPECT_GE(result.recommendedK, 2u);
    ASSERT_NE(result.analysis, nullptr);
    EXPECT_EQ(result.analysis->partitions.size(),
              result.report.rows.size());
}

TEST(EngineTest, CacheHitReturnsBitIdenticalReport)
{
    ScoringEngine engine(smallEngineConfig(2));
    const ScoreResult first = engine.submit(makeRequest()).get();
    ASSERT_TRUE(first.ok) << first.error;

    const ScoreResult second = engine.submit(makeRequest()).get();
    ASSERT_TRUE(second.ok) << second.error;
    EXPECT_TRUE(second.cacheHit);
    EXPECT_EQ(second.fingerprint, first.fingerprint);
    expectBitIdentical(first.report, second.report);
    // The analysis is shared, not recomputed.
    EXPECT_EQ(second.analysis.get(), first.analysis.get());

    const EngineMetrics &counters = engine.metrics();
    EXPECT_EQ(counters.requests.value(), 2u);
    EXPECT_EQ(counters.executions.value(), 1u);
    EXPECT_EQ(counters.cacheHits.value(), 1u);
}

TEST(EngineTest, InFlightDedupeRunsThePipelineOnce)
{
    ScoringEngine engine(smallEngineConfig(1));

    // Block the single worker so both submissions overlap in flight.
    std::promise<void> gate;
    std::shared_future<void> opened = gate.get_future().share();
    auto blocker = engine.pool().submit([opened]() { opened.wait(); });

    ScoreRequest a = makeRequest();
    a.id = "a";
    ScoreRequest b = makeRequest();
    b.id = "b";
    auto future_a = engine.submit(std::move(a));
    auto future_b = engine.submit(std::move(b));
    gate.set_value();
    blocker.get();

    const ScoreResult result_a = future_a.get();
    const ScoreResult result_b = future_b.get();
    ASSERT_TRUE(result_a.ok) << result_a.error;
    ASSERT_TRUE(result_b.ok) << result_b.error;
    EXPECT_EQ(result_a.id, "a");
    EXPECT_EQ(result_b.id, "b");
    EXPECT_FALSE(result_a.deduped);
    EXPECT_TRUE(result_b.deduped);
    expectBitIdentical(result_a.report, result_b.report);

    const EngineMetrics &counters = engine.metrics();
    EXPECT_EQ(counters.requests.value(), 2u);
    EXPECT_EQ(counters.executions.value(), 1u);
    EXPECT_EQ(counters.dedupedInFlight.value(), 1u);
    EXPECT_EQ(counters.cacheHits.value(), 0u);
}

TEST(EngineTest, FailuresAreIsolatedPerRequest)
{
    ScoringEngine engine(smallEngineConfig(2));

    ScoreRequest good_before = makeRequest(1);
    good_before.id = "good-before";
    ScoreRequest bad = makeRequest(2);
    bad.id = "bad";
    bad.scoresA.pop_back(); // size mismatch -> pipeline throws.
    ScoreRequest good_after = makeRequest(3);
    good_after.id = "good-after";

    std::vector<ScoreRequest> batch;
    batch.push_back(std::move(good_before));
    batch.push_back(std::move(bad));
    batch.push_back(std::move(good_after));
    const std::vector<ScoreResult> results =
        engine.runBatch(std::move(batch));

    ASSERT_EQ(results.size(), 3u);
    EXPECT_EQ(results[0].id, "good-before");
    EXPECT_TRUE(results[0].ok) << results[0].error;
    EXPECT_EQ(results[1].id, "bad");
    EXPECT_FALSE(results[1].ok);
    EXPECT_FALSE(results[1].error.empty());
    EXPECT_EQ(results[2].id, "good-after");
    EXPECT_TRUE(results[2].ok) << results[2].error;

    EXPECT_EQ(engine.metrics().failures.value(), 1u);
}

TEST(EngineTest, FailedRequestsAreNotCached)
{
    ScoringEngine engine(smallEngineConfig(1));
    ScoreRequest bad = makeRequest();
    bad.scoresA.pop_back();
    const ScoreResult first = engine.submit(bad).get();
    EXPECT_FALSE(first.ok);
    const ScoreResult second = engine.submit(bad).get();
    EXPECT_FALSE(second.ok);
    EXPECT_FALSE(second.cacheHit);
    EXPECT_EQ(engine.metrics().executions.value(), 2u);
}

TEST(EngineTest, QueueExpiredRequestsTimeOutWithoutExecuting)
{
    ScoringEngine engine(smallEngineConfig(1));

    // Hold the only worker long enough for the deadline to lapse.
    std::promise<void> gate;
    std::shared_future<void> opened = gate.get_future().share();
    auto blocker = engine.pool().submit([opened]() { opened.wait(); });

    ScoreRequest request = makeRequest();
    CancelSource deadline;
    deadline.setDeadline(1.0);
    request.cancel = deadline.token();
    auto future = engine.submit(std::move(request));
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    gate.set_value();
    blocker.get();

    const ScoreResult result = future.get();
    EXPECT_FALSE(result.ok);
    EXPECT_TRUE(result.timedOut);
    EXPECT_NE(result.error.find("timed out"), std::string::npos)
        << result.error;
    const EngineMetrics &counters = engine.metrics();
    EXPECT_EQ(counters.timeouts.value(), 1u);
    EXPECT_EQ(counters.executions.value(), 0u); // never reached the pipeline.
}

TEST(EngineTest, OverrunningExecutionTimesOutCooperatively)
{
    // A free worker picks the request up well inside the 10 ms
    // deadline, so the queue check passes — but the pipeline (given a
    // deliberately huge SOM step budget) overruns it, and the engine
    // reports a cooperative timeout instead of a result.
    ScoringEngine engine(smallEngineConfig(1));
    ScoreRequest request = makeRequest();
    request.config.som.steps = 200000;
    CancelSource deadline;
    deadline.setDeadline(10.0);
    request.cancel = deadline.token();
    const ScoreResult result = engine.submit(std::move(request)).get();

    EXPECT_FALSE(result.ok);
    EXPECT_TRUE(result.timedOut);
    const EngineMetrics &counters = engine.metrics();
    EXPECT_EQ(counters.timeouts.value(), 1u);
    EXPECT_EQ(counters.executions.value(), 1u); // it ran, then overran.

    // Timed-out results must not poison the cache: the identical
    // request (deadlines are not part of the fingerprint) without a
    // deadline executes fresh and succeeds.
    ScoreRequest retry = makeRequest();
    retry.config.som.steps = 200000;
    const ScoreResult retried = engine.submit(std::move(retry)).get();
    EXPECT_TRUE(retried.ok) << retried.error;
    EXPECT_FALSE(retried.cacheHit);
}

TEST(EngineTest, CacheEvictsUnderPressureAndStaysBounded)
{
    // A cache big enough for ~2 reports: 8 distinct requests must
    // evict most of their predecessors yet every result stays correct.
    ScoringEngine::Config config = smallEngineConfig(2);
    config.cache.maxEntries = 2;
    config.cache.maxBytes = 1024 * 1024;
    ScoringEngine engine(config);

    for (std::uint64_t variant = 0; variant < 8; ++variant) {
        const ScoreResult result =
            engine.submit(makeRequest(variant)).get();
        ASSERT_TRUE(result.ok) << result.error;
    }
    EXPECT_LE(engine.cache().size(), 2u);
    const ResultCache::Stats stats = engine.cache().stats();
    EXPECT_GE(stats.evictions, 6u);

    // The most recent fingerprint survived; an evicted one re-executes
    // and still returns a bit-identical report.
    const ScoreResult recent = engine.submit(makeRequest(7)).get();
    ASSERT_TRUE(recent.ok);
    EXPECT_TRUE(recent.cacheHit);

    const std::uint64_t executions_before =
        engine.metrics().executions.value();
    const ScoreResult evicted = engine.submit(makeRequest(0)).get();
    ASSERT_TRUE(evicted.ok);
    EXPECT_FALSE(evicted.cacheHit);
    EXPECT_EQ(engine.metrics().executions.value(),
              executions_before + 1);
}

TEST(EngineTest, IdenticalRequestsAreDeterministicAcrossEngines)
{
    ScoringEngine engine_a(smallEngineConfig(4));
    ScoringEngine engine_b(smallEngineConfig(1));
    const ScoreResult a = engine_a.submit(makeRequest()).get();
    const ScoreResult b = engine_b.submit(makeRequest()).get();
    ASSERT_TRUE(a.ok) << a.error;
    ASSERT_TRUE(b.ok) << b.error;
    EXPECT_EQ(a.fingerprint, b.fingerprint);
    expectBitIdentical(a.report, b.report);
    EXPECT_EQ(a.recommendedK, b.recommendedK);
}

TEST(EngineTest, ParallelScoreReportMatchesSerialBuilder)
{
    const ScoreRequest request = makeRequest();
    const core::CharacteristicVectors vectors = core::characterizeRaw(
        request.features, request.workloads, request.featureNames);
    core::PipelineConfig config = request.config;
    config.som.seed = request.seed;
    const core::ClusterAnalysis analysis =
        core::analyzeClusters(vectors, config);

    const scoring::ScoreReport serial = scoring::buildScoreReport(
        stats::MeanKind::Geometric, request.scoresA, request.scoresB,
        analysis.partitions);

    ThreadPool pool(4);
    const scoring::ScoreReport parallel = buildScoreReportParallel(
        pool, stats::MeanKind::Geometric, request.scoresA,
        request.scoresB, analysis.partitions);
    expectBitIdentical(serial, parallel);
}

TEST(EngineTest, ParallelMultiMachineReportMatchesSerialBuilder)
{
    const ScoreRequest request = makeRequest();
    const core::CharacteristicVectors vectors = core::characterizeRaw(
        request.features, request.workloads, request.featureNames);
    core::PipelineConfig config = request.config;
    config.som.seed = request.seed;
    const core::ClusterAnalysis analysis =
        core::analyzeClusters(vectors, config);

    const std::vector<std::vector<double>> machine_scores = {
        request.scoresA, request.scoresB,
        {3.0, 1.0, 4.0, 1.5, 9.0, 2.6}};
    const std::vector<std::string> labels = {"A", "B", "C"};

    const scoring::MultiMachineReport serial =
        scoring::buildMultiMachineReport(stats::MeanKind::Geometric,
                                         machine_scores, labels,
                                         analysis.partitions);
    ThreadPool pool(3);
    const scoring::MultiMachineReport parallel =
        buildMultiMachineReportParallel(pool,
                                        stats::MeanKind::Geometric,
                                        machine_scores, labels,
                                        analysis.partitions);

    ASSERT_EQ(serial.rows.size(), parallel.rows.size());
    for (std::size_t r = 0; r < serial.rows.size(); ++r) {
        ASSERT_EQ(serial.rows[r].scores.size(),
                  parallel.rows[r].scores.size());
        for (std::size_t m = 0; m < serial.rows[r].scores.size(); ++m) {
            EXPECT_EQ(serial.rows[r].scores[m],
                      parallel.rows[r].scores[m]);
        }
    }
    EXPECT_EQ(serial.plainScores, parallel.plainScores);
    EXPECT_EQ(serial.render(), parallel.render());
}

TEST(EngineTest, ConcurrentMixedBatchCompletes)
{
    // A stress-shaped batch: 24 requests over 6 distinct fingerprints
    // racing on 4 workers — exercises cache, dedupe and flights under
    // real contention (run under TSan via HIERMEANS_SANITIZE=ON).
    ScoringEngine engine(smallEngineConfig(4));
    std::vector<std::future<ScoreResult>> futures;
    for (std::uint64_t round = 0; round < 4; ++round) {
        for (std::uint64_t variant = 0; variant < 6; ++variant) {
            ScoreRequest request = makeRequest(variant);
            request.id = "r" + std::to_string(round) + "v" +
                         std::to_string(variant);
            futures.push_back(engine.submit(std::move(request)));
        }
    }
    std::size_t ok = 0;
    for (auto &future : futures)
        ok += future.get().ok ? 1 : 0;
    EXPECT_EQ(ok, futures.size());

    const EngineMetrics &counters = engine.metrics();
    EXPECT_EQ(counters.requests.value(), 24u);
    // Each distinct fingerprint executed exactly once; the other 18
    // requests were served by the cache or by in-flight dedupe.
    EXPECT_EQ(counters.executions.value(), 6u);
    EXPECT_EQ(counters.cacheHits.value() + counters.dedupedInFlight.value(), 18u);
}

} // namespace
} // namespace engine
} // namespace hiermeans
