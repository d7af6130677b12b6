/**
 * @file
 * Engine behaviour under injected faults: a cache insert that dies
 * must not fail the request (and must not wedge the single-flight
 * table), and a task that throws mid-pipeline must be isolated and
 * counted. Runs clean under -DHIERMEANS_SANITIZE=thread.
 */

#include <gtest/gtest.h>

#include <future>
#include <vector>

#include "src/engine/engine.h"
#include "src/util/fault.h"

namespace hiermeans {
namespace engine {
namespace {

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

class EngineFaultTest : public ::testing::Test
{
  protected:
    void SetUp() override { fault::reset(); }
    void TearDown() override { fault::reset(); }
};

TEST_F(EngineFaultTest, FailedCacheInsertStillServesTheResult)
{
    fault::configure("engine.cache.put=always");
    ScoringEngine engine(ScoringEngine::Config{});
    const ScoreResult result = engine.submit(makeRequest()).get();
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_FALSE(result.cacheHit);
    const EngineMetrics &counters = engine.metrics();
    EXPECT_EQ(counters.cacheInsertFailures.value(), 1u);
    EXPECT_EQ(counters.failures.value(), 0u)
        << "a dead cache insert is not a request failure";
    EXPECT_EQ(engine.cache().size(), 0u);
}

TEST_F(EngineFaultTest, FailedCacheInsertDoesNotWedgeTheFlightTable)
{
    // The regression this guards: cache_.put throwing used to skip
    // the flight cleanup, so the *next* identical request would wait
    // on a flight that never lands. With the fault always on, every
    // resubmission must execute afresh and return promptly.
    fault::configure("engine.cache.put=always");
    ScoringEngine engine(ScoringEngine::Config{});
    for (int round = 0; round < 3; ++round) {
        const ScoreResult result = engine.submit(makeRequest()).get();
        ASSERT_TRUE(result.ok) << "round " << round << ": "
                               << result.error;
        EXPECT_FALSE(result.cacheHit);
    }
    const EngineMetrics &counters = engine.metrics();
    EXPECT_EQ(counters.executions.value(), 3u);
    EXPECT_EQ(counters.cacheInsertFailures.value(), 3u);
}

TEST_F(EngineFaultTest, ConcurrentTwinsStillCollapseWhenInsertFails)
{
    fault::configure("engine.cache.put=always");
    ScoringEngine::Config config;
    config.threads = 4;
    ScoringEngine engine(config);
    std::vector<std::future<ScoreResult>> futures;
    for (int i = 0; i < 12; ++i)
        futures.push_back(engine.submit(makeRequest()));
    std::size_t ok = 0;
    for (auto &future : futures)
        ok += future.get().ok ? 1 : 0;
    EXPECT_EQ(ok, futures.size());
    const EngineMetrics &counters = engine.metrics();
    EXPECT_EQ(counters.requests.value(), 12u);
    // Nothing is ever cached, so every request either executed or
    // piggybacked on an in-flight twin — and nobody deadlocked.
    EXPECT_EQ(counters.cacheHits.value(), 0u);
    EXPECT_EQ(counters.executions.value() + counters.dedupedInFlight.value(), 12u);
    EXPECT_GE(counters.dedupedInFlight.value(), 1u)
        << "single-flight must still collapse concurrent twins";
}

TEST_F(EngineFaultTest, InjectedTaskFailureIsIsolatedAndCounted)
{
    fault::configure("engine.task=once");
    ScoringEngine engine(ScoringEngine::Config{});
    const ScoreResult failed = engine.submit(makeRequest()).get();
    EXPECT_FALSE(failed.ok);
    EXPECT_NE(failed.error.find("injected"), std::string::npos)
        << failed.error;
    EXPECT_EQ(engine.metrics().failures.value(), 1u);

    // `once` has burnt out: the identical request now succeeds, fresh
    // (the failure must not have been cached).
    const ScoreResult retried = engine.submit(makeRequest()).get();
    ASSERT_TRUE(retried.ok) << retried.error;
    EXPECT_FALSE(retried.cacheHit);
}

TEST_F(EngineFaultTest, EveryNthTaskFailureLeavesTheRestAlone)
{
    fault::configure("engine.task=every:2");
    ScoringEngine engine(ScoringEngine::Config{});
    std::size_t ok = 0;
    std::size_t failed = 0;
    for (std::uint64_t variant = 0; variant < 6; ++variant) {
        const ScoreResult result =
            engine.submit(makeRequest(variant)).get();
        result.ok ? ++ok : ++failed;
    }
    EXPECT_EQ(ok, 3u);
    EXPECT_EQ(failed, 3u);
    EXPECT_EQ(engine.metrics().failures.value(), 3u);
}

} // namespace
} // namespace engine
} // namespace hiermeans
