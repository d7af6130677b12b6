/**
 * @file
 * Tests for engine::ResultCache (LRU + byte-bound eviction, MRU
 * promotion, stats, the byte estimate of an analysis-bearing entry)
 * and engine::Fingerprint (requests differing in any config field,
 * seed, data or scores must not collide; identical requests must).
 */

#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "src/core/characterization.h"
#include "src/engine/engine.h"
#include "src/engine/fingerprint.h"
#include "src/engine/result_cache.h"
#include "src/gen/family.h"
#include "src/gen/registry.h"
#include "src/util/error.h"

namespace hiermeans {
namespace engine {
namespace {

CachedResult
resultWithPartitionSize(std::size_t items)
{
    CachedResult result;
    scoring::ScoreReportRow row;
    row.clusterCount = 1;
    row.partition = scoring::Partition::single(items);
    row.scoreA = 1.0;
    row.scoreB = 2.0;
    row.ratio = 0.5;
    result.report.rows.push_back(std::move(row));
    result.recommendedK = 1;
    return result;
}

TEST(ResultCacheTest, MissThenHit)
{
    ResultCache cache;
    EXPECT_FALSE(cache.get(42).has_value());
    cache.put(42, resultWithPartitionSize(3));
    const auto hit = cache.get(42);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->report.rows.size(), 1u);
    EXPECT_DOUBLE_EQ(hit->report.rows[0].ratio, 0.5);
    const auto stats = cache.stats();
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.insertions, 1u);
}

TEST(ResultCacheTest, EvictsLeastRecentlyUsedAtEntryBound)
{
    ResultCache::Config config;
    config.maxEntries = 3;
    ResultCache cache(config);
    cache.put(1, resultWithPartitionSize(2));
    cache.put(2, resultWithPartitionSize(2));
    cache.put(3, resultWithPartitionSize(2));
    cache.put(4, resultWithPartitionSize(2)); // evicts 1 (LRU).
    EXPECT_EQ(cache.size(), 3u);
    EXPECT_FALSE(cache.get(1).has_value());
    EXPECT_TRUE(cache.get(2).has_value());
    EXPECT_TRUE(cache.get(3).has_value());
    EXPECT_TRUE(cache.get(4).has_value());
    EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(ResultCacheTest, GetPromotesEntryToMostRecentlyUsed)
{
    ResultCache::Config config;
    config.maxEntries = 2;
    ResultCache cache(config);
    cache.put(1, resultWithPartitionSize(2));
    cache.put(2, resultWithPartitionSize(2));
    EXPECT_TRUE(cache.get(1).has_value()); // 1 becomes MRU.
    cache.put(3, resultWithPartitionSize(2)); // evicts 2, not 1.
    EXPECT_TRUE(cache.get(1).has_value());
    EXPECT_FALSE(cache.get(2).has_value());
    EXPECT_TRUE(cache.get(3).has_value());
}

TEST(ResultCacheTest, EnforcesByteBound)
{
    const std::size_t per_entry =
        estimateBytes(resultWithPartitionSize(1000));
    ResultCache::Config config;
    config.maxEntries = 100;
    config.maxBytes = per_entry * 2 + per_entry / 2; // fits two.
    ResultCache cache(config);
    cache.put(1, resultWithPartitionSize(1000));
    cache.put(2, resultWithPartitionSize(1000));
    EXPECT_EQ(cache.size(), 2u);
    cache.put(3, resultWithPartitionSize(1000));
    EXPECT_EQ(cache.size(), 2u); // byte bound evicted the LRU.
    EXPECT_FALSE(cache.get(1).has_value());
    EXPECT_LE(cache.byteEstimate(), config.maxBytes);
}

TEST(ResultCacheTest, OversizedResultIsNeverResident)
{
    ResultCache::Config config;
    config.maxEntries = 4;
    config.maxBytes = 512; // smaller than any real result.
    ResultCache cache(config);
    cache.put(1, resultWithPartitionSize(100000));
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_FALSE(cache.get(1).has_value());
}

TEST(ResultCacheTest, OverwriteReplacesAndKeepsBoundsConsistent)
{
    ResultCache cache;
    cache.put(7, resultWithPartitionSize(10));
    const std::size_t small = cache.byteEstimate();
    cache.put(7, resultWithPartitionSize(1000));
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_GT(cache.byteEstimate(), small);
    cache.clear();
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.byteEstimate(), 0u);
}

std::size_t
matrixBytes(const linalg::Matrix &matrix)
{
    return matrix.rows() * matrix.cols() * sizeof(double);
}

TEST(ResultCacheTest, EstimateCountsWhatAnAnalysisHolds)
{
    // A 160-workload BigData suite: the feature rows, twice (the
    // analysis's vectors and the map's own training copy), outweigh
    // everything else the entry holds.
    gen::FamilyConfig family =
        gen::defaultConfig(gen::FamilyKind::BigData, 12345);
    family.workloads = 160;
    family.clusters = 8;
    family.machines = 3;
    const gen::GeneratedSuite suite = gen::generateSuite(family);
    const core::CharacteristicVectors vectors = core::characterizeRaw(
        suite.features.values, suite.workloadNames(),
        suite.features.featureNames);
    core::PipelineConfig config;
    config.autoSizeSom(family.workloads);
    config.som.steps = 200; // keep the test fast.
    auto analysis = std::make_shared<const core::ClusterAnalysis>(
        core::analyzeClusters(vectors, config));

    std::vector<double> scores_a;
    std::vector<double> scores_b;
    for (std::size_t w = 0; w < family.workloads; ++w) {
        scores_a.push_back(suite.scores(w, 1));
        scores_b.push_back(suite.scores(w, 2));
    }
    CachedResult entry;
    entry.report = core::scoreAgainstClusters(
        *analysis, stats::MeanKind::Geometric, scores_a, scores_b);
    entry.analysis = analysis;

    // analyzeClusters trains the map on vectors.features.
    const std::size_t features = matrixBytes(analysis->vectors.features);
    std::size_t floor = 2 * features +
                        matrixBytes(analysis->map.weights()) +
                        matrixBytes(analysis->gridPositions) +
                        analysis->bmus.size() * sizeof(std::size_t);
    for (const scoring::Partition &partition : analysis->partitions)
        floor += partition.size() * sizeof(std::size_t);
    EXPECT_GE(estimateBytes(entry), floor);

    ResultCache cache;
    cache.put(1, entry);
    EXPECT_EQ(cache.byteEstimate(), estimateBytes(entry));
}

// --- fingerprints -------------------------------------------------------

ScoreRequest
baseRequest()
{
    ScoreRequest request;
    request.features = linalg::Matrix(4, 3);
    double value = 0.1;
    for (std::size_t r = 0; r < 4; ++r) {
        for (std::size_t c = 0; c < 3; ++c) {
            request.features(r, c) = value;
            value += 0.7;
        }
    }
    request.workloads = {"w0", "w1", "w2", "w3"};
    request.featureNames = {"f0", "f1", "f2"};
    request.scoresA = {1.0, 2.0, 3.0, 4.0};
    request.scoresB = {4.0, 3.0, 2.0, 1.0};
    request.config.kMin = 2;
    request.config.kMax = 4;
    request.seed = 0x5eed;
    return request;
}

TEST(FingerprintTest, IdenticalRequestsCollide)
{
    EXPECT_EQ(fingerprintRequest(baseRequest()),
              fingerprintRequest(baseRequest()));
}

TEST(FingerprintTest, PresentationFieldsDoNotAffectTheFingerprint)
{
    ScoreRequest relabeled = baseRequest();
    relabeled.id = "different-id";
    relabeled.labelA = "left";
    relabeled.labelB = "right";
    EXPECT_EQ(fingerprintRequest(baseRequest()),
              fingerprintRequest(relabeled));
}

TEST(FingerprintTest, EveryConfigFieldIsDiscriminated)
{
    // Each mutation must produce a distinct fingerprint — a collision
    // here would serve one configuration's report for another's.
    std::vector<ScoreRequest> variants;
    variants.push_back(baseRequest());

    ScoreRequest v = baseRequest();
    v.seed = 0xbeef;
    variants.push_back(v);

    v = baseRequest();
    v.config.kMin = 3;
    variants.push_back(v);

    v = baseRequest();
    v.config.kMax = 3;
    variants.push_back(v);

    v = baseRequest();
    v.config.linkage = cluster::Linkage::Ward;
    variants.push_back(v);

    v = baseRequest();
    v.config.som.rows += 1;
    variants.push_back(v);

    v = baseRequest();
    v.config.som.steps += 1;
    variants.push_back(v);

    v = baseRequest();
    v.config.som.alphaStart += 0.01;
    variants.push_back(v);

    v = baseRequest();
    v.kind = stats::MeanKind::Arithmetic;
    variants.push_back(v);

    v = baseRequest();
    v.scoresA[0] += 1e-9;
    variants.push_back(v);

    v = baseRequest();
    v.features(0, 0) += 1e-9;
    variants.push_back(v);

    v = baseRequest();
    v.workloads[0] = "renamed";
    variants.push_back(v);

    std::set<std::uint64_t> digests;
    for (const ScoreRequest &variant : variants)
        digests.insert(fingerprintRequest(variant));
    EXPECT_EQ(digests.size(), variants.size());
}

TEST(FingerprintTest, SeedFieldShadowsConfigSomSeed)
{
    // The request-level seed is the effective one: two requests whose
    // configs disagree but whose request seeds agree must collide.
    ScoreRequest a = baseRequest();
    a.config.som.seed = 111;
    a.seed = 42;
    ScoreRequest b = baseRequest();
    b.config.som.seed = 222;
    b.seed = 42;
    EXPECT_EQ(fingerprintRequest(a), fingerprintRequest(b));
}

TEST(FingerprintTest, LengthPrefixPreventsConcatenationCollisions)
{
    Fingerprint a;
    a.mix(std::string("ab"));
    a.mix(std::string("c"));
    Fingerprint b;
    b.mix(std::string("a"));
    b.mix(std::string("bc"));
    EXPECT_NE(a.digest(), b.digest());
}

TEST(FingerprintTest, NormalizesSignedZero)
{
    Fingerprint a;
    a.mix(0.0);
    Fingerprint b;
    b.mix(-0.0);
    EXPECT_EQ(a.digest(), b.digest());
}

} // namespace
} // namespace engine
} // namespace hiermeans
