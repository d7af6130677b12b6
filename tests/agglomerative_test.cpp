/**
 * @file
 * Tests for agglomerative hierarchical clustering (Section III-B).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <set>

#include <tuple>

#include "src/cluster/agglomerative.h"
#include "src/core/characterization.h"
#include "src/core/pipeline.h"
#include "src/gen/family.h"
#include "src/gen/registry.h"
#include "src/som/som.h"
#include "src/util/error.h"
#include "src/util/rng.h"

namespace {

using namespace hiermeans::cluster;
using hiermeans::InvalidArgument;
using hiermeans::linalg::Matrix;
using hiermeans::linalg::Metric;
using hiermeans::linalg::Vector;
using hiermeans::scoring::Partition;
using hiermeans::som::GridKind;

TEST(AgglomerativeTest, SinglePointYieldsEmptyMergeList)
{
    const Dendrogram d = agglomerate(Matrix::fromRows({{1.0, 2.0}}));
    EXPECT_EQ(d.leafCount(), 1u);
    EXPECT_TRUE(d.merges().empty());
}

TEST(AgglomerativeTest, HandCheckedThreePoints)
{
    // Points on a line at 0, 1, 10: first merge {0,1} at distance 1,
    // then complete linkage joins the pair with 10 at distance 10.
    const Matrix points = Matrix::fromRows({{0.0}, {1.0}, {10.0}});
    const Dendrogram d = agglomerate(points, Linkage::Complete);
    ASSERT_EQ(d.merges().size(), 2u);
    EXPECT_DOUBLE_EQ(d.merges()[0].height, 1.0);
    EXPECT_EQ(d.merges()[0].left, 0u);
    EXPECT_EQ(d.merges()[0].right, 1u);
    EXPECT_DOUBLE_EQ(d.merges()[1].height, 10.0);
    EXPECT_EQ(d.merges()[1].size, 3u);
}

TEST(AgglomerativeTest, SingleVsCompleteDifferOnChains)
{
    // A chain 0 - 2 - 4 - 6: single linkage merges the whole chain at
    // distance 2; complete linkage heights grow with cluster diameter.
    const Matrix points =
        Matrix::fromRows({{0.0}, {2.0}, {4.0}, {6.0}});
    const Dendrogram single = agglomerate(points, Linkage::Single);
    const Dendrogram complete = agglomerate(points, Linkage::Complete);
    EXPECT_DOUBLE_EQ(single.merges().back().height, 2.0);
    EXPECT_DOUBLE_EQ(complete.merges().back().height, 6.0);
}

TEST(AgglomerativeTest, CompleteMatchesBruteForceDefinition)
{
    // d(A, B) = max pairwise distance: verify the final merge height
    // equals the data diameter under complete linkage.
    hiermeans::rng::Engine engine(21);
    std::vector<Vector> rows;
    for (int i = 0; i < 12; ++i)
        rows.push_back({engine.uniform(0.0, 5.0),
                        engine.uniform(0.0, 5.0)});
    const Matrix points = Matrix::fromRows(rows);
    const Dendrogram d = agglomerate(points, Linkage::Complete);

    const Matrix dist = hiermeans::linalg::pairwiseDistances(points);
    double diameter = 0.0;
    for (std::size_t i = 0; i < dist.rows(); ++i)
        for (std::size_t j = i + 1; j < dist.cols(); ++j)
            diameter = std::max(diameter, dist(i, j));
    EXPECT_NEAR(d.merges().back().height, diameter, 1e-9);
}

TEST(AgglomerativeTest, FromDistancesValidation)
{
    Matrix bad(2, 3);
    EXPECT_THROW(agglomerateFromDistances(bad), InvalidArgument);
    Matrix diag(2, 2, 0.0);
    diag(0, 0) = 1.0;
    EXPECT_THROW(agglomerateFromDistances(diag), InvalidArgument);
    Matrix asym(2, 2, 0.0);
    asym(0, 1) = 1.0;
    asym(1, 0) = 2.0;
    EXPECT_THROW(agglomerateFromDistances(asym), InvalidArgument);
    Matrix negative(2, 2, 0.0);
    negative(0, 1) = -1.0;
    negative(1, 0) = -1.0;
    EXPECT_THROW(agglomerateFromDistances(negative), InvalidArgument);
}

TEST(AgglomerativeTest, WardRequiresEuclidean)
{
    const Matrix points = Matrix::fromRows({{0.0}, {1.0}});
    EXPECT_THROW(agglomerate(points, Linkage::Ward,
                             hiermeans::linalg::Metric::Manhattan),
                 InvalidArgument);
    EXPECT_NO_THROW(agglomerate(points, Linkage::Ward));
}

TEST(AgglomerativeTest, DeterministicUnderTies)
{
    // Four corners of a square: every nearest pair is tied. Two runs
    // must produce identical merge lists.
    const Matrix points = Matrix::fromRows(
        {{0.0, 0.0}, {1.0, 0.0}, {0.0, 1.0}, {1.0, 1.0}});
    const Dendrogram a = agglomerate(points);
    const Dendrogram b = agglomerate(points);
    ASSERT_EQ(a.merges().size(), b.merges().size());
    for (std::size_t i = 0; i < a.merges().size(); ++i) {
        EXPECT_EQ(a.merges()[i].left, b.merges()[i].left);
        EXPECT_EQ(a.merges()[i].right, b.merges()[i].right);
        EXPECT_DOUBLE_EQ(a.merges()[i].height, b.merges()[i].height);
    }
}

class LinkageMonotonicityProperty
    : public ::testing::TestWithParam<std::tuple<Linkage, std::uint64_t>>
{
};

TEST_P(LinkageMonotonicityProperty, HeightsNeverDecrease)
{
    const auto [linkage, seed] = GetParam();
    hiermeans::rng::Engine engine(seed);
    const std::size_t n = 4 + engine.below(16);
    std::vector<Vector> rows;
    for (std::size_t i = 0; i < n; ++i)
        rows.push_back({engine.uniform(-3.0, 3.0),
                        engine.uniform(-3.0, 3.0),
                        engine.uniform(-3.0, 3.0)});
    const Dendrogram d = agglomerate(Matrix::fromRows(rows), linkage);
    EXPECT_TRUE(d.heightsMonotone()) << linkageName(linkage);
}

TEST_P(LinkageMonotonicityProperty, EveryCutCountReachable)
{
    const auto [linkage, seed] = GetParam();
    hiermeans::rng::Engine engine(seed ^ 0xF00D);
    const std::size_t n = 3 + engine.below(10);
    std::vector<Vector> rows;
    for (std::size_t i = 0; i < n; ++i)
        rows.push_back({engine.uniform(0.0, 9.0)});
    const Dendrogram d = agglomerate(Matrix::fromRows(rows), linkage);
    for (std::size_t k = 1; k <= n; ++k) {
        const Partition p = d.cutAtCount(k);
        EXPECT_EQ(p.clusterCount(), k);
        EXPECT_EQ(p.size(), n);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllLinkages, LinkageMonotonicityProperty,
    ::testing::Combine(::testing::Values(Linkage::Single,
                                         Linkage::Complete,
                                         Linkage::Average,
                                         Linkage::Weighted, Linkage::Ward),
                       ::testing::Values(1u, 17u, 4242u)));

constexpr Linkage kLinkages[] = {Linkage::Single, Linkage::Complete,
                                 Linkage::Average, Linkage::Weighted,
                                 Linkage::Ward};
constexpr Metric kExactMetrics[] = {Metric::Euclidean,
                                    Metric::SquaredEuclidean,
                                    Metric::Manhattan, Metric::Chebyshev};

/** agglomerate() against the full scan over the pairwise matrix. */
void
expectMatchesFullScan(const Matrix &points, Linkage linkage, Metric metric)
{
    SCOPED_TRACE(std::string(linkageName(linkage)) + "/" +
                 hiermeans::linalg::metricName(metric));
    std::vector<Merge> want;
    try {
        want = agglomerateFromDistances(
                   hiermeans::linalg::pairwiseDistances(points, metric),
                   linkage)
                   .merges();
    } catch (const InvalidArgument &) {
        EXPECT_THROW(agglomerate(points, linkage, metric), InvalidArgument);
        return;
    }
    const Dendrogram got = agglomerate(points, linkage, metric);
    ASSERT_EQ(got.leafCount(), points.rows());
    ASSERT_EQ(got.merges().size(), want.size());
    for (std::size_t m = 0; m < want.size(); ++m) {
        const Merge &g = got.merges()[m];
        EXPECT_EQ(g.left, want[m].left) << "merge " << m;
        EXPECT_EQ(g.right, want[m].right) << "merge " << m;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(g.height),
                  std::bit_cast<std::uint64_t>(want[m].height))
            << "merge " << m << ": " << g.height << " vs "
            << want[m].height;
        EXPECT_EQ(g.size, want[m].size) << "merge " << m;
    }
}

std::size_t
distinctRows(const Matrix &points)
{
    std::set<std::vector<double>> rows;
    for (std::size_t r = 0; r < points.rows(); ++r)
        rows.insert(std::vector<double>(points.rowData(r),
                                        points.rowData(r) + points.cols()));
    return rows.size();
}

/**
 * SOM grid positions of a seeded generated suite, computed as the
 * scoring pipeline does: characterize, auto-size the map, train, map.
 */
Matrix
suitePositions(std::size_t workloads, GridKind grid, std::uint64_t seed)
{
    namespace gen = hiermeans::gen;
    gen::FamilyConfig family =
        gen::defaultConfig(gen::FamilyKind::BigData, seed);
    family.workloads = workloads;
    family.clusters = workloads >= 160 ? 8 : 4;
    const gen::GeneratedSuite suite = gen::generateSuite(family);
    const hiermeans::core::CharacteristicVectors vectors =
        hiermeans::core::characterizeRaw(suite.features.values,
                                         suite.workloadNames(),
                                         suite.features.featureNames);
    hiermeans::core::PipelineConfig config;
    config.autoSizeSom(workloads);
    config.som.grid = grid;
    config.som.steps = 150;
    config.som.seed = seed;
    return hiermeans::som::SelfOrganizingMap::train(vectors.features,
                                                    config.som)
        .mapAll(vectors.features);
}

class CollapseProperty
    : public ::testing::TestWithParam<std::tuple<std::size_t, GridKind>>
{
};

TEST_P(CollapseProperty, MatchesFullScanOnSomGridPositions)
{
    // SOM positions are lattice points, so many workloads share a
    // unit: the input the zero-height collapse is built for.
    const auto [workloads, grid] = GetParam();
    for (const std::uint64_t seed : {3u, 41u, 9001u}) {
        const Matrix positions = suitePositions(workloads, grid, seed);
        ASSERT_LT(distinctRows(positions), workloads);
        SCOPED_TRACE("seed " + std::to_string(seed));
        for (const Linkage linkage : kLinkages) {
            for (const Metric metric : kExactMetrics) {
                if (linkage == Linkage::Ward && metric != Metric::Euclidean)
                    continue; // ward needs Euclidean distances.
                expectMatchesFullScan(positions, linkage, metric);
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    GenSuites, CollapseProperty,
    ::testing::Combine(::testing::Values(std::size_t{32}, std::size_t{160}),
                       ::testing::Values(GridKind::Rectangular,
                                         GridKind::Hexagonal)));

/** Every linkage and metric on @p points, cosine included. */
void
expectEveryCombinationMatches(const Matrix &points)
{
    for (const Linkage linkage : kLinkages) {
        for (const Metric metric :
             {Metric::Euclidean, Metric::SquaredEuclidean,
              Metric::Manhattan, Metric::Chebyshev, Metric::Cosine}) {
            if (linkage == Linkage::Ward && metric != Metric::Euclidean)
                continue;
            expectMatchesFullScan(points, linkage, metric);
        }
    }
}

TEST(AgglomerativeTest, CollapseFallsBackOnNearTies)
{
    // Repeated rows plus two distinct rows closer than the scan's tie
    // tolerance: the scan treats their distance as a tie with 0.
    const double eps = std::nextafter(2.0, 3.0);
    const Matrix points = Matrix::fromRows({{2.0, 0.0},
                                            {0.0, 1.0},
                                            {eps, 0.0},
                                            {0.0, 1.0},
                                            {2.0, 0.0},
                                            {5.0, 5.0},
                                            {0.0, 1.0}});
    ASSERT_LT(distinctRows(points), points.rows());
    expectEveryCombinationMatches(points);
}

TEST(AgglomerativeTest, CollapseFallsBackForCosine)
{
    // Distinct rows on one ray are at cosine distance 0, and repeats
    // of a row need not be: the cosine metric keeps the full scan.
    const Matrix points = Matrix::fromRows({{1.0, 2.0},
                                            {2.0, 4.0},
                                            {0.3, 0.7},
                                            {1.0, 2.0},
                                            {0.3, 0.7},
                                            {-1.0, 0.5},
                                            {0.3, 0.7}});
    for (const Linkage linkage : kLinkages) {
        if (linkage != Linkage::Ward)
            expectMatchesFullScan(points, linkage, Metric::Cosine);
    }
}

TEST(AgglomerativeTest, CollapseFallsBackOnNonFiniteRows)
{
    // NaN breaks any ordering that groups equal rows; Chebyshev even
    // swallows it (max ignores NaN), so the full scan accepts it.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    const Matrix with_nan = Matrix::fromRows({{1.0, 1.0},
                                              {nan, 0.0},
                                              {1.0, 1.0},
                                              {0.0, 3.0},
                                              {nan, 0.0},
                                              {0.0, 3.0}});
    expectEveryCombinationMatches(with_nan);
    // Under `<` a NaN row can tie with a finite one ({nan, 5} is neither
    // below nor above {1, 5}); grouping them would hide the NaN from
    // the distances, and the full scan rejects it.
    const Matrix tied_nan = Matrix::fromRows(
        {{1.0, 5.0}, {nan, 5.0}, {1.0, 5.0}, {0.0, 0.0}, {nan, 5.0}});
    expectEveryCombinationMatches(tied_nan);
    const Matrix with_inf = Matrix::fromRows(
        {{1.0, 1.0}, {inf, 0.0}, {1.0, 1.0}, {0.0, 3.0}, {inf, 0.0}});
    expectEveryCombinationMatches(with_inf);
    // Finite rows whose distances overflow to infinity.
    const Matrix overflow = Matrix::fromRows(
        {{1e300, 0.0}, {-1e300, 0.0}, {1e300, 0.0}, {0.0, 0.0}});
    expectEveryCombinationMatches(overflow);
}

TEST(AgglomerativeTest, CollapseMatchesWithoutRepeats)
{
    hiermeans::rng::Engine engine(77);
    std::vector<Vector> lattice, continuous;
    for (std::size_t r = 0; r < 5; ++r)
        for (std::size_t c = 0; c < 6; ++c)
            lattice.push_back(
                {static_cast<double>(c), static_cast<double>(r)});
    for (std::size_t i = 0; i < 40; ++i)
        continuous.push_back(
            {engine.uniform(-2.0, 2.0), engine.uniform(-2.0, 2.0)});
    expectEveryCombinationMatches(Matrix::fromRows(lattice));
    expectEveryCombinationMatches(Matrix::fromRows(continuous));
}

TEST(AgglomerativeTest, CollapseOfIdenticalRows)
{
    // One group: every merge has height 0, pairs taken smallest ids
    // first, each new node joining the queue behind the leaves.
    const Matrix points = Matrix::fromRows(
        {{4.0, 4.0}, {4.0, 4.0}, {4.0, 4.0}, {4.0, 4.0}, {4.0, 4.0}});
    expectEveryCombinationMatches(points);
    const Dendrogram d = agglomerate(points);
    const std::vector<Merge> want = {
        {0, 1, 0.0, 2}, {2, 3, 0.0, 2}, {4, 5, 0.0, 3}, {6, 7, 0.0, 5}};
    ASSERT_EQ(d.merges().size(), want.size());
    for (std::size_t m = 0; m < want.size(); ++m) {
        EXPECT_EQ(d.merges()[m].left, want[m].left);
        EXPECT_EQ(d.merges()[m].right, want[m].right);
        EXPECT_EQ(d.merges()[m].height, 0.0);
        EXPECT_EQ(d.merges()[m].size, want[m].size);
    }
    expectEveryCombinationMatches(Matrix::fromRows({{1.0}, {1.0}}));
}

} // namespace
