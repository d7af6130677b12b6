/**
 * @file
 * Tests for the dendrogram structure and its cuts.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "src/cluster/agglomerative.h"
#include "src/cluster/dendrogram.h"
#include "src/util/error.h"
#include "src/util/rng.h"

namespace {

using namespace hiermeans::cluster;
using hiermeans::InvalidArgument;
using hiermeans::linalg::Matrix;
using hiermeans::linalg::Vector;
using hiermeans::scoring::Partition;

/**
 * Fixed dendrogram over 4 leaves:
 *   merge 0: leaves 0, 1 at h=1 -> node 4
 *   merge 1: leaves 2, 3 at h=2 -> node 5
 *   merge 2: nodes 4, 5 at h=5 -> node 6
 */
Dendrogram
fixedDendrogram()
{
    std::vector<Merge> merges = {
        {0, 1, 1.0, 2}, {2, 3, 2.0, 2}, {4, 5, 5.0, 4}};
    return Dendrogram(4, std::move(merges));
}

TEST(DendrogramTest, ConstructionValidation)
{
    EXPECT_THROW(Dendrogram(0, {}), InvalidArgument);
    // Wrong merge count.
    EXPECT_THROW(Dendrogram(3, {{0, 1, 1.0, 2}}), InvalidArgument);
    // Self-merge.
    EXPECT_THROW(Dendrogram(2, {{0, 0, 1.0, 2}}), InvalidArgument);
    // Forward reference to a not-yet-created node.
    EXPECT_THROW(Dendrogram(3, {{0, 4, 1.0, 2}, {2, 3, 2.0, 3}}),
                 InvalidArgument);
    // Node consumed twice.
    EXPECT_THROW(Dendrogram(4, {{0, 1, 1.0, 2},
                                {0, 2, 2.0, 2},
                                {3, 5, 3.0, 4}}),
                 InvalidArgument);
    // Negative height.
    EXPECT_THROW(Dendrogram(2, {{0, 1, -1.0, 2}}), InvalidArgument);
    // A single leaf with no merges is valid.
    EXPECT_NO_THROW(Dendrogram(1, {}));
}

TEST(DendrogramTest, LeavesUnder)
{
    const Dendrogram d = fixedDendrogram();
    EXPECT_EQ(d.leavesUnder(0), (std::vector<std::size_t>{0}));
    EXPECT_EQ(d.leavesUnder(4), (std::vector<std::size_t>{0, 1}));
    EXPECT_EQ(d.leavesUnder(6), (std::vector<std::size_t>{0, 1, 2, 3}));
    EXPECT_THROW(d.leavesUnder(7), InvalidArgument);
}

TEST(DendrogramTest, CutAtCount)
{
    const Dendrogram d = fixedDendrogram();
    EXPECT_EQ(d.cutAtCount(1), Partition::single(4));
    EXPECT_EQ(d.cutAtCount(2),
              Partition::fromGroups({{0, 1}, {2, 3}}));
    EXPECT_EQ(d.cutAtCount(3),
              Partition::fromGroups({{0, 1}, {2}, {3}}));
    EXPECT_EQ(d.cutAtCount(4), Partition::discrete(4));
    EXPECT_THROW(d.cutAtCount(0), InvalidArgument);
    EXPECT_THROW(d.cutAtCount(5), InvalidArgument);
}

TEST(DendrogramTest, CutAtDistance)
{
    const Dendrogram d = fixedDendrogram();
    EXPECT_EQ(d.cutAtDistance(0.5), Partition::discrete(4));
    EXPECT_EQ(d.cutAtDistance(1.0),
              Partition::fromGroups({{0, 1}, {2}, {3}}));
    EXPECT_EQ(d.cutAtDistance(2.5),
              Partition::fromGroups({{0, 1}, {2, 3}}));
    EXPECT_EQ(d.cutAtDistance(5.0), Partition::single(4));
    EXPECT_EQ(d.clusterCountAtDistance(1.5), 3u);
}

TEST(DendrogramTest, HeightsAndMonotonicity)
{
    const Dendrogram d = fixedDendrogram();
    EXPECT_EQ(d.heights(), (std::vector<double>{1.0, 2.0, 5.0}));
    EXPECT_TRUE(d.heightsMonotone());

    std::vector<Merge> inverted = {
        {0, 1, 3.0, 2}, {2, 3, 2.0, 2}, {4, 5, 5.0, 4}};
    const Dendrogram bad(4, std::move(inverted));
    EXPECT_FALSE(bad.heightsMonotone());
}

TEST(DendrogramTest, PartitionSweepRange)
{
    const Dendrogram d = fixedDendrogram();
    const auto sweep = d.partitionSweep(2, 8); // clamped to 4.
    ASSERT_EQ(sweep.size(), 3u);
    EXPECT_EQ(sweep[0].clusterCount(), 2u);
    EXPECT_EQ(sweep[2].clusterCount(), 4u);
    EXPECT_THROW(d.partitionSweep(5, 8), InvalidArgument);
}

TEST(DendrogramTest, CopheneticDistances)
{
    const Dendrogram d = fixedDendrogram();
    const Matrix c = d.copheneticDistances();
    EXPECT_DOUBLE_EQ(c(0, 1), 1.0);
    EXPECT_DOUBLE_EQ(c(2, 3), 2.0);
    EXPECT_DOUBLE_EQ(c(0, 2), 5.0);
    EXPECT_DOUBLE_EQ(c(1, 3), 5.0);
    EXPECT_DOUBLE_EQ(c(0, 0), 0.0);
    EXPECT_DOUBLE_EQ(c(2, 0), c(0, 2));
}

TEST(DendrogramTest, CutsNestHierarchically)
{
    // Every cluster at k+1 must be contained in a cluster at k.
    const Matrix points = Matrix::fromRows(
        {{0.0}, {0.5}, {3.0}, {3.2}, {9.0}, {9.4}, {20.0}});
    const Dendrogram d = agglomerate(points);
    for (std::size_t k = 1; k < points.rows(); ++k) {
        const Partition coarse = d.cutAtCount(k);
        const Partition fine = d.cutAtCount(k + 1);
        for (const auto &cluster : fine.groups()) {
            const std::size_t target = coarse.label(cluster.front());
            for (std::size_t member : cluster)
                EXPECT_EQ(coarse.label(member), target);
        }
    }
}

/**
 * The partition left after applying the merges @p apply selects, by
 * the definition: each applied merge joins the clusters of the
 * smallest leaf under either side (leavesUnder(...).front()).
 */
Partition
cutByLeavesUnder(const Dendrogram &d, const std::vector<bool> &apply)
{
    std::vector<std::size_t> label(d.leafCount());
    std::iota(label.begin(), label.end(), 0);
    for (std::size_t m = 0; m < d.merges().size(); ++m) {
        if (!apply[m])
            continue;
        const std::size_t from =
            label[d.leavesUnder(d.merges()[m].right).front()];
        const std::size_t to =
            label[d.leavesUnder(d.merges()[m].left).front()];
        for (std::size_t &l : label)
            if (l == from)
                l = to;
    }
    return Partition::fromLabels(label);
}

TEST(DendrogramTest, SweepAndCutsMatchLeavesUnderDefinition)
{
    // Lattice points with repeats (as SOM grid positions are), so the
    // merge lists hold zero-height runs and tied heights.
    for (const Linkage linkage :
         {Linkage::Single, Linkage::Complete, Linkage::Average,
          Linkage::Weighted, Linkage::Ward}) {
        for (const std::uint64_t seed : {3u, 29u, 512u}) {
            hiermeans::rng::Engine engine(seed);
            const std::size_t n = 12 + engine.below(40);
            std::vector<Vector> rows;
            for (std::size_t i = 0; i < n; ++i)
                rows.push_back({static_cast<double>(engine.below(6)),
                                static_cast<double>(engine.below(5))});
            const Dendrogram d = agglomerate(Matrix::fromRows(rows), linkage);
            SCOPED_TRACE(std::string(linkageName(linkage)) + " seed " +
                         std::to_string(seed));

            const std::vector<Partition> sweep = d.partitionSweep(1, n);
            ASSERT_EQ(sweep.size(), n);
            for (std::size_t k = 1; k <= n; ++k) {
                std::vector<bool> apply(n - 1, false);
                std::fill(apply.begin(), apply.begin() + (n - k), true);
                const Partition want = cutByLeavesUnder(d, apply);
                EXPECT_EQ(d.cutAtCount(k), want) << "k = " << k;
                EXPECT_EQ(sweep[k - 1], want) << "k = " << k;
            }
            const std::vector<Partition> inner = d.partitionSweep(2, 8);
            ASSERT_EQ(inner.size(), 7u);
            for (std::size_t k = 2; k <= 8; ++k)
                EXPECT_EQ(inner[k - 2], sweep[k - 1]) << "k = " << k;

            for (const Merge &merge : d.merges()) {
                for (const double cut :
                     {merge.height, merge.height * 0.999, -1.0}) {
                    std::vector<bool> apply;
                    for (const Merge &m : d.merges())
                        apply.push_back(m.height <= cut);
                    EXPECT_EQ(d.cutAtDistance(cut),
                              cutByLeavesUnder(d, apply))
                        << "cut at " << cut;
                }
            }
        }
    }
}

} // namespace
