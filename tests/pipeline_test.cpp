/**
 * @file
 * Tests for the end-to-end analysis pipeline.
 */

#include <gtest/gtest.h>

#include "src/core/pipeline.h"
#include "src/util/error.h"
#include "src/util/rng.h"

namespace {

using namespace hiermeans::core;
using hiermeans::InvalidArgument;
using hiermeans::linalg::Matrix;
using hiermeans::linalg::Vector;
using hiermeans::stats::MeanKind;

/** Synthetic characteristic vectors with three obvious groups. */
CharacteristicVectors
groupedVectors()
{
    hiermeans::rng::Engine engine(31);
    std::vector<Vector> rows;
    std::vector<std::string> names;
    const double centers[3] = {0.0, 15.0, 30.0};
    for (int g = 0; g < 3; ++g) {
        for (int i = 0; i < 4; ++i) {
            rows.push_back({centers[g] + engine.normal(0.0, 0.2),
                            centers[g] + engine.normal(0.0, 0.2),
                            engine.normal(0.0, 0.2)});
            names.push_back("g" + std::to_string(g) + "w" +
                            std::to_string(i));
        }
    }
    CharacteristicVectors cv;
    cv.workloadNames = names;
    cv.features = Matrix::fromRows(rows);
    for (std::size_t c = 0; c < 3; ++c)
        cv.featureNames.push_back("f" + std::to_string(c));
    return cv;
}

PipelineConfig
fastConfig()
{
    PipelineConfig config;
    config.som.rows = 7;
    config.som.cols = 7;
    config.som.steps = 2500;
    config.kMin = 2;
    config.kMax = 6;
    return config;
}

TEST(PipelineTest, ProducesConsistentArtifacts)
{
    const CharacteristicVectors cv = groupedVectors();
    const ClusterAnalysis analysis = analyzeClusters(cv, fastConfig());
    EXPECT_EQ(analysis.bmus.size(), 12u);
    EXPECT_EQ(analysis.gridPositions.rows(), 12u);
    EXPECT_EQ(analysis.gridPositions.cols(), 2u);
    EXPECT_TRUE(analysis.gridPositions.approxEqual(
        analysis.map.mapAll(cv.features), 0.0));
    EXPECT_EQ(analysis.dendrogram.leafCount(), 12u);
    ASSERT_EQ(analysis.partitions.size(), 5u);
    for (std::size_t i = 0; i < analysis.partitions.size(); ++i)
        EXPECT_EQ(analysis.partitions[i].clusterCount(), i + 2);
}

TEST(PipelineTest, ThreeGroupsRecoveredAtKEqualsThree)
{
    const CharacteristicVectors cv = groupedVectors();
    const ClusterAnalysis analysis = analyzeClusters(cv, fastConfig());
    const auto &p3 = analysis.partitions[1]; // k = 3.
    ASSERT_EQ(p3.clusterCount(), 3u);
    for (int g = 0; g < 3; ++g) {
        const std::size_t base = p3.label(static_cast<std::size_t>(g * 4));
        for (int i = 1; i < 4; ++i)
            EXPECT_EQ(p3.label(static_cast<std::size_t>(g * 4 + i)), base)
                << "group " << g;
    }
}

TEST(PipelineTest, KMaxClampedToWorkloadCount)
{
    CharacteristicVectors cv = groupedVectors();
    PipelineConfig config = fastConfig();
    config.kMax = 100;
    const ClusterAnalysis analysis = analyzeClusters(cv, config);
    EXPECT_EQ(analysis.partitions.back().clusterCount(), 12u);
}

TEST(PipelineTest, ScoreAgainstClustersMatchesReport)
{
    const CharacteristicVectors cv = groupedVectors();
    const ClusterAnalysis analysis = analyzeClusters(cv, fastConfig());
    std::vector<double> a(12), b(12);
    for (std::size_t i = 0; i < 12; ++i) {
        a[i] = 1.0 + static_cast<double>(i);
        b[i] = 2.0 + static_cast<double>(i);
    }
    const auto report = scoreAgainstClusters(
        analysis, MeanKind::Geometric, a, b);
    EXPECT_EQ(report.rows.size(), analysis.partitions.size());
    EXPECT_GT(report.plainA, 0.0);
}

TEST(PipelineTest, RendersIncludeNames)
{
    const CharacteristicVectors cv = groupedVectors();
    const ClusterAnalysis analysis = analyzeClusters(cv, fastConfig());
    const std::string map = analysis.renderMap("Map Title");
    const std::string tree = analysis.renderDendrogram("Tree Title");
    EXPECT_NE(map.find("Map Title"), std::string::npos);
    EXPECT_NE(map.find("g0w0"), std::string::npos);
    EXPECT_NE(tree.find("Tree Title"), std::string::npos);
    EXPECT_NE(tree.find("g2w3"), std::string::npos);
}

TEST(PipelineTest, Validation)
{
    CharacteristicVectors cv = groupedVectors();
    PipelineConfig config = fastConfig();
    config.kMin = 5;
    config.kMax = 2;
    EXPECT_THROW(analyzeClusters(cv, config), InvalidArgument);

    CharacteristicVectors single;
    single.workloadNames = {"only"};
    single.features = Matrix::fromRows({{1.0, 2.0}});
    EXPECT_THROW(analyzeClusters(single, fastConfig()),
                 InvalidArgument);
}

TEST(PipelineTest, DeterministicForFixedSeed)
{
    const CharacteristicVectors cv = groupedVectors();
    const ClusterAnalysis a = analyzeClusters(cv, fastConfig());
    const ClusterAnalysis b = analyzeClusters(cv, fastConfig());
    EXPECT_EQ(a.bmus, b.bmus);
    for (std::size_t i = 0; i < a.partitions.size(); ++i)
        EXPECT_EQ(a.partitions[i], b.partitions[i]);
}

} // namespace
