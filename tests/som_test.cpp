/**
 * @file
 * Tests for the self-organizing map.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include <set>

#include "src/linalg/distance.h"
#include "src/som/som.h"
#include "src/util/error.h"
#include "src/util/rng.h"

namespace {

using hiermeans::InvalidArgument;
using hiermeans::linalg::Matrix;
using hiermeans::linalg::Vector;
using namespace hiermeans::som;

/** Two well-separated Gaussian blobs in 4-D. */
Matrix
twoBlobs(std::size_t per_blob = 10, double separation = 10.0)
{
    hiermeans::rng::Engine engine(11);
    std::vector<Vector> rows;
    for (std::size_t i = 0; i < per_blob; ++i) {
        rows.push_back({engine.normal(0.0, 0.3), engine.normal(0.0, 0.3),
                        engine.normal(0.0, 0.3),
                        engine.normal(0.0, 0.3)});
    }
    for (std::size_t i = 0; i < per_blob; ++i) {
        rows.push_back({separation + engine.normal(0.0, 0.3),
                        separation + engine.normal(0.0, 0.3),
                        engine.normal(0.0, 0.3),
                        engine.normal(0.0, 0.3)});
    }
    return Matrix::fromRows(rows);
}

SomConfig
smallConfig()
{
    SomConfig config;
    config.rows = 6;
    config.cols = 6;
    config.steps = 1500;
    config.seed = 42;
    return config;
}

TEST(SomTest, TrainingIsDeterministic)
{
    const Matrix data = twoBlobs();
    const auto a = SelfOrganizingMap::train(data, smallConfig());
    const auto b = SelfOrganizingMap::train(data, smallConfig());
    EXPECT_TRUE(a.weights().approxEqual(b.weights(), 0.0));
    EXPECT_EQ(a.bmuAll(data), b.bmuAll(data));
}

TEST(SomTest, QuantizationErrorDecreasesOverTraining)
{
    const Matrix data = twoBlobs();
    SomConfig config = smallConfig();
    config.init = InitKind::Random;
    auto map = SelfOrganizingMap::initialize(data, config);
    const double before = map.quantizationError(data);
    map.trainToCompletion();
    const double after = map.quantizationError(data);
    EXPECT_LT(after, before);
    EXPECT_EQ(map.stepsDone(), config.steps);
}

TEST(SomTest, SeparatedBlobsLandOnDistantUnits)
{
    const Matrix data = twoBlobs();
    const auto map = SelfOrganizingMap::train(data, smallConfig());
    const Matrix pos = map.mapAll(data);

    // Mean within-blob grid distance must be well below the
    // between-blob distance: the map preserves the cluster structure.
    double intra = 0.0, inter = 0.0;
    std::size_t intra_n = 0, inter_n = 0;
    const std::size_t n = data.rows();
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = i + 1; j < n; ++j) {
            const double dx = pos(i, 0) - pos(j, 0);
            const double dy = pos(i, 1) - pos(j, 1);
            const double d = std::sqrt(dx * dx + dy * dy);
            if ((i < n / 2) == (j < n / 2)) {
                intra += d;
                ++intra_n;
            } else {
                inter += d;
                ++inter_n;
            }
        }
    }
    intra /= static_cast<double>(intra_n);
    inter /= static_cast<double>(inter_n);
    EXPECT_LT(intra * 2.0, inter);
}

TEST(SomTest, BmuIsNearestUnit)
{
    const Matrix data = twoBlobs();
    const auto map = SelfOrganizingMap::train(data, smallConfig());
    const Vector x = data.row(3);
    const std::size_t bmu = map.bestMatchingUnit(x);
    const double bmu_dist =
        hiermeans::linalg::euclidean(x, map.weight(bmu));
    for (std::size_t u = 0; u < map.topology().unitCount(); ++u) {
        EXPECT_LE(bmu_dist,
                  hiermeans::linalg::euclidean(x, map.weight(u)) + 1e-12);
    }
}

TEST(SomTest, MapAllShapesAndRange)
{
    const Matrix data = twoBlobs();
    const auto map = SelfOrganizingMap::train(data, smallConfig());
    const Matrix pos = map.mapAll(data);
    EXPECT_EQ(pos.rows(), data.rows());
    EXPECT_EQ(pos.cols(), 2u);
    for (std::size_t r = 0; r < pos.rows(); ++r) {
        EXPECT_GE(pos(r, 0), 0.0);
        EXPECT_LT(pos(r, 0), 6.0);
        EXPECT_GE(pos(r, 1), 0.0);
        EXPECT_LT(pos(r, 1), 6.0);
    }
}

TEST(SomTest, PcaInitSpreadsWeightsAlongData)
{
    const Matrix data = twoBlobs();
    SomConfig config = smallConfig();
    config.init = InitKind::Pca;
    const auto map = SelfOrganizingMap::initialize(data, config);
    // Untrained PCA-initialized map should already separate the blobs
    // reasonably: quantization error below the data diameter.
    EXPECT_LT(map.quantizationError(data), 15.0);
    // Corner units differ (the init is not constant).
    EXPECT_FALSE(hiermeans::linalg::approxEqual(
        map.weight(0), map.weight(map.topology().unitCount() - 1),
        1e-6));
}

TEST(SomTest, TopographicErrorInUnitRange)
{
    const Matrix data = twoBlobs();
    const auto map = SelfOrganizingMap::train(data, smallConfig());
    const double te = map.topographicError(data);
    EXPECT_GE(te, 0.0);
    EXPECT_LE(te, 1.0);
}

TEST(SomTest, IdenticalInputsShareBmu)
{
    // Five identical vectors (the SciMark2 situation in Figure 7) must
    // map to one unit.
    std::vector<Vector> rows(5, Vector{1.0, 2.0, 3.0});
    rows.push_back({-5.0, 0.0, 1.0});
    rows.push_back({8.0, -2.0, 0.0});
    const Matrix data = Matrix::fromRows(rows);
    const auto map = SelfOrganizingMap::train(data, smallConfig());
    const auto bmus = map.bmuAll(data);
    const std::set<std::size_t> first_five(bmus.begin(),
                                           bmus.begin() + 5);
    EXPECT_EQ(first_five.size(), 1u);
}

TEST(SomTest, ConfigValidation)
{
    const Matrix data = twoBlobs();
    SomConfig bad = smallConfig();
    bad.steps = 0;
    EXPECT_THROW(SelfOrganizingMap::train(data, bad), InvalidArgument);
    bad = smallConfig();
    bad.alphaEnd = 2.0 * bad.alphaStart;
    EXPECT_THROW(SelfOrganizingMap::train(data, bad), InvalidArgument);
    EXPECT_THROW(SelfOrganizingMap::train(Matrix(), smallConfig()),
                 InvalidArgument);
}

/** FNV-1a over the bit patterns of every weight, row-major. */
std::uint64_t
weightsHash(const SelfOrganizingMap &map)
{
    std::uint64_t hash = 0xcbf29ce484222325ull;
    const Matrix &w = map.weights();
    for (std::size_t r = 0; r < w.rows(); ++r) {
        for (std::size_t c = 0; c < w.cols(); ++c) {
            const auto bits = std::bit_cast<std::uint64_t>(w(r, c));
            for (int b = 0; b < 8; ++b) {
                hash ^= (bits >> (8 * b)) & 0xffu;
                hash *= 0x100000001b3ull;
            }
        }
    }
    return hash;
}

TEST(SomTest, TrainedWeightsArePinned)
{
    // Bit-for-bit pins of sequential training for a fixed seed, one
    // per grid and kernel: any change to the step (sample order, BMU
    // search, grid distances, kernel, update) moves a hash. Driving
    // step() by hand must land on the same weights as train().
    struct Case
    {
        GridKind grid;
        KernelKind kernel;
        std::uint64_t hash;
    };
    const Case cases[] = {
        {GridKind::Rectangular, KernelKind::Gaussian, 0x60396bbf743e7697ull},
        {GridKind::Hexagonal, KernelKind::Gaussian, 0x4f2467942607ada9ull},
        {GridKind::Rectangular, KernelKind::Bubble, 0x81b2aed130a2d8acull},
    };
    const Matrix data = twoBlobs();
    for (const Case &c : cases) {
        SomConfig config = smallConfig();
        config.rows = 5;
        config.cols = 7;
        config.grid = c.grid;
        config.kernel = c.kernel;
        const auto trained = SelfOrganizingMap::train(data, config);
        EXPECT_EQ(weightsHash(trained), c.hash)
            << std::hex << weightsHash(trained) << " for "
            << gridKindName(c.grid) << "/" << kernelKindName(c.kernel);

        auto stepped = SelfOrganizingMap::initialize(data, config);
        for (std::size_t s = 0; s < config.steps; ++s)
            stepped.step();
        EXPECT_EQ(weightsHash(stepped), weightsHash(trained));
    }
}

TEST(SomTest, MismatchedQueryDimensionThrows)
{
    const Matrix data = twoBlobs();
    const auto map = SelfOrganizingMap::train(data, smallConfig());
    EXPECT_THROW(map.bestMatchingUnit({1.0, 2.0}), InvalidArgument);
}

} // namespace
