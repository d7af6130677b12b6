#include "src/som/som.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/linalg/distance.h"
#include "src/linalg/pca.h"
#include "src/util/error.h"
#include "src/util/log.h"

namespace hiermeans {
namespace som {

namespace {

double
defaultSigmaStart(const SomConfig &config)
{
    return config.sigmaStart > 0.0
               ? config.sigmaStart
               : static_cast<double>(std::max(config.rows, config.cols)) /
                     2.0;
}

/** Squared grid distance between every pair of units, row-major. */
std::vector<double>
gridDistanceTable(const GridTopology &topology)
{
    const std::size_t units = topology.unitCount();
    std::vector<double> table(units * units);
    for (std::size_t a = 0; a < units; ++a)
        for (std::size_t b = 0; b < units; ++b)
            table[a * units + b] = topology.gridDistanceSquared(a, b);
    return table;
}

} // namespace

SelfOrganizingMap::SelfOrganizingMap(const linalg::Matrix &data,
                                     const SomConfig &config)
    : config_(config),
      topology_(config.rows, config.cols, config.grid),
      data_(data),
      weights_(topology_.unitCount(), data.cols()),
      alpha_(config.decay, config.alphaStart, config.alphaEnd,
             std::max<std::size_t>(config.steps, 1)),
      sigma_(config.decay, defaultSigmaStart(config), config.sigmaEnd,
             std::max<std::size_t>(config.steps, 1)),
      engine_(config.seed)
{
    HM_REQUIRE(data.rows() >= 1, "SOM: no observations");
    HM_REQUIRE(data.cols() >= 1, "SOM: observations have no features");
    HM_REQUIRE(config.steps >= 1, "SOM: steps must be >= 1");
    HM_REQUIRE(config.alphaStart > 0.0 && config.alphaEnd > 0.0 &&
                   config.alphaEnd <= config.alphaStart,
               "SOM: invalid alpha schedule");
    HM_REQUIRE(config.sigmaEnd > 0.0 &&
                   config.sigmaEnd <= defaultSigmaStart(config),
               "SOM: invalid sigma schedule");
}

SelfOrganizingMap
SelfOrganizingMap::initialize(const linalg::Matrix &data,
                              const SomConfig &config)
{
    SelfOrganizingMap map(data, config);
    if (config.init == InitKind::Pca && data.rows() >= 2)
        map.initPca();
    else
        map.initRandom();
    return map;
}

SelfOrganizingMap
SelfOrganizingMap::train(const linalg::Matrix &data, const SomConfig &config)
{
    SelfOrganizingMap map = initialize(data, config);
    map.trainToCompletion();
    return map;
}

void
SelfOrganizingMap::initRandom()
{
    // Uniform within each feature's observed range so the initial map
    // already lies inside the data envelope.
    const std::size_t d = data_.cols();
    linalg::Vector lo(d), hi(d);
    for (std::size_t c = 0; c < d; ++c) {
        lo[c] = hi[c] = data_(0, c);
        for (std::size_t r = 1; r < data_.rows(); ++r) {
            lo[c] = std::min(lo[c], data_(r, c));
            hi[c] = std::max(hi[c], data_(r, c));
        }
    }
    for (std::size_t u = 0; u < topology_.unitCount(); ++u) {
        for (std::size_t c = 0; c < d; ++c) {
            weights_(u, c) = lo[c] == hi[c]
                                 ? lo[c]
                                 : engine_.uniform(lo[c], hi[c]);
        }
    }
}

void
SelfOrganizingMap::initPca()
{
    const linalg::Pca pca = linalg::Pca::fit(data_);
    const std::size_t d = data_.cols();
    const std::size_t n_components = std::min<std::size_t>(2, d);

    // Degenerate data (zero variance) cannot seed a subspace.
    if (pca.eigenvalues().empty() || pca.eigenvalues()[0] <= 0.0) {
        HM_LOG(Debug) << "SOM PCA init: degenerate data, falling back to "
                         "random init";
        initRandom();
        return;
    }

    // Span [-2, 2] standard deviations along each principal axis;
    // columns sweep component 1, rows sweep component 2.
    for (std::size_t u = 0; u < topology_.unitCount(); ++u) {
        const GridCell cell = topology_.cell(u);
        const double fx =
            topology_.cols() > 1
                ? 2.0 * static_cast<double>(cell.col) /
                          static_cast<double>(topology_.cols() - 1) -
                      1.0
                : 0.0;
        const double fy =
            topology_.rows() > 1
                ? 2.0 * static_cast<double>(cell.row) /
                          static_cast<double>(topology_.rows() - 1) -
                      1.0
                : 0.0;
        linalg::Vector w = pca.mean();
        const double scale1 = 2.0 * std::sqrt(pca.eigenvalues()[0]);
        for (std::size_t i = 0; i < d; ++i)
            w[i] += fx * scale1 * pca.components()(i, 0);
        if (n_components > 1 && pca.eigenvalues()[1] > 0.0) {
            const double scale2 = 2.0 * std::sqrt(pca.eigenvalues()[1]);
            for (std::size_t i = 0; i < d; ++i)
                w[i] += fy * scale2 * pca.components()(i, 1);
        }
        weights_.setRow(u, w);
    }
}

std::size_t
SelfOrganizingMap::bestMatchingUnit(const linalg::Vector &x) const
{
    HM_REQUIRE(x.size() == weights_.cols(),
               "bestMatchingUnit: vector has " << x.size()
                                               << " features, map expects "
                                               << weights_.cols());
    return nearestUnit(x.data());
}

std::size_t
SelfOrganizingMap::nearestUnit(const double *x) const
{
    std::size_t best = 0;
    double best_dist = std::numeric_limits<double>::infinity();
    for (std::size_t u = 0; u < topology_.unitCount(); ++u) {
        double acc = 0.0;
        const double *w = weights_.rowData(u);
        for (std::size_t c = 0; c < weights_.cols(); ++c) {
            const double diff = x[c] - w[c];
            acc += diff * diff;
        }
        if (acc < best_dist) {
            best_dist = acc;
            best = u;
        }
    }
    return best;
}

void
SelfOrganizingMap::updateWeights(const double *x, const double *grid_sq,
                                 double alpha, double sigma)
{
    const double support = kernelSupportRadius(config_.kernel, sigma);
    const double support_sq = support * support;
    for (std::size_t u = 0; u < topology_.unitCount(); ++u) {
        const double dist_sq = grid_sq[u];
        if (dist_sq > support_sq)
            continue;
        const double h = kernelValue(config_.kernel, dist_sq, alpha, sigma);
        if (h <= 0.0)
            continue;
        double *w = weights_.rowData(u);
        for (std::size_t c = 0; c < weights_.cols(); ++c)
            w[c] += h * (x[c] - w[c]);
    }
}

void
SelfOrganizingMap::step()
{
    step(gridDistanceTable(topology_));
}

void
SelfOrganizingMap::step(const std::vector<double> &grid_sq)
{
    const std::size_t sample = static_cast<std::size_t>(
        engine_.below(static_cast<std::uint64_t>(data_.rows())));
    const double *x = data_.rowData(sample);
    const std::size_t bmu = nearestUnit(x);
    updateWeights(x, grid_sq.data() + bmu * topology_.unitCount(),
                  alpha_.value(stepsDone_), sigma_.value(stepsDone_));
    ++stepsDone_;
}

void
SelfOrganizingMap::trainToCompletion()
{
    // One grid-distance table per run, not per step, and not kept in
    // the map: a trained map lives as long as its analysis.
    const std::vector<double> grid_sq = gridDistanceTable(topology_);
    while (stepsDone_ < config_.steps)
        step(grid_sq);
}

void
SelfOrganizingMap::batchEpoch(double sigma)
{
    HM_REQUIRE(sigma > 0.0, "batchEpoch: sigma must be > 0, got "
                                << sigma);
    const std::size_t units = topology_.unitCount();
    const std::size_t d = data_.cols();

    // BMU of every observation under the current weights.
    const std::vector<std::size_t> bmus = bmuAll(data_);

    // New weight = sum_x h(u, bmu(x)) * x / sum_x h(u, bmu(x)).
    linalg::Matrix numerator(units, d, 0.0);
    std::vector<double> denominator(units, 0.0);
    for (std::size_t r = 0; r < data_.rows(); ++r) {
        for (std::size_t u = 0; u < units; ++u) {
            const double h = kernelValue(
                config_.kernel,
                topology_.gridDistanceSquared(u, bmus[r]), 1.0, sigma);
            if (h <= 0.0)
                continue;
            denominator[u] += h;
            const double *x = data_.rowData(r);
            double *num = numerator.rowData(u);
            for (std::size_t c = 0; c < d; ++c)
                num[c] += h * x[c];
        }
    }
    for (std::size_t u = 0; u < units; ++u) {
        if (denominator[u] <= 0.0)
            continue; // unit saw no mass this epoch; keep its weight.
        double *w = weights_.rowData(u);
        const double *num = numerator.rowData(u);
        for (std::size_t c = 0; c < d; ++c)
            w[c] = num[c] / denominator[u];
    }
}

void
SelfOrganizingMap::trainBatch(std::size_t epochs)
{
    HM_REQUIRE(epochs >= 1, "trainBatch: epochs must be >= 1");
    const double sigma_start = sigma_.start();
    const double sigma_end = sigma_.end();
    for (std::size_t e = 0; e < epochs; ++e) {
        const double progress =
            epochs > 1
                ? static_cast<double>(e) / static_cast<double>(epochs - 1)
                : 1.0;
        const double sigma =
            sigma_start * std::pow(sigma_end / sigma_start, progress);
        batchEpoch(sigma);
    }
}

linalg::Vector
SelfOrganizingMap::weight(std::size_t unit) const
{
    HM_REQUIRE(unit < topology_.unitCount(), "weight: unit " << unit
                                                             << " out of "
                                                                "range");
    return weights_.row(unit);
}

GridPoint
SelfOrganizingMap::mapToGrid(const linalg::Vector &x) const
{
    return topology_.location(bestMatchingUnit(x));
}

linalg::Matrix
SelfOrganizingMap::mapAll(const linalg::Matrix &data) const
{
    linalg::Matrix out(data.rows(), 2);
    for (std::size_t r = 0; r < data.rows(); ++r) {
        const GridPoint p = mapToGrid(data.row(r));
        out(r, 0) = p.x;
        out(r, 1) = p.y;
    }
    return out;
}

std::vector<std::size_t>
SelfOrganizingMap::bmuAll(const linalg::Matrix &data) const
{
    std::vector<std::size_t> out;
    out.reserve(data.rows());
    for (std::size_t r = 0; r < data.rows(); ++r)
        out.push_back(bestMatchingUnit(data.row(r)));
    return out;
}

double
SelfOrganizingMap::quantizationError(const linalg::Matrix &data) const
{
    HM_REQUIRE(data.rows() >= 1, "quantizationError: no observations");
    double acc = 0.0;
    for (std::size_t r = 0; r < data.rows(); ++r) {
        const linalg::Vector x = data.row(r);
        acc += linalg::euclidean(x, weight(bestMatchingUnit(x)));
    }
    return acc / static_cast<double>(data.rows());
}

double
SelfOrganizingMap::topographicError(const linalg::Matrix &data) const
{
    HM_REQUIRE(data.rows() >= 1, "topographicError: no observations");
    if (topology_.unitCount() < 2)
        return 0.0;
    std::size_t errors = 0;
    for (std::size_t r = 0; r < data.rows(); ++r) {
        const linalg::Vector x = data.row(r);
        // Find the two closest units.
        std::size_t best = 0, second = 0;
        double best_dist = std::numeric_limits<double>::infinity();
        double second_dist = std::numeric_limits<double>::infinity();
        for (std::size_t u = 0; u < topology_.unitCount(); ++u) {
            double acc = 0.0;
            const double *w = weights_.rowData(u);
            for (std::size_t c = 0; c < x.size(); ++c) {
                const double diff = x[c] - w[c];
                acc += diff * diff;
            }
            if (acc < best_dist) {
                second_dist = best_dist;
                second = best;
                best_dist = acc;
                best = u;
            } else if (acc < second_dist) {
                second_dist = acc;
                second = u;
            }
        }
        if (!topology_.areNeighbors(best, second))
            ++errors;
    }
    return static_cast<double>(errors) / static_cast<double>(data.rows());
}

} // namespace som
} // namespace hiermeans
