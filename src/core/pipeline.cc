#include "src/core/pipeline.h"

#include <algorithm>
#include <cmath>

#include "src/cluster/render.h"
#include "src/obs/trace.h"
#include "src/util/error.h"

namespace hiermeans {
namespace core {

std::string
ClusterAnalysis::renderMap(const std::string &title) const
{
    std::vector<som::Placement> placements;
    placements.reserve(bmus.size());
    for (std::size_t i = 0; i < bmus.size(); ++i)
        placements.push_back(
            som::Placement{vectors.workloadNames[i], bmus[i]});
    return som::renderDistributionMap(map, placements, title);
}

std::string
ClusterAnalysis::renderDendrogram(const std::string &title) const
{
    return cluster::renderTree(dendrogram, vectors.workloadNames, title);
}

void
PipelineConfig::autoSizeSom(std::size_t num_workloads)
{
    HM_REQUIRE(num_workloads >= 1, "autoSizeSom: no workloads");
    const double units =
        5.0 * std::sqrt(static_cast<double>(num_workloads));
    const auto side = static_cast<std::size_t>(
        std::max(3.0, std::ceil(std::sqrt(units))));
    som.rows = side;
    som.cols = side + 1; // slightly rectangular maps orient better.
}

ClusterAnalysis
analyzeClusters(const CharacteristicVectors &vectors,
                const PipelineConfig &config)
{
    const std::size_t n = vectors.features.rows();
    HM_REQUIRE(n >= 2, "analyzeClusters: need at least two workloads");
    HM_REQUIRE(config.kMin >= 1 && config.kMin <= config.kMax,
               "analyzeClusters: invalid k range [" << config.kMin << ", "
                                                    << config.kMax << "]");

    som::SelfOrganizingMap map = [&] {
        obs::ScopedSpan span("pipeline.som_train");
        return som::SelfOrganizingMap::train(vectors.features,
                                             config.som);
    }();
    // mapAll's positions, from the BMUs already found.
    std::vector<std::size_t> bmus = map.bmuAll(vectors.features);
    linalg::Matrix positions(n, 2);
    for (std::size_t i = 0; i < n; ++i) {
        const som::GridPoint p = map.topology().location(bmus[i]);
        positions(i, 0) = p.x;
        positions(i, 1) = p.y;
    }

    obs::ScopedSpan clusterSpan("pipeline.cluster");
    cluster::Dendrogram dendrogram =
        cluster::agglomerate(positions, config.linkage, config.metric);

    const std::size_t k_max = std::min(config.kMax, n);
    std::vector<scoring::Partition> partitions =
        dendrogram.partitionSweep(config.kMin, k_max);

    return ClusterAnalysis{vectors,
                           std::move(map),
                           std::move(bmus),
                           std::move(positions),
                           std::move(dendrogram),
                           std::move(partitions)};
}

scoring::ScoreReport
scoreAgainstClusters(const ClusterAnalysis &analysis, stats::MeanKind kind,
                     const std::vector<double> &scores_a,
                     const std::vector<double> &scores_b)
{
    return scoring::buildScoreReport(kind, scores_a, scores_b,
                                     analysis.partitions);
}

} // namespace core
} // namespace hiermeans
