/**
 * @file
 * Google-benchmark microbenchmarks for the library's hot paths: SOM
 * training, BMU search, agglomerative clustering, hierarchical means
 * and the synthetic substrates.
 */

#include <benchmark/benchmark.h>

#include "src/hiermeans.h"

namespace {

using namespace hiermeans;

linalg::Matrix
randomData(std::size_t n, std::size_t d, std::uint64_t seed)
{
    rng::Engine engine(seed);
    linalg::Matrix m(n, d);
    for (std::size_t r = 0; r < n; ++r)
        for (std::size_t c = 0; c < d; ++c)
            m(r, c) = engine.normal(0.0, 1.0);
    return m;
}

void
BM_SomTrain(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    const auto d = static_cast<std::size_t>(state.range(1));
    const linalg::Matrix data = randomData(n, d, 1);
    som::SomConfig config;
    config.rows = 8;
    config.cols = 10;
    config.steps = 2000;
    for (auto _ : state) {
        auto map = som::SelfOrganizingMap::train(data, config);
        benchmark::DoNotOptimize(map.weights());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * 2000);
}
BENCHMARK(BM_SomTrain)->Args({13, 200})->Args({50, 200})->Args({13, 1000});

void
BM_SomBmu(benchmark::State &state)
{
    const auto d = static_cast<std::size_t>(state.range(0));
    const linalg::Matrix data = randomData(13, d, 2);
    som::SomConfig config;
    config.steps = 500;
    const auto map = som::SelfOrganizingMap::train(data, config);
    const linalg::Vector query = data.row(5);
    for (auto _ : state)
        benchmark::DoNotOptimize(map.bestMatchingUnit(query));
}
BENCHMARK(BM_SomBmu)->Arg(200)->Arg(1000);

void
BM_Agglomerate(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    const linalg::Matrix data = randomData(n, 2, 3);
    for (auto _ : state) {
        auto d = cluster::agglomerate(data, cluster::Linkage::Complete);
        benchmark::DoNotOptimize(d.merges());
    }
}
BENCHMARK(BM_Agglomerate)->Arg(13)->Arg(50)->Arg(150);

/**
 * The points the scoring pipeline clusters: SOM grid positions of a
 * generated suite on its auto-sized map (160 workloads on 8x9 units),
 * so most workloads share a unit and the zero-height collapse applies.
 * BM_Agglomerate's continuous points never repeat and take the full
 * scan.
 */
void
BM_AgglomerateGrid(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    gen::FamilyConfig family =
        gen::defaultConfig(gen::FamilyKind::BigData, 5);
    family.workloads = n;
    family.clusters = 8;
    const gen::GeneratedSuite suite = gen::generateSuite(family);
    const core::CharacteristicVectors vectors = core::characterizeRaw(
        suite.features.values, suite.workloadNames(),
        suite.features.featureNames);
    core::PipelineConfig config;
    config.autoSizeSom(n);
    config.som.steps = 150;
    const linalg::Matrix positions =
        som::SelfOrganizingMap::train(vectors.features, config.som)
            .mapAll(vectors.features);
    for (auto _ : state) {
        auto d = cluster::agglomerate(positions, cluster::Linkage::Complete);
        benchmark::DoNotOptimize(d.merges());
    }
}
BENCHMARK(BM_AgglomerateGrid)->Arg(160);

void
BM_HierarchicalMean(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    rng::Engine engine(4);
    std::vector<double> scores;
    std::vector<std::size_t> labels;
    for (std::size_t i = 0; i < n; ++i) {
        scores.push_back(engine.uniform(0.5, 5.0));
        labels.push_back(engine.below(1 + n / 4));
    }
    const scoring::Partition p = scoring::Partition::fromLabels(labels);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            scoring::hierarchicalGeometricMean(scores, p));
    }
}
BENCHMARK(BM_HierarchicalMean)->Arg(13)->Arg(100)->Arg(1000);

void
BM_SarPanel(benchmark::State &state)
{
    const auto counters = static_cast<std::size_t>(state.range(0));
    workload::SarConfig config;
    config.counters = counters;
    const workload::SarCounterSynthesizer synth(config);
    const auto &profiles = workload::paperSuiteProfiles();
    for (auto _ : state) {
        auto panel = synth.collect(profiles, workload::machineA());
        benchmark::DoNotOptimize(panel.runs.size());
    }
}
BENCHMARK(BM_SarPanel)->Arg(220)->Arg(1000);

void
BM_FullPipeline(benchmark::State &state)
{
    const workload::SarCounterSynthesizer sar{workload::SarConfig{}};
    const auto &profiles = workload::paperSuiteProfiles();
    const auto vectors = core::characterizeFromSar(
        sar.collect(profiles, workload::machineA()));
    core::PipelineConfig config;
    for (auto _ : state) {
        auto analysis = core::analyzeClusters(vectors, config);
        benchmark::DoNotOptimize(analysis.partitions.size());
    }
}
BENCHMARK(BM_FullPipeline);

void
BM_Calibration(benchmark::State &state)
{
    for (auto _ : state) {
        for (const auto &row : workload::paper::table3()) {
            benchmark::DoNotOptimize(
                workload::ExecutionModel::calibrateToSpeedups(
                    workload::machineA(), workload::machineB(),
                    workload::referenceMachine(), row.speedupA,
                    row.speedupB, 100.0));
        }
    }
}
BENCHMARK(BM_Calibration);

} // namespace

BENCHMARK_MAIN();
