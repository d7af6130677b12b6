/**
 * @file
 * Throughput benchmark for the concurrent scoring engine.
 *
 * Builds a repeated-request mix (--requests total over --distinct
 * unique fingerprints, the shape of a suite-subsetting study that
 * re-scores shared cluster analyses) and measures three runs:
 *
 *   1. cold, 1 engine thread   — the serial baseline;
 *   2. cold, --threads threads — pool speedup (near-linear on enough
 *      cores; duplicate requests are deduped in flight in both runs);
 *   3. warm repeat of the same mix on the same engine — every request
 *      served by the content-addressed cache.
 *
 * Emits a human-readable table plus one machine-readable JSON line
 * (requests/s, speedups, cache-hit ratio) for the bench trajectory.
 *
 * Flags: --requests=32 --distinct=8 --threads=4 --workloads=16
 *        --features=12 --som-steps=4000 --seed=1 [--json-only]
 */

#include <chrono>
#include <iostream>
#include <sstream>

#include "src/hiermeans.h"

namespace {

using namespace hiermeans;

engine::ScoreRequest
makeRequest(std::uint64_t variant, std::size_t num_workloads,
            std::size_t num_features, std::size_t som_steps,
            std::uint64_t seed)
{
    rng::Engine rng(seed * 1000003 + variant);
    engine::ScoreRequest request;
    request.id = "v" + std::to_string(variant);
    request.features =
        linalg::Matrix(num_workloads, num_features);
    for (std::size_t r = 0; r < num_workloads; ++r) {
        for (std::size_t c = 0; c < num_features; ++c)
            request.features(r, c) = rng.uniform(-2.0, 2.0);
    }
    for (std::size_t r = 0; r < num_workloads; ++r) {
        request.workloads.push_back("w" + std::to_string(r));
        request.scoresA.push_back(rng.uniform(0.5, 4.0));
        request.scoresB.push_back(rng.uniform(0.5, 4.0));
    }
    for (std::size_t c = 0; c < num_features; ++c)
        request.featureNames.push_back("f" + std::to_string(c));
    request.config.autoSizeSom(num_workloads);
    request.config.som.steps = som_steps;
    request.seed = seed + variant;
    return request;
}

/** Run the mix through a fresh submission pass; returns wall ms. */
double
runMix(engine::ScoringEngine &engine,
       const std::vector<engine::ScoreRequest> &mix)
{
    const auto start = std::chrono::steady_clock::now();
    std::vector<std::future<engine::ScoreResult>> futures;
    futures.reserve(mix.size());
    for (const engine::ScoreRequest &request : mix)
        futures.push_back(engine.submit(request));
    for (auto &future : futures) {
        const engine::ScoreResult result = future.get();
        HM_ASSERT(result.ok, "bench request failed: " << result.error);
    }
    const auto elapsed = std::chrono::steady_clock::now() - start;
    return std::chrono::duration<double, std::milli>(elapsed).count();
}

} // namespace

int
main(int argc, char **argv)
{
    const auto cl = util::CommandLine::parse(argc, argv);
    const auto requests =
        static_cast<std::size_t>(cl.getInt("requests", 32));
    const auto distinct =
        static_cast<std::size_t>(cl.getInt("distinct", 8));
    const auto threads =
        static_cast<std::size_t>(cl.getInt("threads", 4));
    const auto num_workloads =
        static_cast<std::size_t>(cl.getInt("workloads", 16));
    const auto num_features =
        static_cast<std::size_t>(cl.getInt("features", 12));
    const auto som_steps =
        static_cast<std::size_t>(cl.getInt("som-steps", 4000));
    const auto seed = static_cast<std::uint64_t>(cl.getInt("seed", 1));
    const bool json_only = cl.getBool("json-only", false);

    std::vector<engine::ScoreRequest> mix;
    mix.reserve(requests);
    for (std::size_t i = 0; i < requests; ++i) {
        mix.push_back(makeRequest(i % distinct, num_workloads,
                                  num_features, som_steps, seed));
        mix.back().id += "-r" + std::to_string(i / distinct);
    }

    // 1. Cold, single-threaded baseline (fresh engine and cache).
    engine::ScoringEngine::Config serial_config;
    serial_config.threads = 1;
    engine::ScoringEngine serial_engine(serial_config);
    const double cold_serial_ms = runMix(serial_engine, mix);

    // 2. Cold, pooled (fresh engine again — nothing cached).
    engine::ScoringEngine::Config pooled_config;
    pooled_config.threads = threads;
    engine::ScoringEngine pooled_engine(pooled_config);
    const double cold_pooled_ms = runMix(pooled_engine, mix);

    // 3. Warm repeat on the pooled engine: all cache hits.
    const double warm_ms = runMix(pooled_engine, mix);

    const auto per_second = [requests](double ms) {
        return 1000.0 * static_cast<double>(requests) / ms;
    };
    const double speedup = cold_serial_ms / cold_pooled_ms;
    const double warm_speedup = cold_pooled_ms / warm_ms;
    const engine::EngineMetrics &warm = pooled_engine.metrics();
    const double cache_hit_ratio =
        static_cast<double>(warm.cacheHits.value()) /
        static_cast<double>(warm.requests.value());

    if (!json_only) {
        util::TextTable table(
            {"run", "threads", "wall ms", "requests/s"});
        table.addRow({"cold serial", "1",
                      str::fixed(cold_serial_ms, 1),
                      str::fixed(per_second(cold_serial_ms), 1)});
        table.addRow({"cold pooled", std::to_string(threads),
                      str::fixed(cold_pooled_ms, 1),
                      str::fixed(per_second(cold_pooled_ms), 1)});
        table.addRow({"warm cache", std::to_string(threads),
                      str::fixed(warm_ms, 1),
                      str::fixed(per_second(warm_ms), 1)});
        std::cout << "engine throughput (" << requests
                  << " requests, " << distinct << " distinct)\n"
                  << table.render() << "\n"
                  << "pool speedup (cold "
                  << threads << "t vs 1t): x"
                  << str::fixed(speedup, 2) << "\n"
                  << "warm-cache speedup vs cold pooled: x"
                  << str::fixed(warm_speedup, 2) << "\n\n"
                  << warm.registry().render() << "\n";
    }

    // One-line JSON for the bench trajectory.
    std::ostringstream json;
    json << "{\"bench\":\"perf_engine_throughput\""
         << ",\"requests\":" << requests
         << ",\"distinct\":" << distinct
         << ",\"threads\":" << threads
         << ",\"cold_serial_ms\":" << str::fixed(cold_serial_ms, 3)
         << ",\"cold_pooled_ms\":" << str::fixed(cold_pooled_ms, 3)
         << ",\"warm_ms\":" << str::fixed(warm_ms, 3)
         << ",\"pool_speedup\":" << str::fixed(speedup, 3)
         << ",\"warm_speedup\":" << str::fixed(warm_speedup, 3)
         << ",\"requests_per_s_cold\":"
         << str::fixed(per_second(cold_pooled_ms), 2)
         << ",\"requests_per_s_warm\":"
         << str::fixed(per_second(warm_ms), 2)
         << ",\"cache_hit_ratio\":"
         << str::fixed(cache_hit_ratio, 4) << "}";
    std::cout << json.str() << "\n";
    return 0;
}
