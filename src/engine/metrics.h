/**
 * @file
 * Engine observability: request counters and latency histograms,
 * declared once in an obs::Registry that /metrics renders.
 *
 * Counters (requests, cache hits, in-flight dedupes, executions,
 * failures, timeouts, cancellations, uncached results) are lock-free
 * atomics; two fixed-bucket histograms time every served request
 * (cache hits included) and every executed pipeline.
 */

#ifndef HIERMEANS_ENGINE_METRICS_H
#define HIERMEANS_ENGINE_METRICS_H

#include "src/obs/registry.h"

namespace hiermeans {
namespace engine {

/** Counters + histograms shared by every engine worker. */
class EngineMetrics
{
  public:
    /** Declares every family below plus the cache-hit-ratio gauge. */
    EngineMetrics()
    {
        registry_.gauge("hiermeans_engine_cache_hit_ratio",
                        "Cache hits / engine requests.", [this] {
                            const double total =
                                static_cast<double>(requests.value());
                            return obs::scalar(
                                total > 0.0
                                    ? static_cast<double>(
                                          cacheHits.value()) /
                                          total
                                    : 0.0);
                        });
    }

    EngineMetrics(const EngineMetrics &) = delete;
    EngineMetrics &operator=(const EngineMetrics &) = delete;

    const obs::Registry &registry() const { return registry_; }

  private:
    /** Declared first: every instrument below lives in it. */
    obs::Registry registry_;

  public:
    obs::Counter &requests =
        registry_.counter("hiermeans_engine_requests_total",
                          "Requests submitted to the scoring engine.");
    obs::Counter &cacheHits = registry_.counter(
        "hiermeans_engine_cache_hits_total",
        "Requests served straight from the result cache.");
    obs::Counter &dedupedInFlight =
        registry_.counter("hiermeans_engine_dedup_total",
                          "Requests piggybacked on an in-flight twin.");
    obs::Counter &executions = registry_.counter(
        "hiermeans_engine_executions_total", "Pipelines actually executed.");
    obs::Counter &cancellations = registry_.counter(
        "hiermeans_engine_cancellations_total",
        "Requests abandoned on a cancel token (drain or explicit).");
    obs::Counter &failures =
        registry_.counter("hiermeans_engine_failures_total",
                          "Executions that raised an error.");
    obs::Counter &timeouts =
        registry_.counter("hiermeans_engine_timeouts_total",
                          "Requests past their cooperative deadline.");
    obs::Counter &cacheInsertFailures =
        registry_.counter("hiermeans_engine_cache_insert_failures_total",
                          "Results served but not cached.");
    /** Wall time per served request (cache hits ~0). */
    obs::Histogram &requestLatency = registry_.histogram(
        "hiermeans_engine_request_duration_ms",
        "Engine wall time per served request (milliseconds).");
    /** Wall time per executed pipeline. */
    obs::Histogram &pipelineLatency = registry_.histogram(
        "hiermeans_engine_pipeline_duration_ms",
        "Wall time per executed pipeline (milliseconds).");
};

} // namespace engine
} // namespace hiermeans

#endif // HIERMEANS_ENGINE_METRICS_H
