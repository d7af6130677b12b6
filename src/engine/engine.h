/**
 * @file
 * The concurrent scoring engine: a reusable service core around the
 * one-shot hierarchical-means pipeline.
 *
 *   ScoreRequest --fingerprint--> [result cache] --miss--> [in-flight
 *   table (single-flight)] --new--> [thread pool] --> pipeline -->
 *   ScoreResult (+ cache insert, + metrics)
 *
 * A result is its report: the `ClusterAnalysis` an execution builds
 * lives only until `buildScoreReport` has read its partitions, and the
 * cache keeps `{report, recommendedK}`, the shape every caller serves.
 *
 * `submit` is non-blocking and returns a `std::future<ScoreResult>`:
 *  - a cache hit resolves immediately with the cached (bit-identical)
 *    report;
 *  - a request identical to one already executing piggybacks on that
 *    execution (the pipeline runs once, every waiter gets the result);
 *  - otherwise the request is queued on the fixed-size worker pool.
 *
 * Failures are isolated per request: a malformed input or a pipeline
 * exception resolves that request's future with ok=false and the error
 * text — it never throws across the pool or poisons the batch. The
 * only deadline the engine enforces is the request's CancelToken, and
 * cooperatively: a request whose token fired while queued is not
 * executed, the token is polled between pipeline stages, and a
 * deadline that passed during execution is re-checked afterwards.
 *
 * Determinism: the RNG seed travels inside the request (ScoreRequest::
 * seed overrides config.som.seed), every stochastic pipeline stage
 * draws from engines constructed from that seed, and nothing in the
 * engine shares mutable state between requests — so two identical
 * requests produce identical fingerprints and bit-identical reports
 * regardless of thread interleaving.
 */

#ifndef HIERMEANS_ENGINE_ENGINE_H
#define HIERMEANS_ENGINE_ENGINE_H

#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/core/pipeline.h"
#include "src/engine/cancel.h"
#include "src/engine/metrics.h"
#include "src/obs/trace.h"
#include "src/engine/result_cache.h"
#include "src/engine/thread_pool.h"
#include "src/scoring/score_report.h"
#include "src/stats/means.h"

namespace hiermeans {
namespace engine {

/** One scoring request: data + config + seed, self-contained. */
struct ScoreRequest
{
    /** Caller-chosen label echoed into the result (not fingerprinted). */
    std::string id;

    /** Raw observations, rows = workloads (pre-characterization). */
    linalg::Matrix features;
    std::vector<std::string> workloads;
    std::vector<std::string> featureNames;

    /** Per-workload scores of the two machines being compared. */
    std::vector<double> scoresA;
    std::vector<double> scoresB;
    std::string labelA = "A";
    std::string labelB = "B";

    stats::MeanKind kind = stats::MeanKind::Geometric;
    core::PipelineConfig config;

    /**
     * Per-request RNG seed; overrides config.som.seed so determinism
     * is explicit at the request level.
     */
    std::uint64_t seed = 0x5eed;

    /**
     * The manifest line's `timeout-ms=` as parsed (0 = not stated).
     * Manifest data only: the engine never reads it. Callers fold it
     * into the deadline they arm on `cancel`.
     */
    double timeoutMillis = 0.0;

    /**
     * Cooperative cancellation and the request's one deadline: polled
     * at dequeue (an entry whose token fired is purged from the queue
     * instead of executed) and between pipeline stages. A null token
     * never cancels. Like trace/id this is never fingerprinted.
     */
    CancelToken cancel;

    /**
     * Live request trace to record cache/queue/execute/pipeline spans
     * into; nullptr when tracing is disarmed. Like id/labels this is
     * presentation-only and never fingerprinted — traced and untraced
     * twins still dedupe onto one execution.
     */
    std::shared_ptr<obs::Trace> trace;

    /** Parent span for the engine's spans inside `trace`. */
    std::size_t traceParent = obs::kNoParent;
};

/** The outcome of one request. */
struct ScoreResult
{
    std::string id;
    bool ok = false;
    std::string error;      ///< set when !ok.
    bool timedOut = false;  ///< !ok because the deadline lapsed.
    bool cancelled = false; ///< !ok because the caller gave up.
    bool cacheHit = false;  ///< served from the result cache.
    bool deduped = false;   ///< piggybacked on an in-flight twin.
    std::uint64_t fingerprint = 0;
    double wallMillis = 0.0; ///< pipeline wall time (0 for cache hits).

    scoring::ScoreReport report;
    std::size_t recommendedK = 0; ///< cluster count of recommended row.
};

/**
 * Content fingerprint of a request: features, scores, mean kind,
 * config and effective seed. Ignores id/labels (presentation only).
 */
std::uint64_t fingerprintRequest(const ScoreRequest &request);

/** Concurrent, cached, single-flight scoring service. */
class ScoringEngine
{
  public:
    struct Config
    {
        /** Worker threads (>= 1). */
        std::size_t threads = 4;
        ResultCache::Config cache;
    };

    /** Engine with the default pool size and cache bounds. */
    ScoringEngine() : ScoringEngine(Config{}) {}

    explicit ScoringEngine(Config config);

    /** Drains in-flight work (ThreadPool shutdown semantics). */
    ~ScoringEngine() = default;

    ScoringEngine(const ScoringEngine &) = delete;
    ScoringEngine &operator=(const ScoringEngine &) = delete;

    /**
     * Submit one request; never blocks on pipeline work and never
     * throws for per-request data problems (those resolve the future
     * with ok=false).
     */
    std::future<ScoreResult> submit(ScoreRequest request);

    /**
     * Requests accepted by the pool but not yet executing — the
     * backlog a serving layer reports as its queue depth.
     */
    std::size_t queueDepth() const { return pool_.pendingTasks(); }

    const EngineMetrics &metrics() const { return metrics_; }
    ResultCache &cache() { return cache_; }
    ThreadPool &pool() { return pool_; }

  private:
    /** Waiters for one in-flight fingerprint (single-flight group). */
    struct Flight
    {
        std::vector<std::pair<std::string, std::promise<ScoreResult>>>
            waiters;
    };

    void execute(std::uint64_t fingerprint,
                 std::shared_ptr<const ScoreRequest> request,
                 std::chrono::steady_clock::time_point enqueued,
                 std::size_t queueSpan);

    Config config_;
    ResultCache cache_;
    EngineMetrics metrics_;
    std::mutex flightsMutex_;
    std::unordered_map<std::uint64_t, std::shared_ptr<Flight>> flights_;
    ThreadPool pool_; ///< last member: joins before the rest dies.
};

} // namespace engine
} // namespace hiermeans

#endif // HIERMEANS_ENGINE_ENGINE_H
