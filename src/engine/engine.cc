#include "src/engine/engine.h"

#include <chrono>
#include <exception>

#include <thread>

#include "src/core/characterization.h"
#include "src/engine/fingerprint.h"
#include "src/scoring/hierarchical_mean.h"
#include "src/stats/means.h"
#include "src/util/error.h"
#include "src/util/fault.h"

namespace hiermeans {
namespace engine {

namespace {

double
millisSince(std::chrono::steady_clock::time_point start)
{
    const auto elapsed = std::chrono::steady_clock::now() - start;
    return std::chrono::duration<double, std::milli>(elapsed).count();
}

} // namespace

std::uint64_t
fingerprintRequest(const ScoreRequest &request)
{
    // The seed is applied onto the config before hashing so that
    // "same effective configuration" implies "same fingerprint"
    // however the caller spelled it.
    core::PipelineConfig effective = request.config;
    effective.som.seed = request.seed;

    Fingerprint fp;
    fp.mix(request.features);
    fp.mix(static_cast<std::uint64_t>(request.workloads.size()));
    for (const std::string &name : request.workloads)
        fp.mix(name);
    fp.mix(static_cast<std::uint64_t>(request.featureNames.size()));
    for (const std::string &name : request.featureNames)
        fp.mix(name);
    fp.mix(request.scoresA);
    fp.mix(request.scoresB);
    fp.mix(request.kind);
    fp.mix(effective);
    return fp.digest();
}

ScoringEngine::ScoringEngine(Config config)
    : config_(config), cache_(config.cache), pool_(config.threads)
{}

std::future<ScoreResult>
ScoringEngine::submit(ScoreRequest request)
{
    metrics_.requests.inc();
    const auto received = std::chrono::steady_clock::now();
    const std::uint64_t fingerprint = fingerprintRequest(request);

    obs::Trace *trace = request.trace.get();
    const std::size_t traceParent = request.traceParent;

    std::promise<ScoreResult> promise;
    std::future<ScoreResult> future = promise.get_future();

    std::unique_lock<std::mutex> lock(flightsMutex_);

    // Fast path: an identical request already completed and is cached.
    std::size_t lookupSpan = obs::kNoParent;
    if (trace != nullptr)
        lookupSpan = trace->begin("cache.lookup", traceParent);
    auto cached = cache_.get(fingerprint);
    if (trace != nullptr)
        trace->end(lookupSpan);
    if (cached) {
        lock.unlock();
        metrics_.cacheHits.inc();
        ScoreResult result;
        result.id = std::move(request.id);
        result.ok = true;
        result.cacheHit = true;
        result.fingerprint = fingerprint;
        result.report = std::move(cached->report);
        result.analysis = std::move(cached->analysis);
        result.recommendedK = cached->recommendedK;
        metrics_.requestLatency.observe(millisSince(received));
        promise.set_value(std::move(result));
        return future;
    }

    // Single-flight: an identical request is already executing — join
    // its waiter list instead of running the pipeline twice.
    if (const auto it = flights_.find(fingerprint); it != flights_.end()) {
        it->second->waiters.emplace_back(std::move(request.id),
                                         std::move(promise));
        lock.unlock();
        metrics_.dedupedInFlight.inc();
        if (trace != nullptr) {
            // An instant marker: this request piggybacks on a running
            // twin, so its own trace ends at the join point.
            trace->end(trace->begin("engine.dedupe", traceParent));
        }
        return future;
    }

    // New work: open a flight and hand the request to the pool.
    auto flight = std::make_shared<Flight>();
    flight->waiters.emplace_back(std::move(request.id),
                                 std::move(promise));
    flights_[fingerprint] = flight;
    lock.unlock();

    // The queue-wait span stays open until a worker picks the request
    // up; execute() closes it.
    std::size_t queueSpan = obs::kNoParent;
    if (trace != nullptr)
        queueSpan = trace->begin("engine.queue", traceParent);

    auto shared_request =
        std::make_shared<const ScoreRequest>(std::move(request));
    pool_.submit([this, fingerprint, shared_request, received,
                  queueSpan]() {
        execute(fingerprint, shared_request, received, queueSpan);
    });
    return future;
}

void
ScoringEngine::execute(std::uint64_t fingerprint,
                       std::shared_ptr<const ScoreRequest> request,
                       std::chrono::steady_clock::time_point enqueued,
                       std::size_t queueSpan)
{
    ScoreResult result;
    result.fingerprint = fingerprint;

    obs::Trace *trace = request->trace.get();
    std::size_t executeSpan = obs::kNoParent;
    if (trace != nullptr) {
        trace->end(queueSpan);
        executeSpan = trace->begin("engine.execute",
                                   request->traceParent);
    }
    // Pipeline code below records its stage spans through the
    // thread-local context, parented under engine.execute.
    obs::ScopedTraceContext traceContext(trace, executeSpan);

    const auto started = std::chrono::steady_clock::now();

    // Thrown at a stage boundary when the request's CancelToken fired
    // mid-pipeline; classified below as timed-out or cancelled.
    struct CancelledMidPipeline
    {};
    const auto classifyCancel = [&](const char *where) {
        if (request->cancel.remainingMillis() <= 0.0) {
            metrics_.timeouts.inc();
            result.timedOut = true;
            result.error =
                std::string("timed out ") + where + " (deadline expired)";
        } else {
            metrics_.cancellations.inc();
            result.cancelled = true;
            result.error = std::string("cancelled ") + where;
        }
    };

    if (request->cancel.cancelled()) {
        // Purged from the queue: the deadline lapsed or the caller
        // gave up while we waited — don't burn a worker on it.
        classifyCancel("while queued");
        if (trace != nullptr)
            trace->end(trace->begin("engine.purge", executeSpan));
    } else {
        metrics_.executions.inc();
        try {
            // Chaos hooks: a stuck worker (`engine.stall`, parameter =
            // milliseconds) and a task that dies mid-pipeline
            // (`engine.task`). The stall is what the server's await
            // deadline exists to catch.
            double stall_millis = 0.0;
            if (HM_FAULT_PARAM("engine.stall", stall_millis) &&
                stall_millis > 0.0) {
                std::this_thread::sleep_for(
                    std::chrono::duration<double, std::milli>(
                        stall_millis));
            }
            if (HM_FAULT("engine.task"))
                throw Error("injected: engine.task execution failure");

            core::PipelineConfig config = request->config;
            config.som.seed = request->seed;

            std::shared_ptr<const core::ClusterAnalysis> analysis;
            {
                core::CharacteristicVectors vectors;
                {
                    obs::ScopedSpan span("pipeline.characterize");
                    vectors = core::characterizeRaw(
                        request->features, request->workloads,
                        request->featureNames);
                }
                if (request->cancel.cancelled())
                    throw CancelledMidPipeline{};
                // analyzeClusters records its own som_train/cluster
                // stage spans through the thread-local context.
                analysis =
                    std::make_shared<const core::ClusterAnalysis>(
                        core::analyzeClusters(vectors, config));
            }
            if (request->cancel.cancelled())
                throw CancelledMidPipeline{};
            scoring::ScoreReport report;
            {
                obs::ScopedSpan span("pipeline.score");
                report = scoring::buildScoreReport(
                    request->kind, request->scoresA, request->scoresB,
                    analysis->partitions);
            }

            result.report = std::move(report);
            result.analysis = std::move(analysis);
            result.recommendedK =
                result.report.rows[result.report.recommendedRow()]
                    .clusterCount;
            result.ok = true;
        } catch (const CancelledMidPipeline &) {
            classifyCancel("between pipeline stages");
        } catch (const std::exception &e) {
            metrics_.failures.inc();
            result.error = e.what();
        }
        result.wallMillis = millisSince(started);
        metrics_.pipelineLatency.observe(result.wallMillis);

        if (result.ok && request->cancel.remainingMillis() <= 0.0) {
            // Cooperative deadline: the pipeline cannot be interrupted
            // mid-SOM, so overruns are detected after the fact.
            metrics_.timeouts.inc();
            result.ok = false;
            result.timedOut = true;
            result.report = scoring::ScoreReport{};
            result.analysis.reset();
            result.recommendedK = 0;
            result.error = "timed out after " +
                           std::to_string(millisSince(enqueued)) +
                           " ms (deadline expired)";
        }
    }

    if (result.ok) {
        // A failed cache insert must never fail the request (the
        // result is already computed) — and, crucially, must never
        // skip the flight cleanup below, or every waiter deadlocks.
        obs::ScopedSpan span("cache.put");
        try {
            if (HM_FAULT("engine.cache.put"))
                throw Error("injected: engine.cache.put failure");
            cache_.put(fingerprint,
                       CachedResult{result.report, result.analysis,
                                    result.recommendedK});
        } catch (const std::exception &) {
            metrics_.cacheInsertFailures.inc();
        }
    }
    if (trace != nullptr)
        trace->end(executeSpan);

    // Close the flight *after* the cache insert so a request arriving
    // in between sees either the flight or the cached entry.
    std::vector<std::pair<std::string, std::promise<ScoreResult>>> waiters;
    {
        std::lock_guard<std::mutex> lock(flightsMutex_);
        const auto it = flights_.find(fingerprint);
        HM_ASSERT(it != flights_.end(),
                  "ScoringEngine: flight vanished for fingerprint "
                      << fingerprint);
        waiters = std::move(it->second->waiters);
        flights_.erase(it);
    }

    const double total = millisSince(enqueued);
    for (std::size_t i = 0; i < waiters.size(); ++i) {
        ScoreResult copy = result;
        copy.id = std::move(waiters[i].first);
        copy.deduped = i > 0; // waiter 0 is the request that ran.
        metrics_.requestLatency.observe(total);
        waiters[i].second.set_value(std::move(copy));
    }
}

std::vector<ScoreResult>
ScoringEngine::runBatch(std::vector<ScoreRequest> requests)
{
    std::vector<std::future<ScoreResult>> futures;
    futures.reserve(requests.size());
    for (ScoreRequest &request : requests)
        futures.push_back(submit(std::move(request)));
    std::vector<ScoreResult> results;
    results.reserve(futures.size());
    for (auto &future : futures)
        results.push_back(future.get());
    return results;
}

scoring::ScoreReport
buildScoreReportParallel(ThreadPool &pool, stats::MeanKind kind,
                         const std::vector<double> &scores_a,
                         const std::vector<double> &scores_b,
                         const std::vector<scoring::Partition> &partitions)
{
    HM_REQUIRE(scores_a.size() == scores_b.size(),
               "buildScoreReportParallel: score vectors differ in size");
    HM_REQUIRE(!scores_a.empty(), "buildScoreReportParallel: no scores");

    std::vector<std::future<scoring::ScoreReportRow>> rows;
    rows.reserve(partitions.size());
    for (const scoring::Partition &partition : partitions) {
        HM_REQUIRE(partition.size() == scores_a.size(),
                   "buildScoreReportParallel: partition covers "
                       << partition.size() << " items, scores cover "
                       << scores_a.size());
        rows.push_back(pool.submit([kind, &scores_a, &scores_b,
                                    &partition]() {
            scoring::ScoreReportRow row;
            row.clusterCount = partition.clusterCount();
            row.partition = partition;
            row.scoreA = scoring::hierarchicalMean(kind, scores_a,
                                                   partition);
            row.scoreB = scoring::hierarchicalMean(kind, scores_b,
                                                   partition);
            row.ratio = row.scoreA / row.scoreB;
            return row;
        }));
    }

    scoring::ScoreReport report;
    report.kind = kind;
    for (auto &future : rows)
        report.rows.push_back(future.get());
    report.plainA = stats::mean(kind, scores_a);
    report.plainB = stats::mean(kind, scores_b);
    report.plainRatio = report.plainA / report.plainB;
    return report;
}

scoring::MultiMachineReport
buildMultiMachineReportParallel(
    ThreadPool &pool, stats::MeanKind kind,
    const std::vector<std::vector<double>> &machine_scores,
    const std::vector<std::string> &machine_labels,
    const std::vector<scoring::Partition> &partitions)
{
    HM_REQUIRE(machine_scores.size() >= 2,
               "buildMultiMachineReportParallel: need >= 2 machines");
    HM_REQUIRE(machine_scores.size() == machine_labels.size(),
               "buildMultiMachineReportParallel: "
                   << machine_scores.size() << " score vectors vs "
                   << machine_labels.size() << " labels");
    const std::size_t n = machine_scores.front().size();
    HM_REQUIRE(n >= 1, "buildMultiMachineReportParallel: no workloads");
    for (const auto &scores : machine_scores) {
        HM_REQUIRE(scores.size() == n,
                   "buildMultiMachineReportParallel: ragged score "
                   "vectors");
    }

    // One task per (partition, machine) cell, gathered in order.
    std::vector<std::future<double>> cells;
    cells.reserve(partitions.size() * machine_scores.size());
    for (const scoring::Partition &partition : partitions) {
        HM_REQUIRE(partition.size() == n,
                   "buildMultiMachineReportParallel: partition covers "
                       << partition.size() << " items, scores cover "
                       << n);
        for (const auto &scores : machine_scores) {
            cells.push_back(pool.submit([kind, &scores, &partition]() {
                return scoring::hierarchicalMean(kind, scores,
                                                 partition);
            }));
        }
    }

    scoring::MultiMachineReport report;
    report.kind = kind;
    report.machineLabels = machine_labels;
    std::size_t cell = 0;
    for (const scoring::Partition &partition : partitions) {
        scoring::MultiMachineRow row;
        row.clusterCount = partition.clusterCount();
        row.partition = partition;
        for (std::size_t m = 0; m < machine_scores.size(); ++m)
            row.scores.push_back(cells[cell++].get());
        report.rows.push_back(std::move(row));
    }
    for (const auto &scores : machine_scores)
        report.plainScores.push_back(stats::mean(kind, scores));
    return report;
}

} // namespace engine
} // namespace hiermeans
